"""Resident-set-size probes for soak runs and benchmarks.

Peak RSS is the number a memory refactor must move: admissions/s says
nothing if the process quietly grew to ten times the footprint.  Two
probes, both dependency-free:

* :func:`peak_rss_bytes` — the high-water mark (``VmHWM`` from
  ``/proc``, or ``getrusage`` for the calling process), the headline
  soak-gate number;
* :func:`current_rss_bytes` — the instantaneous ``VmRSS``, sampled per
  window so soak reports can show the *growth curve* (flat after
  warm-up is the claim a soak of the connection store has to prove).

Both return 0 where the probe is unavailable (non-Linux without
``resource``), so callers can archive honest metadata instead of
crashing.
"""

from __future__ import annotations

from typing import Optional


def _proc_status_bytes(field: str, pid: Optional[int] = None) -> int:
    """Read a kB-denominated field from ``/proc/<pid>/status`` (0 when
    unreadable — dead process, non-Linux, permission)."""
    path = "/proc/{}/status".format("self" if pid is None else pid)
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def current_rss_bytes(pid: Optional[int] = None) -> int:
    """Instantaneous resident set size in bytes (``VmRSS``)."""
    return _proc_status_bytes("VmRSS", pid)


def peak_rss_bytes(pid: Optional[int] = None) -> int:
    """Peak resident set size in bytes.

    For the calling process (``pid=None``) falls back to
    ``getrusage(RUSAGE_SELF)`` where ``/proc`` is unavailable; for
    other pids only the ``/proc`` route exists (``VmHWM``).
    """
    measured = _proc_status_bytes("VmHWM", pid)
    if measured or pid is not None:
        return measured
    try:
        import resource

        # Linux reports ru_maxrss in kilobytes.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0
