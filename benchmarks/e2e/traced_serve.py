"""`repro serve` with the span table installed — the traced server.

Launched by the harness in place of ``python -m repro.cli serve`` for
the traced run of a serve workload: it installs the wrappers of
``spans.py``, then calls ``repro.cli.main(["serve", ...])`` with the
arguments after ``--``, so the deployment shape (own process, Unix
socket, SIGTERM drain, manifest) is the untraced one.  When ``main``
returns — the server drained — it drops the spans of the warm-up ops,
checks the service's invariants, and writes the trace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import require_source_tree  # noqa: E402

require_source_tree()

import repro.cli  # noqa: E402
from repro.core import DRTPService  # noqa: E402
from repro.server import protocol  # noqa: E402

import spans  # noqa: E402
from ledger import counts_since, invariant_error, service_counts  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--skip-ops", type=int, default=0,
                        help="drop spans of client ops below this number")
    parser.add_argument("serve_args", nargs="+")
    args = parser.parse_args(argv)

    # `repro serve` builds its service inside the command; keep a handle
    # on it so its counters and invariants can be read after the drain.
    services = []

    class _Observed(DRTPService):
        def __init__(self, *positional, **keyword) -> None:
            super().__init__(*positional, **keyword)
            services.append(self)

    repro.cli.DRTPService = _Observed

    # The client sends op `skip_ops` only after every warm-up op was
    # answered, so the service's counts at that instant are exactly the
    # warm-up's.  Hooked outside the span so decode's time excludes it.
    baseline = {}

    with spans.install() as installed:
        traced_decode = protocol.decode_request

        def decode_request(line):
            request = traced_decode(line)
            if request.id == args.skip_ops and not baseline:
                baseline.update(service_counts(services[0]))
            return request

        protocol.decode_request = decode_request
        code = repro.cli.main(args.serve_args)
    recorder = installed.recorder
    recorder.drop_before(args.skip_ops)
    service = services[0]
    spans.write_ndjson(args.trace_out, recorder, {
        "workload": args.workload,
        "service": counts_since(baseline, service_counts(service)),
        "missing": spans.missing_rows(recorder, args.workload),
        "invariants": invariant_error(service),
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
