"""Command-line interface: ``python -m repro <command>``.

One module per command group owns its subparsers and handlers:
:mod:`.generate` (``topology``, ``scenario``), :mod:`.replay`
(``replay``, ``trace``, ``assess``), :mod:`.campaign`, :mod:`.chaos`,
:mod:`.serve` (``serve``, ``loadtest``) and :mod:`.soak`.  A command
that needs a network gets it from :func:`network_and_groups`, and
every service a command runs is built by :func:`build_service`.
Every command is deterministic given its ``--seed``, and topology and
scenario files round-trip on disk, so the paper's workflow (topology,
scenario file, replay under a scheme) runs from the shell with an
artifact at every step.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Optional, Sequence

from ..core import DRTPService
from ..experiments import make_scheme
from ..topology import (
    load_network,
    load_network_with_groups,
    mesh_conduit_groups,
    mesh_network,
    ring_network,
    waxman_network,
)
from ..topology.waxman import WaxmanParameters

SCHEME_CHOICES = ("D-LSR", "P-LSR", "BF", "disjoint", "random", "no-backup")


class UsageError(Exception):
    """A request the parser accepts but the command cannot serve:
    :func:`main` prints the message on stderr and exits 2."""


def _checked(convert: Callable, expected: str, accept: Callable,
             bound: str) -> Callable[[str], object]:
    """An argparse type: ``convert`` the text, then require ``accept``
    (a rate, duration or window of ``0`` would fail far downstream;
    the parser turns it into a one-line usage error)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected {}, got {!r}".format(expected, text)
            )
        if not accept(value):
            raise argparse.ArgumentTypeError(
                "{}, got {}".format(bound, text)
            )
        return value

    return parse


positive_float = _checked(float, "a number", lambda v: v > 0,
                          "must be positive")
positive_int = _checked(int, "an integer", lambda v: v > 0,
                        "must be positive")
fraction = _checked(float, "a number", lambda v: 0.0 < v <= 1.0,
                    "must be in (0, 1]")


def add_production_knobs(parser: argparse.ArgumentParser) -> None:
    """The MMPP/drift knobs shared by production-workload commands
    (``scenario --workload production``, ``soak``)."""
    parser.add_argument("--burst-factor", type=positive_float, default=4.0,
                        help="burst-phase rate as a multiple of calm")
    parser.add_argument("--calm-mean", type=positive_float, default=3600.0,
                        help="mean calm-phase sojourn, simulated seconds")
    parser.add_argument("--burst-mean", type=positive_float, default=600.0,
                        help="mean burst-phase sojourn, simulated seconds")
    parser.add_argument("--hot-count", type=positive_int, default=10,
                        help="size of the drifting hot destination set")
    parser.add_argument("--hot-fraction", type=fraction, default=0.5,
                        help="share of connections aimed at hot nodes")
    parser.add_argument("--drift-epoch", type=positive_float, default=3600.0,
                        help="seconds between hot-set migrations")
    parser.add_argument("--drift-migrate", type=positive_int, default=1,
                        help="hot nodes replaced per migration step")


def production_trace_config(args: argparse.Namespace, num_nodes: int):
    """The ProductionTraceConfig the production knobs describe."""
    from ..loadmodel import (
        DriftParameters,
        MMPPParameters,
        ProductionTraceConfig,
    )
    from ..simulation.arrivals import HoldingTimeDistribution

    return ProductionTraceConfig(
        num_nodes=num_nodes,
        mmpp=MMPPParameters.bursty(
            args.rate,
            burst_factor=args.burst_factor,
            calm_mean=args.calm_mean,
            burst_mean=args.burst_mean,
        ),
        drift=DriftParameters(
            hot_count=args.hot_count,
            hot_fraction=args.hot_fraction,
            epoch_seconds=args.drift_epoch,
            migrate=args.drift_migrate,
        ),
        holding=HoldingTimeDistribution(args.hold_min, args.hold_max),
        bw_req=args.bw,
        seed=args.seed,
    )


def network_and_groups(args: argparse.Namespace):
    """``(network, risk_groups)`` as the parsed arguments name them:
    the ``--topology`` file (its srlg section under ``--srlg file``),
    else a generated ``--kind`` network (a subparser default where the
    command has no ``--kind``) with ``--srlg conduits`` (mesh) or
    ``--srlg proximity`` (Waxman) risk groups."""
    path = getattr(args, "topology", None)
    srlg = getattr(args, "srlg", "none")
    if path is not None:
        if srlg == "file":
            network, groups = load_network_with_groups(path)
            if groups is None:
                raise SystemExit("{} has no srlg section".format(path))
            return network, groups
        network = load_network(path)
        if srlg == "conduits":
            raise SystemExit(
                "--srlg conduits bundles the default mesh's conduits; "
                "with --topology, embed groups and use --srlg file"
            )
        return network, None
    if srlg == "file":
        raise SystemExit(
            "--srlg file needs --topology (a JSON with an embedded "
            "srlg section, written by save_network(risk_groups=...))"
        )
    if args.kind == "waxman":
        network = waxman_network(
            args.nodes,
            capacity=args.capacity,
            parameters=WaxmanParameters(target_degree=args.degree),
            rng=random.Random(args.seed),
        )
    elif args.kind == "mesh":
        network = mesh_network(args.rows, args.cols, args.capacity)
    else:
        network = ring_network(args.nodes, args.capacity)
    if srlg == "conduits":
        if args.kind != "mesh":
            raise UsageError("--srlg conduits needs --kind mesh")
        return network, mesh_conduit_groups(network, args.rows, args.cols)
    if srlg == "proximity":
        if args.kind != "waxman":
            raise UsageError("--srlg proximity needs --kind waxman "
                             "(geometric layout)")
        from ..topology import proximity_groups

        return network, proximity_groups(network, cell_size=args.srlg_cell)
    return network, None


def build_service(args: argparse.Namespace, network, risk_groups=None,
                  **options) -> DRTPService:
    """The service a command runs: ``--scheme`` (and ``--num-backups``)
    over ``network``; ``options`` pass through to ``DRTPService``, which
    is read from this module at call time, so a harness that rebinds
    ``repro.cli.DRTPService`` sees every service the commands build."""
    scheme = make_scheme(args.scheme)
    num_backups = getattr(args, "num_backups", 1)
    if num_backups > 1:
        if not hasattr(scheme, "num_backups"):
            raise UsageError("scheme {} does not support multiple "
                             "backups".format(args.scheme))
        scheme.num_backups = num_backups
    return DRTPService(network, scheme, risk_groups=risk_groups, **options)


def trace_collector(args: argparse.Namespace):
    """A collector when ``--trace-dir`` was given, else None."""
    if args.trace_dir is None:
        return None
    from ..observability import TraceCollector

    return TraceCollector()


def write_trace(collector, args: argparse.Namespace, stem: str) -> None:
    """Write ``collector`` (if any) into ``--trace-dir`` as
    ``<stem>_trace.json`` / ``.ndjson``."""
    if collector is None:
        return
    from ..observability import write_trace_dir

    chrome, ndjson = write_trace_dir(args.trace_dir, collector, stem)
    print("wrote {} spans ({} dropped) to {} and {}".format(
        len(collector), collector.dropped, chrome, ndjson,
    ))


def _package_version() -> str:
    """Installed distribution version, falling back to the package
    constant when running from a source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from .. import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (one subparser per command;
    importable so tests can drive parsing without a process)."""
    from . import campaign, chaos, generate, replay, serve, soak

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dependable real-time connection routing (DSN 2001 "
        "reproduction) command-line tools",
    )
    parser.add_argument(
        "--version", action="version",
        version="%(prog)s {}".format(_package_version()),
    )
    sub = parser.add_subparsers(dest="command")
    for group in (generate, replay, campaign, chaos, serve, soak):
        group.register(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: parse ``argv`` (default ``sys.argv[1:]``),
    dispatch to the subcommand, return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # No subcommand: print the full help, exit 2 (usage error).
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
