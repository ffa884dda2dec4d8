"""Command line front end.

Three subcommands:

  bench run --config experiment.json [--seed N] [--out DIR]
  bench describe --protocol NAME [--replicas N] [--workload KIND]
  bench plot --from DIR

Exit codes: 0 on success, 1 when a run executed but a trial failed,
2 for unusable configuration or arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    ExperimentConfigError,
    describe,
    run_experiment,
    write_plot_files,
)
from .model import TaskKind, WorkflowValidationError
from .protocols import UnknownProtocolError
from .runtime import PilotRequestError
from .scheduler import UnschedulableError

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_BAD_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="ensemble workflow benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument(
        "--out", default=None, help="output directory (default: results/<name>)"
    )

    desc = sub.add_parser("describe", help="print the shape of an expanded protocol")
    desc.add_argument(
        "--protocol", required=True, help="builtin protocol name or definition file"
    )
    desc.add_argument(
        "--replicas", type=int, default=None, help="ensemble size (default: protocol's)"
    )
    desc.add_argument(
        "--workload",
        default="SIM",
        choices=sorted(kind.value for kind in TaskKind),
        help="workload kind used for the expansion",
    )

    plot = sub.add_parser("plot", help="write plottable .dat series from a run dir")
    plot.add_argument(
        "--from", dest="from_dir", required=True, help="experiment output directory"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.load(args.config)
    out_dir = Path(args.out) if args.out else Path("results") / config.name
    result = run_experiment(config, out_dir, seed=args.seed)
    failed = [r.trial_id for r in result.reports if r.status != "DONE"]
    for row in result.aggregates:
        print(
            f"pipelines={row.pipelines:<5d} trials={row.trials} "
            f"ttx_mean={row.ttx_mean:.4f}s tq_mean={row.tq_mean:.4f}s "
            f"engine_overhead={row.engine_overhead_mean:.4f}s "
            f"runtime_overhead={row.runtime_overhead_mean:.4f}s"
        )
    print(f"wrote {result.out_dir / 'trials.csv'}")
    print(f"wrote {result.out_dir / 'summary.csv'}")
    if failed:
        print(f"failed trials: {', '.join(failed)}", file=sys.stderr)
        return EXIT_RUN_FAILED
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace) -> int:
    print(describe(args.protocol, replicas=args.replicas, workload=args.workload))
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    for path in write_plot_files(args.from_dir):
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage already; normalize other codes.
        return EXIT_BAD_CONFIG if exc.code not in (0,) else EXIT_OK
    handlers = {"run": _cmd_run, "describe": _cmd_describe, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except (
        ExperimentConfigError,  # protocols.ProtocolSchemaError too
        UnknownProtocolError,
        WorkflowValidationError,
        PilotRequestError,
        UnschedulableError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
