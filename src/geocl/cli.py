"""Command-line surface: synth, run, verify, report.

Exit codes: 0 success, 1 usage/validation error, 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiment, harness
from .config import load_config
from .errors import ConfigurationError, ContractViolation, GeoclError


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, which ``main`` reports as one line with exit 1."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geocl", description="mixed-curvature continual-learning engine")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic dataset as CSV")
    run = sub.add_parser("run", help="run a full continual-learning experiment")
    for p in (synth, run):
        p.add_argument("--config", help="JSON config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")

    verify = sub.add_parser("verify", help="run the numerical self-check suites")
    verify.add_argument("--tolerance", type=float, default=1.0,
                        help="scale factor applied to every tolerance")

    report = sub.add_parser("report", help="aggregate completed run directories")
    report.add_argument("run_dirs", nargs="+", help="directories written by `run`")
    report.add_argument("--out", required=True, help="where to write the tables")
    return parser


def _resolved_config(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    return load_config(args.config, overrides)


def cmd_synth(args) -> int:
    cfg = _resolved_config(args)
    manifest = experiment.write_dataset_csv(cfg, cfg["out_dir"])
    print(f"wrote {manifest['rows']} rows over {len(manifest['classes'])} classes "
          f"to {cfg['out_dir']}/{manifest['file']}")
    return 0


def cmd_run(args) -> int:
    cfg = _resolved_config(args)
    report = experiment.run_experiment(cfg, out_dir=cfg["out_dir"])
    m = report["metrics"]
    print(f"{'metric':<32}value")
    for name in harness.SUMMARY_METRICS:
        value = m[name]
        print(f"{name:<32}{'null' if value is None else f'{value:.4f}'}")
    print(f"report written to {cfg['out_dir']}/report.json")
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    if not 0 < args.tolerance < float("inf"):  # also false for NaN
        raise ConfigurationError(f"--tolerance must be a finite number > 0, got {args.tolerance}")
    results = verify_mod.run_all(tolerance_scale=args.tolerance)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} check(s) failed")
        return 2
    return 0


def cmd_report(args) -> int:
    # Everything is read and checked before the first table is written.
    aggregate = experiment.aggregate_reports(args.run_dirs)
    experiment.write_accuracy_curve(args.run_dirs, args.out)
    experiment.write_aggregate(aggregate, args.out)
    print(json.dumps(aggregate, indent=2))
    return 0


def main(argv=None) -> int:
    handlers = {"synth": cmd_synth, "run": cmd_run,
                "verify": cmd_verify, "report": cmd_report}
    try:
        args = build_parser().parse_args(argv)
        # A diverging run is reported by the engine's own finite-loss checks
        # as one line; NumPy's floating-point warnings on the way there
        # would add lines of their own.
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (ConfigurationError, ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeoclError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
