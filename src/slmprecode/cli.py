"""Command-line entry point: theory references, experiments, and sweeps.

Exit codes, each error class's ``exit_code``: 0 success, 2 configuration
error (bad flags, malformed config or channel contents), 3 numerical error
(singular or ill-conditioned channel, search budget, dimension mismatch),
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from . import harness, theory
from .errors import ConfigError, PrecodingError


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON experiment config")
    sub.add_argument("--seed", type=int, default=None, help="override master_seed")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmprecode",
        description=(
            "Transmit-energy analysis and Monte Carlo simulation of "
            "channel-inversion precoding with selective mapping."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser(
        "theory", help="print closed-form references for the configured channel"
    )
    p_theory.add_argument("--config", required=True)
    p_theory.add_argument("--format", choices=("text", "json"), default="text")
    p_theory.add_argument("--out", default=None)
    p_theory.set_defaults(func=cmd_theory)

    p_run = sub.add_parser("run", help="run one experiment and report")
    _add_common(p_run)
    p_run.add_argument("--workers", type=int, default=1, help="parallel worker count")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="re-run the experiment with N or b swept over a list"
    )
    _add_common(p_sweep)
    p_sweep.add_argument("--param", choices=("n", "b"), required=True)
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated integers, e.g. 16,256,4096"
    )
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _load(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        harness.write_text(out, text, "output")


def cmd_theory(args) -> int:
    cfg = _load(args)
    ch = harness.load_channel(cfg.channel_source, cfg.m, cfg.condition_limit)
    sigma2 = harness.information_sigma2(cfg)
    rep = theory.theory_report(ch, sigma2)
    if args.format == "json":
        obj = dict(dataclasses.asdict(rep), eigenvalues=[float(x) for x in rep.eigenvalues])
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"M = {rep.m}",
            f"sigma2 = {rep.sigma2!r}",
            f"e_opt = {rep.e_opt!r}",
            f"e_slm_limit = {rep.e_slm_limit!r}",
            f"channel_gain = {rep.channel_gain!r}",
            f"r_eq2 = {rep.r_eq2!r}",
            "eigenvalues = " + ", ".join(repr(float(x)) for x in rep.eigenvalues),
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    report = harness.run_experiment(cfg, workers=args.workers)
    _emit(harness.write_report(report, args.format, None), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated integers: {args.values!r}")
    if not values:
        raise ConfigError("--values is empty")
    reports = harness.sweep_experiment(cfg, args.param, values, workers=args.workers)
    _emit(harness.write_report(reports, args.format, None), args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrecodingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
