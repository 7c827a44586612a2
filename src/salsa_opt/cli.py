"""Command-line experiment runner.

Subcommands: run, compare, scaling, freq-ablation, check-grad. Configs are
JSON documents mirroring the harness dataclasses; outputs are CSV or JSON
and byte-identical across repeated invocations.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .harness import ConfigError, ExperimentConfig, batch_scaling_experiment, \
    build_problem, compare, emit, frequency_ablation, render, run_experiment, \
    summarize
from .problems import finite_diff_grad
from .core import seeded_rng


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e


def _require(cfg: dict, keys: set, where: str) -> None:
    missing = keys - set(cfg)
    if missing:
        raise ConfigError(f"{where} config missing fields: {sorted(missing)}")


def _reject_unknown(cfg: dict, used: set, where: str) -> None:
    """Raise on any key of ``cfg`` the command does not use."""
    extra = set(cfg) - used
    if extra:
        raise ConfigError(f"unknown {where} config fields: {sorted(extra)}")


def _cmd_run(args) -> int:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    if args.out is not None:
        raw["out"] = args.out
    cfg = ExperimentConfig.from_dict(raw)
    traces = run_experiment(cfg)
    if cfg.out is None:
        if len(traces) > 1:
            raise ConfigError("multiple seeds need --out (or 'out' in config)")
        return _finish(traces[0], args)
    out = Path(cfg.out)
    for seed, trace in zip(cfg.seeds, traces):
        path = out if len(traces) == 1 else \
            out.with_name(f"{out.stem}_seed{seed}{out.suffix}")
        emit(trace, args.format, str(path))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seeds"] = [args.seed]
    _require(raw, {"problems", "optimizers"}, "compare")
    # the run settings every (problem, optimizer) pair shares
    shared = {f.name: raw[f.name] for f in fields(ExperimentConfig)
              if f.name in raw and f.name not in ("problem", "optimizer")}
    _reject_unknown(raw, {*shared, "problems", "optimizers"}, "compare")
    summaries = []
    for prob_spec in raw["problems"]:
        problem = build_problem(prob_spec)
        for opt in raw["optimizers"]:
            cfg = ExperimentConfig.from_dict(
                {**shared, "problem": prob_spec, "optimizer": opt})
            traces = run_experiment(cfg)
            summaries.append(summarize(opt["kind"], problem.name, traces))
    table = compare(summaries)
    return _finish(table, args)


def _run_study(study, args) -> int:
    """The scaling and freq-ablation commands: run ``study`` on the config's
    problem, passing only the study's arguments the config sets (the rest
    keep the study's defaults), and ``--seed`` as the only seed."""
    raw = _load_config(args.config)
    _require(raw, {"problem"}, args.command)
    kwargs = {k: raw[k] for k in inspect.signature(study).parameters
              if k in raw}
    _reject_unknown(raw, set(kwargs), args.command)
    kwargs["problem"] = build_problem(raw["problem"])
    if args.seed is not None:
        kwargs["seeds"] = (args.seed,)
    return _finish(study(**kwargs), args)


def _cmd_check_grad(args) -> int:
    raw = _load_config(args.config)
    _reject_unknown(raw, {"problem", "problems", "points", "h"}, "check-grad")
    if "problems" in raw:
        specs = raw["problems"]
    elif "problem" in raw:
        specs = [raw["problem"]]
    else:
        raise ConfigError("check-grad config needs 'problem' or 'problems'")
    points = raw.get("points", 10)
    if isinstance(points, bool) or not isinstance(points, int):
        raise ConfigError(f"check-grad 'points' must be an integer, "
                          f"got {points!r}")
    if points < 1:
        raise ConfigError(f"check-grad 'points' must be >= 1, got {points}")
    h = raw.get("h", 1e-5)
    if (isinstance(h, bool) or not isinstance(h, (int, float))
            or not math.isfinite(h) or h <= 0):
        raise ConfigError(f"check-grad 'h' must be a finite number > 0, "
                          f"got {h!r}")
    worst_overall = 0.0
    for spec in specs:
        problem = build_problem(spec)
        worst = 0.0
        for i in range(points):
            w = problem.init_params(1000 + i)
            w = w + 0.1 * seeded_rng(2000 + i).standard_normal(problem.dim)
            analytic = problem.loss_grad(w, problem.full_indices()).grad
            fd = finite_diff_grad(problem, w, h)
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            worst = max(worst, float(np.linalg.norm(analytic - fd)) / denom)
        status = "ok" if worst <= args.tol else "FAIL"
        print(f"{problem.name}: max rel err {worst:.3e} [{status}]")
        worst_overall = max(worst_overall, worst)
    return 0 if worst_overall <= args.tol else 1


def _finish(report, args) -> int:
    if args.out is None:
        sys.stdout.write(render(report, args.format))
    else:
        emit(report, args.format, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salsa-opt",
        description="Line-search optimizer experiments on desk-scale problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("run", help="run one experiment, emit traces"))
    common(sub.add_parser("compare", help="rank optimizers across problems"))
    common(sub.add_parser("scaling", help="step size vs batch size study"))
    common(sub.add_parser("freq-ablation",
                          help="frequency controller on/off comparison"))
    pc = sub.add_parser("check-grad", help="verify analytic gradients")
    pc.add_argument("--config", required=True)
    pc.add_argument("--tol", type=float, default=1e-4)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "scaling": partial(_run_study, batch_scaling_experiment),
    "freq-ablation": partial(_run_study, frequency_ablation),
    "check-grad": _cmd_check_grad,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
