"""Command-line experiment runner.

Subcommands: run, compare, scaling, freq-ablation, check-grad. Configs are
JSON documents mirroring the harness dataclasses; outputs are CSV or JSON
and byte-identical across repeated invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .core import ConfigError, call_keys, check_fields, check_keys, \
    check_value, config_from_dict, seeded_rng
from .harness import ExperimentConfig, batch_scaling_experiment, \
    build_problem, check_optimizer, compare, emit, frequency_ablation, \
    render, run_experiment, run_single, summarize
from .problems import finite_diff_grad


def _load_config(args) -> dict:
    """The command's config file as a JSON object, its seeds replaced by
    ``--seed`` when given."""
    path = args.config
    try:
        with open(path) as f:
            raw = check_value(f"config {path}", json.load(f), dict)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if getattr(args, "seed", None) is not None:
        raw["seeds"] = [args.seed]
    return raw


def _cmd_run(args) -> int:
    raw = _load_config(args)
    if args.out is not None:
        raw["out"] = args.out
    cfg = ExperimentConfig.from_dict(raw, "run")
    if cfg.out is None and len(cfg.seeds) > 1:
        raise ConfigError("multiple seeds need --out (or 'out' in config)")
    traces = run_experiment(cfg)
    if cfg.out is None:
        return _finish(traces[0], args)
    out = Path(cfg.out)
    for seed, trace in zip(cfg.seeds, traces):
        path = out if len(traces) == 1 else \
            out.with_name(f"{out.stem}_seed{seed}{out.suffix}")
        emit(trace, args.format, str(path))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    raw = _load_config(args)
    lists = ("problems", "optimizers")
    # the run settings every (problem, optimizer) pair shares
    shared = {f.name: raw[f.name] for f in fields(ExperimentConfig)
              if f.name in raw and f.name not in ("problem", "optimizer",
                                                  "out")}
    check_keys(raw, {*shared, *lists}, lists, "compare")
    problems, optimizers = (check_value(k, raw[k], list[dict]) for k in lists)
    # every pair is checked before the first one runs; the table labels a
    # pair by problem name and optimizer kind, so each label is used once
    pairs = {}
    for prob_spec in problems:
        problem = build_problem(prob_spec)
        for opt in optimizers:
            cfg = ExperimentConfig.from_dict(
                {**shared, "problem": prob_spec, "optimizer": opt}, "compare")
            check_optimizer(problem, cfg.optimizer, cfg.epochs,
                            cfg.batch_size)
            label = (problem.name, cfg.optimizer["kind"])
            if label in pairs:
                raise ConfigError(f"compare config repeats the pair "
                                  f"({label[0]}, {label[1]})")
            pairs[label] = problem, cfg
    table = compare([summarize(kind, name, [
        run_single(problem, cfg.optimizer, seed, cfg.epochs, cfg.batch_size,
                   cfg.frequency_controller).trace for seed in cfg.seeds])
        for (name, kind), (problem, cfg) in pairs.items()])
    return _finish(table, args)


def _run_study(study, args) -> int:
    """The scaling and freq-ablation commands: run ``study`` on the config's
    problem, passing only the study's arguments the config sets (the rest
    keep the study's defaults), and ``--seed`` as the only seed. The study
    checks its arguments."""
    raw = _load_config(args)
    check_keys(raw, *call_keys(study), args.command)
    kwargs = {**raw, "problem": build_problem(raw["problem"])}
    return _finish(study(**kwargs), args)


@dataclass
class CheckGradConfig:
    """One problem or a list of them, the number of random points to compare
    at, and the finite-difference step."""

    problem: dict | None = None
    problems: list[dict] | None = None
    points: int = field(default=10, metadata={"range": ">= 1"})
    h: float = field(default=1e-5, metadata={"range": "> 0"})

    def __post_init__(self):
        check_fields(self)
        if (self.problem is None) == (self.problems is None):
            raise ConfigError("check-grad config needs 'problem' or "
                              "'problems', one of the two")


def _cmd_check_grad(args) -> int:
    tol = check_value("tol", args.tol, float, "> 0")
    cfg = config_from_dict(CheckGradConfig, _load_config(args), "check-grad")
    failed = False
    for problem in [build_problem(spec)
                    for spec in cfg.problems or [cfg.problem]]:
        errs = []
        for i in range(cfg.points):
            w = problem.init_params(1000 + i)
            w = w + 0.1 * seeded_rng(2000 + i).standard_normal(problem.dim)
            analytic = problem.loss_grad(w, problem.full_indices()).grad
            fd = finite_diff_grad(problem, w, cfg.h)
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            errs.append(float(np.linalg.norm(analytic - fd)) / denom)
        worst = float(np.max(errs))  # np.max keeps a NaN: it is the worst
        status = "ok" if worst <= tol else "FAIL"
        print(f"{problem.name}: max rel err {worst:.3e} [{status}]")
        failed = failed or status == "FAIL"
    return 1 if failed else 0


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
