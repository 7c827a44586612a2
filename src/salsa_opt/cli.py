"""Command-line experiment runner.

Subcommands: run, compare, scaling, freq-ablation, check-grad. A config's
keys are the arguments of the one checked function it feeds
(``run_experiment``, a study, or ``gradient_errors``), which checks them;
outputs are CSV or JSON and byte-identical across repeated invocations.
Exit status: 0, 1 for a bad gradient, 2 for a config or I/O error, 3 for a
run that is not ok, named on stderr; its trace or report is still written.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .core import ConfigError, call_keys, check_keys, check_value, \
    checked_arguments, seeded_rng
from .harness import batch_scaling_experiment, build_problem, \
    compare_optimizers, emit, frequency_ablation, render, run_experiment
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
    """The run command: ``run_experiment`` called with the config's keys,
    which it checks; several seeds need ``--out``, one file per seed."""
    raw = _load_config(args)
    check_keys(raw, *call_keys(run_experiment), args.command)
    seeds = raw["seeds"]
    if args.out is None and isinstance(seeds, list) and len(seeds) > 1:
        raise ConfigError("multiple seeds need --out")
    results = run_experiment(**raw)
    path = None if args.out is None else Path(args.out)
    for seed, result in zip(seeds, results):
        out = path if len(results) == 1 else \
            path.with_name(f"{path.stem}_seed{seed}{path.suffix}")
        _finish(result.trace, args, out, [f"seed {seed}: {result.status}"]
                if result.status != "ok" else [])
    return 3 if any(result.status != "ok" for result in results) else 0


def _run_study(study, args) -> int:
    """The compare, scaling and freq-ablation commands: call ``study`` with
    the arguments the config sets (the rest keep the study's defaults),
    its ``problem``, when it has one, built from its problem config, and
    ``--seed`` as the only seed. The study checks its arguments."""
    raw = _load_config(args)
    check_keys(raw, *call_keys(study), args.command)
    if "problem" in raw:
        raw["problem"] = build_problem(raw["problem"])
    report = study(**raw)
    return _finish(report, args, args.out, report.not_ok)


@checked_arguments(points=">= 1", h="> 0")
def gradient_errors(problems: list[dict], points: int = 10,
                    h: float = 1e-5) -> list[tuple[str, float]]:
    """Each problem's name and the largest relative error of its analytic
    gradient against finite differences with step ``h`` at ``points``
    seeded points; every problem is built before the first is checked."""
    errors = []
    for problem in [build_problem(spec) for spec in problems]:
        errs = []
        for i in range(points):
            w = problem.init_params(1000 + i)
            w = w + 0.1 * seeded_rng(2000 + i).standard_normal(problem.dim)
            analytic = problem.loss_grad(w, problem.full_indices()).grad
            fd = finite_diff_grad(problem, w, h)
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            errs.append(float(np.linalg.norm(analytic - fd)) / denom)
        # np.max keeps a NaN: it is the worst
        errors.append((problem.name, float(np.max(errs))))
    return errors


def _cmd_check_grad(args) -> int:
    tol = check_value("tol", args.tol, float, "> 0")
    raw = _load_config(args)
    check_keys(raw, *call_keys(gradient_errors), args.command)
    errors = gradient_errors(**raw)
    for name, worst in errors:
        print(f"{name}: max rel err {worst:.3e} "
              f"[{'ok' if worst <= tol else 'FAIL'}]")
    return 0 if all(worst <= tol for _, worst in errors) else 1


def _finish(report, args, out, not_ok: list[str]) -> int:
    """Write ``report`` in ``--format`` to ``out``, or to stdout if None,
    then each ``not_ok`` line to stderr; the exit status, 3 if any."""
    if out is None:
        sys.stdout.write(render(report, args.format))
    else:
        emit(report, args.format, str(out))
        print(f"wrote {out}", file=sys.stderr)
    for line in not_ok:
        print(line, file=sys.stderr)
    return 3 if not_ok else 0


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
    "compare": partial(_run_study, compare_optimizers),
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
