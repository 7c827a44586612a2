"""The benchmark's workloads: which problems and optimizer runs make one cycle.

A cycle is a fixed list of runs. The timed loop repeats it, so every run in
a cycle recurs with the same inputs and must reproduce its trace exactly.
Problem data use the problem's own seed (0, the library default); the
workload seed given on the command line only picks the run seeds, which
drive parameter init and batch shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from salsa_opt import Problem, build_problem


@dataclass(frozen=True)
class RunSpec:
    """One ``run_single`` call, optionally followed by ``replay_verify``."""

    label: str
    optimizer: dict
    run_seed: int
    epochs: int
    batch_size: int
    frequency_controller: bool = False
    replay: bool = False


@dataclass
class Workload:
    name: str
    problem: Problem
    runs: list[RunSpec] = field(default_factory=list)


# name -> (problem config, [(label, optimizer, frequency controller)],
#          epochs, batch size, replay each run, runs per config per cycle)
#
# quad-search: overhead-bound. dataset_size is 1, so every step is a new
#   epoch and rebuilds the Philox sampler; loss_grad is a small share of a
#   step. 300 steps stays well short of the ~440 steps at which the Adam
#   kinds reach the tiny-gradient guard, so every step searches.
# mlp-search: eval-bound; about two loss_grad calls per step, controller off.
# logreg-skip: the frequency controller's skip path, with fixed-lr Adam on a
#   warmup-cosine schedule as the no-search reference.
# matfac-replay: the read side. Each run is re-verified by replay_verify.
SPECS = {
    "quad-search": (
        {"kind": "quadratic", "dim": 50, "cond": 1e4},
        [(k, {"kind": k}, False)
         for k in ("sgd_sls", "sgd_salsa", "adam_sls", "adam_salsa")],
        300, 1, False, 32),
    "mlp-search": (
        {"kind": "mlp", "n": 4000, "in_dim": 10, "hidden": 16},
        [(k, {"kind": k}, False) for k in ("sgd_sls", "adam_salsa")],
        1, 32, False, 16),
    "logreg-skip": (
        {"kind": "logreg", "n": 5000, "dim": 50, "label_noise": 0.1},
        [("adam_salsa", {"kind": "adam_salsa"}, True),
         ("sgd_salsa", {"kind": "sgd_salsa"}, True),
         ("adam", {"kind": "adam", "peak_lr": 0.01,
                   "schedule": "cosine_warmup"}, False)],
        2, 32, False, 8),
    "matfac-replay": (
        {"kind": "matrix_factorization", "rows": 40, "cols": 30, "rank": 3},
        [("adam_sls", {"kind": "adam_sls"}, False)],
        2, 32, True, 24),
}

NAMES = tuple(SPECS)


def run_seeds(workload_seed: int, n: int) -> list[int]:
    """The run seeds of one cycle, derived from the workload seed."""
    return [workload_seed * 1000 + i for i in range(n)]


def build(name: str, workload_seed: int) -> Workload:
    """Construct the workload's problem and its cycle of runs.

    Every run gets its own run seed and the configurations take turns, so
    the cycle's mean final loss averages over independent starting points.
    """
    problem_cfg, configs, epochs, batch_size, replay, per_config = SPECS[name]
    wl = Workload(name=name, problem=build_problem(problem_cfg))
    seeds = run_seeds(workload_seed, per_config * len(configs))
    for i, run_seed in enumerate(seeds):
        label, optimizer, fc = configs[i % len(configs)]
        wl.runs.append(RunSpec(label=label, optimizer=optimizer,
                               run_seed=run_seed, epochs=epochs,
                               batch_size=batch_size,
                               frequency_controller=fc, replay=replay))
    return wl
