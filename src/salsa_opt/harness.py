"""Experiment runner: multi-seed comparisons, trace replay checks, and the
batch-scaling / search-frequency studies.

A run is fully determined by (config, seed): problem data come from the
problem config's own seed, while the run seed drives the parameter init
and the batch shuffling. Reported "final loss" is the training loss
smoothed by an EMA with factor 0.99.
"""

from __future__ import annotations

import math
import typing
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import ScheduleConfig, fixed_adam_step, fixed_sgd_step, \
    schedule_lr
from .core import ConfigError, ParamVector, TrainingTrace, axpy, call_keys, \
    canonical_json, check_keys, check_value, checked_arguments, field_rules
from .directions import _HYPER, AdamState
from .frequency import FrequencyController
from .line_search import SlsConfig, SlsState, apply_without_search, sls_step
from .problems import BatchSampler, Problem, batch_for_step, make_logreg, \
    make_matrix_factorization, make_mlp, make_quadratic, problem_from_csv
from .salsa import SalsaConfig, salsa_adam_step, salsa_sgd_step

OPTIMIZER_KINDS = ("sgd", "adam", "sgd_sls", "adam_sls", "sgd_salsa",
                   "adam_salsa")
LINE_SEARCH_KINDS = ("sgd_sls", "adam_sls", "sgd_salsa", "adam_salsa")
REPORT_SMOOTHING = 0.99
# how far replay lets an accepted step miss its criterion (rounding)
REPLAY_SLACK = 1e-9


# The runs and studies check their arguments as the problem factories do;
# one named here takes this range.
_STUDY_RANGES = {"epochs": ">= 0", "batch_size": ">= 1"}


_PROBLEM_BUILDERS = {
    "quadratic": make_quadratic,
    "logreg": make_logreg,
    "mlp": make_mlp,
    "matrix_factorization": make_matrix_factorization,
    "csv": problem_from_csv,
}


def build_problem(problem_config: dict) -> Problem:
    """Instantiate a problem from its config dict: its ``kind`` and the
    factory's arguments. A value the factory rejects raises ConfigError."""
    params = dict(check_value("problem", problem_config, dict))
    kind = check_value("problem kind", params.pop("kind", None), str,
                       tuple(_PROBLEM_BUILDERS))
    check_keys(params, *call_keys(_PROBLEM_BUILDERS[kind]), f"{kind} problem")
    try:
        return _PROBLEM_BUILDERS[kind](**params)
    except ValueError as e:
        raise ConfigError(f"bad {kind} parameters: {e}") from e


# each fixed-rate optimizer key, as the ScheduleConfig field it sets
_SCHEDULE_KEYS = {"lr": "peak_lr", "peak_lr": "peak_lr",
                  "warm_frac": "warm_frac", "schedule": "schedule"}


@dataclass(frozen=True)
class _Optimizer:
    """An optimizer dict, checked: kind, search ("", "sls", "salsa") and its
    config, the Adam keys set (None on sgd), and all its keys in order."""

    kind: str
    search: str
    cfg: SlsConfig | None
    adam: dict | None
    config: dict

    def schedule_for(self, total: int) -> ScheduleConfig | None:
        """A fixed rate's schedule for ``total`` steps; None for a search."""
        return None if self.cfg is not None else ScheduleConfig(
            total_steps=max(total, 1), **{_SCHEDULE_KEYS[key]: value for
                                          key, value in self.config.items()
                                          if key in _SCHEDULE_KEYS})


def _optimizer(optimizer: dict, kinds=OPTIMIZER_KINDS,
               name: str = "optimizer kind") -> _Optimizer:
    """The one reader of an optimizer dict. It checks the kind (as ``name``),
    keys, search config or schedule fields, then Adam's; copies no default."""
    kind = check_value(name, optimizer.get("kind"), str, kinds)
    base, _, search = kind.partition("_")
    cfg_cls = {"sls": SlsConfig, "salsa": SalsaConfig}.get(search)
    own = call_keys(cfg_cls)[0] if cfg_cls else tuple(_SCHEDULE_KEYS)
    adam_keys = _HYPER if base == "adam" else ()
    check_keys(optimizer, ("kind", *own, *adam_keys), (), f"{kind} optimizer")
    values = {key: optimizer[key] for key in own if key in optimizer}
    cfg = cfg_cls(**values) if cfg_cls else None
    if cfg is not None:
        values = {key: getattr(cfg, key) for key in values}
    elif "lr" in values and "peak_lr" in values:
        raise ConfigError(f"{kind} takes 'lr' or 'peak_lr', not both")
    else:
        values = {key: check_value(key, value, *field_rules(ScheduleConfig)[
            _SCHEDULE_KEYS[key]]) for key, value in values.items()}
        if not values.keys() & {"lr", "peak_lr"}:
            raise ConfigError(f"{kind} needs 'lr' or 'peak_lr'")
    adam = {key: check_value(key, optimizer[key], *field_rules(AdamState)[key])
            for key in adam_keys if key in optimizer}
    values.update(adam, kind=kind)
    return _Optimizer(kind, search, cfg, adam if base == "adam" else None,
                      {key: values[key] for key in optimizer})


def _run_length(problem: Problem, epochs: int, batch_size: int) -> int:
    return epochs * BatchSampler(0, batch_size,
                                 problem.dataset_size).batches_per_epoch


@dataclass
class RunResult:
    """A run's trace, its parameters after the last step, and its status:
    "ok", or "diverged at k" when record k, the last, holds a non-finite
    loss or gradient norm, or its step left non-finite parameters."""

    trace: TrainingTrace
    final_params: ParamVector
    status: str


@checked_arguments(**_STUDY_RANGES)
def run_single(problem: Problem, optimizer: dict, seed: int, epochs: int,
               batch_size: int,
               frequency_controller: bool = False) -> RunResult:
    """One deterministic run. A run of no steps records one no-search step
    at its start and drops its update. It stops after the first record
    whose loss or gradient norm is not finite, as its status says, with
    no numpy warning. Every argument is checked (the optimizer dict read
    once) before the first evaluation."""
    return _run(problem, _optimizer(optimizer), seed, epochs, batch_size,
                frequency_controller)


def _run(problem: Problem, opt: _Optimizer, seed: int, epochs: int,
         batch_size: int, frequency_controller: bool = False) -> RunResult:
    """``run_single`` on an optimizer checked before the first run."""
    sampler = BatchSampler(seed, batch_size, problem.dataset_size)
    total, cfg = epochs * sampler.batches_per_epoch, opt.cfg
    schedule = opt.schedule_for(total)
    adam = None if opt.adam is None else \
        AdamState.zeros(problem.dim, **opt.adam)
    state = SlsState(eta=schedule.peak_lr if cfg is None else cfg.eta_init,
                     adam=adam)
    # each step takes (batch, w, state, cfg); bound once per run, after any
    # swap of this module's bindings
    if cfg is None:
        fixed_step = fixed_sgd_step if adam is None else fixed_adam_step

        def step(batch, w, state, cfg):
            state.eta = schedule_lr(schedule, state.k)
            return fixed_step(batch, w, state)
    else:
        step = sls_step if opt.search == "sls" else \
            salsa_sgd_step if adam is None else salsa_adam_step
    w = problem.init_params(seed)
    controller = FrequencyController() \
        if frequency_controller and cfg is not None else None
    trace = TrainingTrace(metadata={})
    batch_for, skip = batch_for_step, apply_without_search
    append, finite = trace.append, math.isfinite
    with np.errstate(all="ignore"):
        for k in range(total):
            batch = batch_for(problem, sampler, k)
            if controller is None:
                w, rec = step(batch, w, state, cfg)
            elif not controller.should_search():
                w, rec = skip(batch, w, state)
                controller.record_skip()
            else:
                w, rec = step(batch, w, state, cfg)
                # a give-up counts as a skip, so the next step searches
                if rec.searched and not rec.gave_up:
                    controller.record_search(rec.eta)
                else:
                    controller.record_skip()
            append(rec)
            if not (finite(rec.loss) and finite(rec.grad_norm_sq)):
                break
        if total == 0:
            append(skip(batch_for(problem, sampler, 0), w, state)[1])
    last = trace.records[-1]
    ok = finite(last.loss) and finite(last.grad_norm_sq) and \
        np.isfinite(w).all()
    return RunResult(trace, w, "ok" if ok else f"diverged at {last.k}")


@checked_arguments(**_STUDY_RANGES)
def run_experiment(problem: dict, optimizer: dict, seeds: list[int],
                   epochs: int, batch_size: int,
                   frequency_controller: bool = False) -> list[RunResult]:
    """One run per seed of a problem config and an optimizer dict,
    reproducible bit-exactly. Every argument is checked, the optimizer
    read once and then the problem built, before the first run."""
    opt = _optimizer(optimizer)
    built = build_problem(problem)
    results = [_run(built, opt, seed, epochs, batch_size,
                    frequency_controller) for seed in seeds]
    # the metadata keeps the configs' keys with their values as checked:
    # configs that differ only in how a number is written write one file
    hints = typing.get_type_hints(_PROBLEM_BUILDERS[problem["kind"]])
    snapshot = {
        "problem": {key: check_value(key, value, hints[key]) if key in hints
                    else value for key, value in problem.items()},
        "optimizer": opt.config,
        "epochs": epochs,
        "batch_size": batch_size,
        "frequency_controller": frequency_controller,
    }
    for seed, result in zip(seeds, results):
        result.trace.metadata = {
            "optimizer": opt.kind,
            "problem": built.name,
            "seed": seed,
            "config": snapshot,
        }
    return results


def final_smoothed_loss(trace: TrainingTrace) -> float:
    """Final value of the REPORT_SMOOTHING EMA over the per-step losses."""
    if not trace.records:
        raise ValueError("empty trace")
    beta = REPORT_SMOOTHING
    ema = trace.records[0].loss
    for r in trace.records[1:]:
        ema = beta * ema + (1.0 - beta) * r.loss
    return ema


def _reported(result: RunResult, run: str, not_ok: list, *measures) -> list:
    """Each of ``measures`` (trace -> number) of an ``ok`` run, else NaN for
    each and ``"<run>: <status>"`` in ``not_ok``: a study's per-run numbers."""
    if result.status == "ok":
        return [measure(result.trace) for measure in measures]
    not_ok.append(f"{run}: {result.status}")
    return [math.nan] * len(measures)


@dataclass
class ComparisonTable:
    """Per-problem mean losses per optimizer plus the three summary rows."""

    problems: list
    optimizers: list
    losses: dict          # (problem, optimizer) -> mean final loss
    arithmetic_mean: dict  # optimizer -> value
    log_mean: dict
    average_rank: dict
    not_ok: list[str] = field(default_factory=list)   # not written

    def to_csv(self) -> str:
        lines = ["problem," + ",".join(self.optimizers)]
        for p in self.problems:
            lines.append(p + "," + ",".join(
                repr(self.losses[(p, o)]) for o in self.optimizers))
        for label, row in (("arithmetic_mean", self.arithmetic_mean),
                           ("log_mean", self.log_mean),
                           ("average_rank", self.average_rank)):
            lines.append(label + "," + ",".join(
                repr(row[o]) for o in self.optimizers))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "problems": self.problems,
            "optimizers": self.optimizers,
            "losses": {p: {o: self.losses[(p, o)] for o in self.optimizers}
                       for p in self.problems},
            "arithmetic_mean": self.arithmetic_mean,
            "log_mean": self.log_mean,
            "average_rank": self.average_rank,
        }
        return canonical_json(payload)


def compare(losses: dict) -> ComparisonTable:
    """Cross-problem comparison of ``losses``, ``{(problem, optimizer):
    loss}``, with ranks (ties averaged), rows and columns in first-seen key
    order; a mapping that misses a (problem, optimizer) raises ConfigError.

    A NaN loss (a run that is not ok) ranks last on its problem, with a
    warning; the arithmetic and log means keep it. The log mean is the
    geometric mean exp(mean(ln loss)); any optimizer with a non-positive
    loss falls back to its arithmetic mean, with a warning, since the
    geometric mean is undefined there.
    """
    problems = list(dict.fromkeys(p for p, _ in losses))
    optimizers = list(dict.fromkeys(o for _, o in losses))
    missing = [f"({p}, {o})" for p in problems for o in optimizers
               if (p, o) not in losses]
    if missing:
        raise ConfigError(f"losses do not cover the same problem set: "
                          f"missing {missing[0]}")

    arith, logm, rank_rows = {}, {}, []
    for p in problems:
        row = np.array([losses[(p, o)] for o in optimizers])
        diverged = np.isnan(row)
        if diverged.any():
            warnings.warn(
                f"NaN loss on {p} for "
                f"{[o for o, d in zip(optimizers, diverged) if d]}; "
                f"ranked last")
            row[diverged] = np.inf
        # (places below + places up to and including + 1) / 2: ties share
        # the mean of their places, and a NaN, now inf, ranks last
        rank_rows.append(((row < row[:, None]).sum(1)
                          + (row <= row[:, None]).sum(1) + 1) / 2)
    ranks = np.mean(rank_rows, axis=0)
    for o in optimizers:
        vals = np.array([losses[(p, o)] for p in problems])
        arith[o] = float(np.mean(vals))
        if np.any(vals <= 0):
            warnings.warn(
                f"non-positive loss for {o}; log mean falls back to arithmetic")
            logm[o] = arith[o]
        else:
            logm[o] = float(np.exp(np.mean(np.log(vals))))
    return ComparisonTable(problems=problems, optimizers=optimizers,
                           losses=dict(losses), arithmetic_mean=arith,
                           log_mean=logm, average_rank={
                               o: float(r) for o, r in zip(optimizers, ranks)})


@checked_arguments(**_STUDY_RANGES)
def compare_optimizers(problems: list[dict], optimizers: list[dict],
                       seeds: list[int], epochs: int, batch_size: int,
                       frequency_controller: bool = False) -> ComparisonTable:
    """Every optimizer on every problem config, run once per seed, as one
    ``compare`` table; each optimizer is read and each problem built once,
    and every pair checked, before the first run. A cell, labelled by
    problem name and optimizer kind (a repeated label raises ConfigError),
    is its seeds' mean final smoothed loss, or NaN if a run is not ok."""
    checked = [_optimizer(optimizer) for optimizer in optimizers]
    pairs = {}
    for spec in problems:
        problem = build_problem(spec)
        for opt in checked:
            opt.schedule_for(_run_length(problem, epochs, batch_size))
            label = (problem.name, opt.kind)
            if label in pairs:
                raise ConfigError(f"compare config repeats the pair "
                                  f"({label[0]}, {label[1]})")
            pairs[label] = problem, opt
    cells, not_ok = {}, []
    for (name, kind), (problem, opt) in pairs.items():
        cells[(name, kind)] = float(np.mean([_reported(_run(
            problem, opt, seed, epochs, batch_size, frequency_controller),
            f"{name} {kind} seed {seed}", not_ok, final_smoothed_loss)[0]
            for seed in seeds]))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "NaN loss on ")
        return replace(compare(cells), not_ok=not_ok)


def _mean_mid_eta(trace: TrainingTrace) -> float:
    """The mean step size over the middle half of a run (at least one step)."""
    etas, n = np.array([r.eta for r in trace.records]), len(trace.records)
    return float(np.mean(etas[n // 4:max(n // 4 + 1, 3 * n // 4)]))


@dataclass
class ScalingReport:
    """Mean mid-run step size per batch size, and the h/s series."""

    batch_sizes: list
    mean_mid_eta: dict        # batch size -> mean step size, mid-training
    ratios: list              # (bs_from, bs_to, ratio)
    h_series: dict            # (batch_size, seed) -> list
    s_series: dict
    not_ok: list[str]         # not written

    def to_csv(self) -> str:
        lines = ["batch_size,mean_mid_eta,ratio_vs_prev"]
        ratios = [""] + [repr(r) for _, _, r in self.ratios]
        for bs, ratio in zip(self.batch_sizes, ratios):
            lines.append(f"{bs},{self.mean_mid_eta[bs]!r},{ratio}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "batch_sizes": self.batch_sizes,
            "mean_mid_eta": {str(b): v for b, v in self.mean_mid_eta.items()},
            "ratios": [{"from": a, "to": b, "ratio": r}
                       for a, b, r in self.ratios],
            "h_series": {f"{b}:{s}": list(v)
                         for (b, s), v in self.h_series.items()},
            "s_series": {f"{b}:{s}": list(v)
                         for (b, s), v in self.s_series.items()},
        }
        return canonical_json(payload)


@checked_arguments(**_STUDY_RANGES, batch_sizes=">= 1")
def batch_scaling_experiment(problem: Problem, optimizer: dict | None = None,
                             batch_sizes: tuple[int, ...] = (4, 8, 16, 32),
                             seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                             epochs: int = 4) -> ScalingReport:
    """Step-size vs batch-size study.

    Runs the (by default) adam_salsa optimizer at each batch size and
    reports the mean accepted step size over the middle half of each run,
    averaged over seeds, together with the consecutive-doubling ratios and
    the per-run smoothed h/s series. The optimizer is read once and
    checked at every batch size before the first run. A run that is not ok
    gives NaN for its batch size's mean; its h/s series keep its records.
    """
    opt = _optimizer({"kind": "adam_salsa"} if optimizer is None
                     else optimizer)
    for bs in batch_sizes:
        opt.schedule_for(_run_length(problem, epochs, bs))
    smoothed = opt.search == "salsa"
    mean_eta, h_runs, s_runs, not_ok = {}, {}, {}, []
    for bs in batch_sizes:
        per_seed = []
        for seed in seeds:
            result = _run(problem, opt, seed, epochs, bs)
            records = result.trace.records
            per_seed += _reported(
                result, f"{problem.name} {opt.kind} batch {bs} seed {seed}",
                not_ok, _mean_mid_eta)
            h_runs[(bs, seed)] = [r.h for r in records] if smoothed else []
            s_runs[(bs, seed)] = [r.s for r in records] if smoothed else []
        mean_eta[bs] = float(np.mean(per_seed))
    ratios = [(a, b, mean_eta[b] / mean_eta[a])
              for a, b in zip(batch_sizes, batch_sizes[1:])]
    return ScalingReport(batch_sizes=list(batch_sizes), mean_mid_eta=mean_eta,
                         ratios=ratios, h_series=h_runs, s_series=s_runs,
                         not_ok=not_ok)


@dataclass
class AblationReport:
    """Final loss and searched fraction, frequency controller on and off."""

    seeds: list
    final_loss_on: list
    final_loss_off: list
    searched_fraction_on: float
    searched_fraction_off: float
    mean_delta: float          # mean(on) - mean(off)
    pooled_se: float
    not_ok: list[str]          # not written

    def to_csv(self) -> str:
        lines = ["seed,final_loss_controller_on,final_loss_controller_off"]
        for s, a, b in zip(self.seeds, self.final_loss_on, self.final_loss_off):
            lines.append(f"{s},{a!r},{b!r}")
        lines.append(f"mean_delta,{self.mean_delta!r},")
        lines.append(f"pooled_se,{self.pooled_se!r},")
        lines.append(f"searched_fraction,{self.searched_fraction_on!r},"
                     f"{self.searched_fraction_off!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return canonical_json({key: value for key, value in
                               asdict(self).items() if key != "not_ok"})


def _pooled_se(a: list, b: list) -> float:
    return float(np.sqrt(sum(np.var(x, ddof=1) / len(x) if len(x) > 1
                             else 0.0 for x in (a, b))))


@checked_arguments(**_STUDY_RANGES)
def frequency_ablation(problem: Problem,
                       seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                       optimizer: dict | None = None, epochs: int = 3,
                       batch_size: int = 32) -> AblationReport:
    """Paired runs with and without the frequency controller.

    Batch streams are identical within a pair (same run seed), so the only
    difference is how often the search runs. The optimizer must be a
    line-search kind, read once: the controller only skips searches. A run
    that is not ok gives NaN for its final loss and its searched fraction.
    """
    opt = _optimizer({"kind": "adam_salsa"} if optimizer is None
                     else optimizer, LINE_SEARCH_KINDS,
                     "frequency_ablation optimizer kind")
    numbers, not_ok = [], []
    for seed in seeds:
        for switch in ("on", "off"):
            numbers += _reported(
                _run(problem, opt, seed, epochs, batch_size,
                     frequency_controller=switch == "on"),
                f"{problem.name} {opt.kind} controller {switch} seed {seed}",
                not_ok, final_smoothed_loss,
                lambda trace: np.mean([r.searched for r in trace.records]))
    # per seed: final loss and searched fraction, controller on then off
    on, frac_on, off, frac_off = (numbers[i::4] for i in range(4))
    return AblationReport(
        seeds=list(seeds), final_loss_on=on, final_loss_off=off,
        searched_fraction_on=float(np.mean(frac_on)),
        searched_fraction_off=float(np.mean(frac_off)),
        mean_delta=float(np.mean(on) - np.mean(off)),
        pooled_se=_pooled_se(on, off), not_ok=not_ok)


def render(obj, format: str) -> str:
    """A trace or report as CSV or JSON text; bit-stable per input."""
    check_value("format", format, str, ("csv", "json"))
    return obj.to_csv() if format == "csv" else obj.to_json()


def emit(obj, format: str, path: str) -> None:
    """Write a trace or report as CSV or JSON; bit-stable per input."""
    try:
        Path(path).write_text(render(obj, format), newline="\n")
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


# ---------------------------------------------------------------------------
# trace replay verification


@dataclass
class ReplayReport:
    n_steps: int
    n_searched: int
    n_checked: int
    violations: list          # (k, lhs, rhs) triples that broke the criterion
    max_violation: float      # worst positive violation observed (0 if none)

    @property
    def ok(self) -> bool:
        return not self.violations


@checked_arguments(**_STUDY_RANGES)
def replay_verify(problem: Problem, optimizer: dict, seed: int, epochs: int,
                  batch_size: int, trace: TrainingTrace,
                  frequency_controller: bool = False) -> ReplayReport:
    """Re-run a configuration and confirm every accepted search step.

    The run is repeated on a copy of ``problem`` whose ``loss_grad``
    records the point of each gradient evaluation. Every step makes exactly
    one, at the point it starts from, so these are the run's base points.
    From there everything else (gradients, Adam's second moment, smoothing
    EMAs, both sides of the criterion at the recorded step size) is
    recomputed on ``problem`` itself by straight-line code independent of
    the optimizer implementations, and the inequality is re-checked within
    REPLAY_SLACK. The criterion runs along the momentum-free direction, so
    Adam's first moment is not needed. Only the hyper-parameters come from
    the run's own config objects. Give-up steps (``gave_up`` on the
    rerun's records) accepted no candidate and committed nothing, so they
    are neither checked nor folded into the smoothing EMAs; a step
    accepted on its last candidate is checked. The arguments are checked
    as ``run_single``'s are, before the rerun.
    """
    opt = _optimizer(optimizer)
    if opt.cfg is None:
        raise ConfigError(f"replay_verify applies to line-search runs, "
                          f"got {opt.kind!r}")
    base_points, loss_grad = [], problem.loss_grad

    def recording(w, indices, grad=True):
        if grad:
            base_points.append(w)
        return loss_grad(w, indices, grad=grad)

    # through run_single, which reads the dict again, as the benchmark times it
    rerun = run_single(replace(problem, loss_grad=recording), optimizer, seed,
                       epochs, batch_size, frequency_controller)
    # the rerun's records must equal the trace's in their written fields;
    # NaN != NaN, so unequal records are settled by the CSV bytes, where
    # NaN reads "nan" and every finite float round-trips through repr
    records = rerun.trace.records
    if records != trace.records and rerun.trace.to_csv() != trace.to_csv():
        raise ValueError("trace does not replay bit-identically; "
                         "it was not produced by this configuration")
    if len(base_points) != len(records):
        raise ValueError(f"the rerun made {len(base_points)} gradient "
                         f"evaluations for {len(records)} steps")

    # the hyper-parameters as the run read them, Adam's from its class
    cfg = opt.cfg
    adam = None if opt.adam is None else AdamState.zeros(0, **opt.adam)

    sampler = BatchSampler(seed, batch_size, problem.dataset_size)
    v = np.zeros(problem.dim)
    h = s = 0.0

    n_searched = n_checked = 0
    violations = []
    max_violation = 0.0

    for rec, w in zip(records, base_points):
        indices = sampler.sample(rec.k)
        res = problem.loss_grad(w, indices)
        g = res.grad
        if adam is not None:
            v = adam.beta2 * v + (1.0 - adam.beta2) * g * g
        if not rec.searched:
            continue
        n_searched += 1

        if adam is None:
            d = -g
            gterm = float(g @ g)
        else:
            v_hat = v / (1.0 - adam.beta2 ** (rec.k + 1))
            denom = np.sqrt(v_hat) + adam.epsilon
            d = -g / denom
            gterm = float(np.add.reduce(g * g / denom))
        loss_trial = problem.loss_grad(axpy(rec.eta, d, w), indices,
                                       grad=False).loss
        if rec.gave_up:
            # committed nothing, so it is neither checked nor smoothed; its
            # point is still evaluated, one per searched step, as
            # perfbench/run.py counts the replay's evaluations
            continue

        if opt.search == "sls":
            lhs = loss_trial
            rhs = res.loss - cfg.c * rec.eta * gterm
            ok = lhs <= rhs + REPLAY_SLACK
            gap = lhs - rhs
        else:
            # the first checked step seeds both averages
            beta3 = cfg.beta3
            s = gterm if not n_checked else \
                beta3 * s + (1.0 - beta3) * gterm
            decrease = res.loss - loss_trial
            h = decrease if not n_checked else \
                beta3 * h + (1.0 - beta3) * decrease
            lhs = h
            rhs = cfg.c * rec.eta * s
            ok = lhs >= rhs - REPLAY_SLACK
            gap = rhs - lhs
        n_checked += 1
        if not ok:
            violations.append((rec.k, lhs, rhs))
            max_violation = max(max_violation, gap)

    return ReplayReport(n_steps=len(trace.records), n_searched=n_searched,
                        n_checked=n_checked, violations=violations,
                        max_violation=max_violation)
