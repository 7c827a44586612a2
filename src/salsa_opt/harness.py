"""Experiment runner: multi-seed comparisons, trace replay checks, and the
batch-scaling / search-frequency studies.

A run is fully determined by (config, seed): problem data come from the
problem config's own seed, while the run seed drives the parameter init
and the batch shuffling. Reported "final loss" is the training loss
smoothed by an EMA with factor 0.99.
"""

from __future__ import annotations

import copy
import math
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .baselines import ScheduleConfig, fixed_adam_step, fixed_sgd_step, \
    schedule_lr
from .core import ConfigError, ParamVector, StepRecord, TrainingTrace, \
    axpy, canonical_json, check_fields, check_value, checked_arguments, \
    config_from_dict, field_rules, norm_sq
from .directions import AdamState
from .frequency import FrequencyController
from .line_search import SlsConfig, SlsState, apply_without_search, sls_step
from .problems import BatchSampler, Problem, batch_for_step, make_logreg, \
    make_matrix_factorization, make_mlp, make_quadratic, problem_from_csv
from .salsa import SalsaConfig, salsa_adam_step, salsa_sgd_step

OPTIMIZER_KINDS = ("sgd", "adam", "sgd_sls", "adam_sls", "sgd_salsa",
                   "adam_salsa")
LINE_SEARCH_KINDS = ("sgd_sls", "adam_sls", "sgd_salsa", "adam_salsa")
REPORT_SMOOTHING = 0.99


@dataclass
class ExperimentConfig:
    """A problem and an optimizer config, run once per seed."""

    problem: dict
    optimizer: dict
    seeds: list[int]
    epochs: int = field(metadata={"range": ">= 0"})
    batch_size: int = field(metadata={"range": ">= 1"})
    frequency_controller: bool = False
    out: str | None = None

    def __post_init__(self):
        check_fields(self)
        check_value("optimizer kind", self.optimizer.get("kind"), str,
                    OPTIMIZER_KINDS)

    # rejects unknown and missing keys before building the config
    from_dict = classmethod(config_from_dict)


_PROBLEM_BUILDERS = {
    "quadratic": make_quadratic,
    "logreg": make_logreg,
    "mlp": make_mlp,
    "matrix_factorization": make_matrix_factorization,
    "csv": problem_from_csv,
}


def build_problem(problem_config: dict) -> Problem:
    """Instantiate a problem from its config dict ({'kind': ..., params});
    params are the factory's arguments, ``kind_inner`` standing for csv's
    ``kind``. Whatever the factory rejects raises ConfigError."""
    params = dict(check_value("problem", problem_config, dict))
    kind = check_value("problem kind", params.pop("kind", None), str,
                       tuple(_PROBLEM_BUILDERS))
    if kind == "csv" and "kind_inner" in params:
        params["kind"] = params.pop("kind_inner")
    try:
        return _PROBLEM_BUILDERS[kind](**params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {kind} parameters: {e}") from e


# each fixed-rate optimizer key, as the ScheduleConfig field it sets
_SCHEDULE_KEYS = {"lr": "peak_lr", "peak_lr": "peak_lr",
                  "warm_frac": "warm_frac", "schedule": "shape"}


class _Runner:
    """Steps any of the six optimizer kinds; logs SaLSa's h and s.

    Building it checks the optimizer dict once: the kind, then the
    search-config fields of a search kind (the ``_SCHEDULE_KEYS`` of a
    fixed-rate kind), then an adam kind's ``AdamState`` hyper-parameters.
    ``checked`` holds each key the dict gave, in its order, with the value
    stored in the field it fills (an int given for a float reads as a
    float).

    ``step``, and a search kind's ``skip_step``, take ``(batch, w)`` and are
    bound when the runner is built, from this module's bindings: a run
    built while they are swapped (as the benchmark's tracer does) steps
    through the swapped functions.
    """

    def __init__(self, opt: dict, dim: int, total_steps: int):
        self.kind = kind = check_value("optimizer kind", opt.get("kind"), str,
                                       OPTIMIZER_KINDS)
        params = {k: v for k, v in opt.items() if k != "kind"}
        if kind in LINE_SEARCH_KINDS:
            self.family = "salsa" if kind.endswith("salsa") else "sls"
            cfg_cls = SalsaConfig if self.family == "salsa" else SlsConfig
            search_kw = {f.name: params.pop(f.name) for f in fields(cfg_cls)
                         if f.name in params}
            self.cfg = cfg = cfg_cls(**search_kw)
            checked = {key: getattr(cfg, key) for key in search_kw}
            eta = cfg.eta_init
        else:
            if "lr" in params and "peak_lr" in params:
                raise ConfigError(f"{kind} takes 'lr' or 'peak_lr', not both")
            rules = field_rules(ScheduleConfig)
            fixed = {name: check_value(key, params.pop(key), *rules[name])
                     for key, name in _SCHEDULE_KEYS.items() if key in params}
            if "peak_lr" not in fixed:
                raise ConfigError(f"{kind} needs 'lr' or 'peak_lr'")
            # ScheduleConfig owns the defaults of the fields the config
            # leaves out
            schedule = ScheduleConfig(total_steps=max(total_steps, 1), **fixed)
            checked = {key: getattr(schedule, name)
                       for key, name in _SCHEDULE_KEYS.items() if key in opt}
            eta = schedule.peak_lr
        adam = None
        if kind.startswith("adam"):
            try:
                adam = AdamState.zeros(dim, **params)
            except TypeError as e:
                raise ConfigError(f"bad {kind} parameters: {e}") from e
            checked.update((key, getattr(adam, key)) for key in params)
        elif params:
            raise ConfigError(f"unknown {kind} parameters: {sorted(params)}")
        checked["kind"] = kind
        self.checked = {key: checked[key] for key in opt}
        self.state = state = SlsState(eta=eta, adam=adam)
        self.h_series = []
        self.s_series = []
        skip = apply_without_search
        if kind not in LINE_SEARCH_KINDS:
            fixed_step = fixed_sgd_step if adam is None else fixed_adam_step

            def step(batch, w):
                state.eta = schedule_lr(schedule, state.k)
                return fixed_step(batch, w, state)
            self.step = step
        elif self.family == "sls":
            search = sls_step
            self.step = lambda batch, w: search(batch, w, state, cfg)
            self.skip_step = lambda batch, w: skip(batch, w, state)
        else:
            search = salsa_sgd_step if adam is None else salsa_adam_step
            log_h, log_s = self.h_series.append, self.s_series.append

            def logged(out):
                smoothed = state.smoothed
                log_h(state.h if smoothed else math.nan)
                log_s(state.s if smoothed else math.nan)
                return out

            self.step = lambda batch, w: logged(search(batch, w, state, cfg))
            self.skip_step = lambda batch, w: logged(skip(batch, w, state))


def check_optimizer(problem: Problem, cfg: ExperimentConfig) -> dict:
    """Build the runner ``cfg`` would run on ``problem``, which checks it;
    returns the runner's ``checked`` optimizer values."""
    sampler = BatchSampler(seed=0, batch_size=cfg.batch_size,
                           dataset_size=problem.dataset_size)
    return _Runner(cfg.optimizer, problem.dim,
                   cfg.epochs * sampler.batches_per_epoch).checked


@dataclass
class RunResult:
    trace: TrainingTrace
    final_params: ParamVector
    val_accuracy_by_epoch: list
    h_series: list
    s_series: list
    params_before_step: list | None = None


def run_single(problem: Problem, optimizer: dict, seed: int, epochs: int,
               batch_size: int, frequency_controller: bool = False,
               collect_params: bool = False) -> RunResult:
    """One deterministic run; the workhorse behind run_experiment."""
    sampler = BatchSampler(seed=seed, batch_size=batch_size,
                           dataset_size=problem.dataset_size)
    w = problem.init_params(seed)
    batches_per_epoch = sampler.batches_per_epoch
    val_accuracy = problem.val_accuracy
    total = epochs * batches_per_epoch
    runner = _Runner(optimizer, problem.dim, total)
    controller = FrequencyController() \
        if frequency_controller and runner.kind in LINE_SEARCH_KINDS else None
    trace = TrainingTrace(metadata={})
    val_acc = []
    params_hist = [] if collect_params else None

    if total == 0:
        batch = batch_for_step(problem, sampler, 0)
        res = batch.eval(w)
        trace.append(StepRecord(k=0, eta=runner.state.eta, loss=res.loss,
                                grad_norm_sq=norm_sq(res.grad), searched=False,
                                backtracks=0, batch_seed=batch.key))
        return RunResult(trace, w, val_acc, runner.h_series,
                         runner.s_series, params_hist)

    # looked up once per run, after any swap of the bindings
    batch_for, step, append = batch_for_step, runner.step, trace.append
    for k in range(total):
        batch = batch_for(problem, sampler, k)
        if collect_params:
            params_hist.append(w)
        if controller is None:
            w, rec = step(batch, w)
        elif not controller.should_search():
            w, rec = runner.skip_step(batch, w)
            controller.record_skip()
        else:
            w, rec = step(batch, w)
            if rec.searched:
                controller.record_search(rec.eta)
            else:
                controller.record_skip()
        append(rec)
        if val_accuracy is not None and (k + 1) % batches_per_epoch == 0:
            val_acc.append(val_accuracy(w))

    return RunResult(trace, w, val_acc, runner.h_series, runner.s_series,
                     params_hist)


def _as_checked(config: dict, hints: dict) -> dict:
    """A copy of a checked ``config`` with each value that ``hints`` (key
    -> annotation) covers stored as its check stores it: an int given for
    a float reads as a float, as in the field it fills."""
    return {key: check_value(key, value, hints[key]) if key in hints
            else copy.deepcopy(value) for key, value in config.items()}


def run_experiment(cfg: ExperimentConfig) -> list[TrainingTrace]:
    """One trace per seed, reproducible bit-exactly from (config, seed)."""
    problem = build_problem(cfg.problem)
    checked = check_optimizer(problem, cfg)
    traces = [run_single(problem, cfg.optimizer, seed, cfg.epochs,
                         cfg.batch_size, cfg.frequency_controller).trace
              for seed in cfg.seeds]
    # the metadata keeps the config's keys with the values as checked, so
    # configs that differ only in how a number is written write the same
    # bytes
    snapshot = {
        "problem": _as_checked(cfg.problem, typing.get_type_hints(
            _PROBLEM_BUILDERS[cfg.problem["kind"]])),
        "optimizer": checked,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "frequency_controller": cfg.frequency_controller,
    }
    for seed, trace in zip(cfg.seeds, traces):
        trace.metadata = {
            "optimizer": cfg.optimizer["kind"],
            "problem": problem.name,
            "seed": seed,
            "config": snapshot,
        }
    return traces


def final_smoothed_loss(trace: TrainingTrace, beta: float = REPORT_SMOOTHING) -> float:
    """EMA over the per-step training losses, final value."""
    if not trace.records:
        raise ValueError("empty trace")
    ema = trace.records[0].loss
    for r in trace.records[1:]:
        ema = beta * ema + (1.0 - beta) * r.loss
    return ema


@dataclass
class RunSummary:
    optimizer: str
    problem: str
    final_losses: list
    mean_final_loss: float
    peak_val_accuracy: float | None = None


def summarize(optimizer_name: str, problem_name: str,
              traces: list[TrainingTrace],
              val_acc_series: list[list] | None = None) -> RunSummary:
    losses = [final_smoothed_loss(t) for t in traces]
    peak = None
    if val_acc_series:
        accs = [max(series) for series in val_acc_series if series]
        peak = float(np.mean(accs)) if accs else None
    return RunSummary(optimizer=optimizer_name, problem=problem_name,
                      final_losses=losses,
                      mean_final_loss=float(np.mean(losses)),
                      peak_val_accuracy=peak)


@dataclass
class ComparisonTable:
    """Per-problem mean losses per optimizer plus the three summary rows."""

    problems: list
    optimizers: list
    losses: dict          # (problem, optimizer) -> mean final loss
    arithmetic_mean: dict  # optimizer -> value
    log_mean: dict
    average_rank: dict

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


def compare(summaries: list[RunSummary]) -> ComparisonTable:
    """Cross-problem comparison with ranks (ties averaged); a repeated
    (problem, optimizer) pair raises ConfigError.

    A NaN loss (a diverged run) ranks last on its problem, with a warning;
    the arithmetic and log means keep the NaN. The log mean is the
    geometric mean exp(mean(ln loss)); any optimizer with a non-positive
    loss falls back to its arithmetic mean, with a warning, since the
    geometric mean is undefined there.
    """
    problems = list(dict.fromkeys(s.problem for s in summaries))
    optimizers = list(dict.fromkeys(s.optimizer for s in summaries))
    losses = {}
    for s in summaries:
        if (s.problem, s.optimizer) in losses:
            raise ConfigError(f"summaries repeat ({s.problem}, {s.optimizer});"
                              f" each (problem, optimizer) pair is one cell")
        losses[(s.problem, s.optimizer)] = s.mean_final_loss
    for p in problems:
        for o in optimizers:
            if (p, o) not in losses:
                raise ConfigError(
                    f"summaries do not cover the same problem set: "
                    f"missing ({p}, {o})")

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
    for i, o in enumerate(optimizers):
        vals = np.array([losses[(p, o)] for p in problems])
        arith[o] = float(np.mean(vals))
        if np.any(vals <= 0):
            warnings.warn(
                f"non-positive loss for {o}; log mean falls back to arithmetic")
            logm[o] = arith[o]
        else:
            logm[o] = float(np.exp(np.mean(np.log(vals))))
    return ComparisonTable(problems=problems, optimizers=optimizers,
                           losses=losses, arithmetic_mean=arith, log_mean=logm,
                           average_rank={o: float(r) for o, r in
                                         zip(optimizers, ranks)})


def _mid_window(n: int, lo: float = 0.25, hi: float = 0.75) -> slice:
    return slice(int(lo * n), max(int(lo * n) + 1, int(hi * n)))


@dataclass
class ScalingReport:
    batch_sizes: list
    mean_mid_eta: dict        # batch size -> mean step size, mid-training
    ratios: list              # (bs_from, bs_to, ratio)
    h_series: dict            # (batch_size, seed) -> list
    s_series: dict

    def to_csv(self) -> str:
        lines = ["batch_size,mean_mid_eta,ratio_vs_prev"]
        prev = None
        for bs in self.batch_sizes:
            ratio = "" if prev is None else repr(self.mean_mid_eta[bs] / prev)
            lines.append(f"{bs},{self.mean_mid_eta[bs]!r},{ratio}")
            prev = self.mean_mid_eta[bs]
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


# The studies check their arguments as the problem factories do; one that
# shares its name with an ExperimentConfig field takes that field's range.
_STUDY_RANGES = {f.name: f.metadata["range"]
                 for f in fields(ExperimentConfig) if "range" in f.metadata}


@checked_arguments(**_STUDY_RANGES, batch_sizes=">= 1")
def batch_scaling_experiment(problem: Problem, optimizer: dict | None = None,
                             batch_sizes: tuple[int, ...] = (4, 8, 16, 32),
                             seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                             epochs: int = 4) -> ScalingReport:
    """Step-size vs batch-size study.

    Runs the (by default) adam_salsa optimizer at each batch size and
    reports the mean accepted step size over the middle half of each run,
    averaged over seeds, together with the consecutive-doubling ratios and
    the per-run smoothed h/s series.
    """
    optimizer = optimizer or {"kind": "adam_salsa"}
    mean_eta = {}
    h_series, s_series = {}, {}
    for bs in batch_sizes:
        per_seed = []
        for seed in seeds:
            result = run_single(problem, optimizer, seed, epochs, bs)
            etas = np.array([r.eta for r in result.trace.records])
            per_seed.append(float(np.mean(etas[_mid_window(len(etas))])))
            h_series[(bs, seed)] = result.h_series
            s_series[(bs, seed)] = result.s_series
        mean_eta[bs] = float(np.mean(per_seed))
    ratios = [(a, b, mean_eta[b] / mean_eta[a])
              for a, b in zip(batch_sizes, batch_sizes[1:])]
    return ScalingReport(batch_sizes=list(batch_sizes), mean_mid_eta=mean_eta,
                         ratios=ratios, h_series=h_series, s_series=s_series)


@dataclass
class AblationReport:
    seeds: list
    final_loss_on: list
    final_loss_off: list
    searched_fraction_on: float
    searched_fraction_off: float
    mean_delta: float          # mean(on) - mean(off)
    pooled_se: float

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
        return canonical_json(asdict(self))


def _pooled_se(a: list, b: list) -> float:
    a, b = np.asarray(a), np.asarray(b)
    var_a = a.var(ddof=1) / len(a) if len(a) > 1 else 0.0
    var_b = b.var(ddof=1) / len(b) if len(b) > 1 else 0.0
    return float(np.sqrt(var_a + var_b))


@checked_arguments(**_STUDY_RANGES)
def frequency_ablation(problem: Problem,
                       seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                       optimizer: dict | None = None, epochs: int = 3,
                       batch_size: int = 32) -> AblationReport:
    """Paired runs with and without the frequency controller.

    Batch streams are identical within a pair (same run seed), so the only
    difference is how often the search runs. The optimizer must be a
    line-search kind: the controller only skips searches.
    """
    optimizer = optimizer or {"kind": "adam_salsa"}
    check_value("frequency_ablation optimizer kind", optimizer.get("kind"),
                str, LINE_SEARCH_KINDS)
    on, off, frac_on, frac_off = [], [], [], []
    for seed in seeds:
        r_on = run_single(problem, optimizer, seed, epochs, batch_size,
                          frequency_controller=True)
        r_off = run_single(problem, optimizer, seed, epochs, batch_size,
                           frequency_controller=False)
        on.append(final_smoothed_loss(r_on.trace))
        off.append(final_smoothed_loss(r_off.trace))
        frac_on.append(np.mean([r.searched for r in r_on.trace.records]))
        frac_off.append(np.mean([r.searched for r in r_off.trace.records]))
    return AblationReport(
        seeds=list(seeds), final_loss_on=on, final_loss_off=off,
        searched_fraction_on=float(np.mean(frac_on)),
        searched_fraction_off=float(np.mean(frac_off)),
        mean_delta=float(np.mean(on) - np.mean(off)),
        pooled_se=_pooled_se(on, off))


def render(obj, format: str) -> str:
    """A trace or report as CSV or JSON text; bit-stable per input."""
    check_value("format", format, str, ("csv", "json"))
    return obj.to_csv() if format == "csv" else obj.to_json()


def emit(obj, format: str, path: str) -> None:
    """Write a trace or report as CSV or JSON; bit-stable per input."""
    text = render(obj, format)
    try:
        with open(path, "w", newline="\n") as f:
            f.write(text)
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


def replay_verify(problem: Problem, optimizer: dict, seed: int, epochs: int,
                  batch_size: int, trace: TrainingTrace,
                  frequency_controller: bool = False,
                  slack: float = 1e-9) -> ReplayReport:
    """Re-run a configuration and confirm every accepted search step.

    The run is replayed deterministically to recover the parameter sequence;
    from there everything else (gradients, Adam's second moment, smoothing
    EMAs, both sides of the criterion at the recorded step size) is
    recomputed by straight-line code independent of the optimizer
    implementations, and the inequality is re-checked within ``slack``.
    The criterion runs along the momentum-free direction, so Adam's first
    moment is not needed. Only the hyper-parameters come from the run's own
    config objects. Give-up steps (backtracks exhausted) accept no
    candidate and are not checked.
    """
    # the hyper-parameters as the run read them, from the same runner
    runner = _Runner(optimizer, problem.dim, 0)
    if runner.kind not in LINE_SEARCH_KINDS:
        raise ConfigError(f"replay_verify applies to line-search runs, "
                          f"got {runner.kind!r}")
    rerun = run_single(problem, optimizer, seed, epochs, batch_size,
                       frequency_controller, collect_params=True)
    # NaN != NaN, so unequal records are settled by the CSV bytes, where
    # NaN reads "nan" and every finite float round-trips through repr
    if rerun.trace.records != trace.records and \
            rerun.trace.to_csv() != trace.to_csv():
        raise ValueError("trace does not replay bit-identically; "
                         "it was not produced by this configuration")

    family, cfg, adam = runner.family, runner.cfg, runner.state.adam

    sampler = BatchSampler(seed=seed, batch_size=batch_size,
                           dataset_size=problem.dataset_size)
    v = np.zeros(problem.dim)
    adam_k = 0
    h = s = 0.0
    smoothing_seeded = False

    n_searched = n_checked = 0
    violations = []
    max_violation = 0.0

    for rec, w in zip(trace.records, rerun.params_before_step):
        indices = sampler.sample(rec.k)
        res = problem.loss_grad(w, indices)
        g = res.grad
        if adam is not None:
            v = adam.beta2 * v + (1.0 - adam.beta2) * g * g
            adam_k += 1
        if not rec.searched:
            continue
        n_searched += 1
        # give-up steps (budget exhausted) accepted no candidate: they are
        # not checked, but a smoothed run still committed h/s at the
        # recorded eta, so the EMA recurrences below must advance anyway
        accepted = rec.backtracks < cfg.max_backtracks

        if adam is None:
            d = -g
            gterm = float(g @ g)
        else:
            v_hat = v / (1.0 - adam.beta2 ** adam_k)
            denom = np.sqrt(v_hat) + adam.epsilon
            d = -g / denom
            gterm = float(np.add.reduce(g * g / denom))
        loss_trial = problem.loss_grad(axpy(rec.eta, d, w), indices,
                                       grad=False).loss

        if family == "sls":
            if not accepted:
                continue
            lhs = loss_trial
            rhs = res.loss - cfg.c * rec.eta * gterm
            ok = lhs <= rhs + slack
            gap = lhs - rhs
        else:
            beta3 = cfg.beta3
            s = gterm if not smoothing_seeded else \
                beta3 * s + (1.0 - beta3) * gterm
            decrease = res.loss - loss_trial
            h = decrease if not smoothing_seeded else \
                beta3 * h + (1.0 - beta3) * decrease
            smoothing_seeded = True
            if not accepted:
                continue
            lhs = h
            rhs = cfg.c * rec.eta * s
            ok = lhs >= rhs - slack
            gap = rhs - lhs
        n_checked += 1
        if not ok:
            violations.append((rec.k, lhs, rhs))
            max_violation = max(max_violation, gap)

    return ReplayReport(n_steps=len(trace.records), n_searched=n_searched,
                        n_checked=n_checked, violations=violations,
                        max_violation=max_violation)
