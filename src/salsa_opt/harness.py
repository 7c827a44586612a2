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
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy import stats

from .baselines import ScheduleConfig, fixed_adam_step, fixed_sgd_step, \
    schedule_lr
from .core import ParamVector, StepRecord, TrainingTrace, axpy, \
    canonical_json, norm_sq
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


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    problem: dict
    optimizer: dict
    seeds: list
    epochs: int
    batch_size: int
    frequency_controller: bool = False
    out: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if "kind" not in self.optimizer:
            raise ConfigError("optimizer config needs a 'kind'")
        if self.optimizer["kind"] not in OPTIMIZER_KINDS:
            raise ConfigError(
                f"unknown optimizer kind {self.optimizer['kind']!r}; "
                f"expected one of {OPTIMIZER_KINDS}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING} - set(d)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**d)


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
    ``kind``."""
    params = dict(problem_config)
    kind = params.pop("kind", None)
    if kind not in _PROBLEM_BUILDERS:
        raise ConfigError(f"unknown problem kind {kind!r}; "
                          f"expected one of {sorted(_PROBLEM_BUILDERS)}")
    if kind == "csv" and "kind_inner" in params:
        params["kind"] = params.pop("kind_inner")
    try:
        return _PROBLEM_BUILDERS[kind](**params)
    except TypeError as e:
        raise ConfigError(f"bad {kind} parameters: {e}") from e


_FIXED_KEYS = {"lr", "peak_lr", "schedule", "warm_frac"}


def _adam_moments(kind: str, dim: int, params: dict) -> AdamState | None:
    """Zero Adam moments for an adam kind, taking every key left in
    ``params`` as an ``AdamState`` hyper-parameter; an sgd kind takes none."""
    if not kind.startswith("adam"):
        if params:
            raise ConfigError(f"unknown {kind} parameters: {sorted(params)}")
        return None
    try:
        return AdamState.zeros(dim, **params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {kind} parameters: {e}") from e


class _LineSearchRunner:
    """Steps one of the four line-search kinds; logs SaLSa's h and s."""

    uses_line_search = True

    def __init__(self, kind: str, dim: int, opt: dict):
        self.base = "adam" if kind.startswith("adam") else "sgd"
        self.family = "salsa" if kind.endswith("salsa") else "sls"
        cfg_cls = SalsaConfig if self.family == "salsa" else SlsConfig
        params = {k: v for k, v in opt.items() if k != "kind"}
        search_kw = {f.name: params.pop(f.name) for f in fields(cfg_cls)
                     if f.name in params}
        try:
            self.cfg = cfg_cls(**search_kw)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        self.state = SlsState(eta=self.cfg.eta_init,
                              adam=_adam_moments(kind, dim, params))
        self.h_series = []
        self.s_series = []

    @property
    def eta(self) -> float:
        return self.state.eta

    def _log_smoothing(self):
        if self.family == "salsa":
            st = self.state
            self.h_series.append(st.h if st.smoothed else math.nan)
            self.s_series.append(st.s if st.smoothed else math.nan)

    def step(self, batch, w):
        if self.family == "sls":
            out = sls_step(batch, w, self.base, self.state, self.cfg)
        elif self.base == "sgd":
            out = salsa_sgd_step(batch, w, self.state, self.cfg)
        else:
            out = salsa_adam_step(batch, w, self.state, self.cfg)
        self._log_smoothing()
        return out

    def skip_step(self, batch, w):
        out = apply_without_search(batch, w, self.base, self.state)
        self._log_smoothing()
        return out


class _FixedLrRunner:
    """Steps the fixed-rate sgd/adam baselines; it has no h/s to log."""

    uses_line_search = False

    def __init__(self, kind: str, dim: int, opt: dict, total_steps: int):
        self.base = kind
        params = {k: v for k, v in opt.items() if k != "kind"}
        fixed = {k: params.pop(k) for k in _FIXED_KEYS if k in params}
        if "lr" in fixed and "peak_lr" in fixed:
            raise ConfigError(f"{kind} takes 'lr' or 'peak_lr', not both")
        peak = fixed.pop("peak_lr", fixed.pop("lr", None))
        if peak is None:
            raise ConfigError(f"{kind} needs 'lr' or 'peak_lr'")
        if "schedule" in fixed:
            fixed["shape"] = fixed.pop("schedule")
        try:
            # only the shape and warm_frac the config sets are left in
            # ``fixed``: ScheduleConfig owns their defaults
            self.schedule = ScheduleConfig(
                peak_lr=peak, total_steps=max(total_steps, 1), **fixed)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        self.adam = _adam_moments(kind, dim, params)
        self.k = 0
        self.h_series = []
        self.s_series = []

    @property
    def eta(self) -> float:
        return self.schedule.peak_lr

    def step(self, batch, w):
        lr = schedule_lr(self.schedule, self.k)
        if self.base == "sgd":
            w_next, rec = fixed_sgd_step(batch, w, lr, self.k)
        else:
            w_next, rec, self.adam = fixed_adam_step(batch, w, self.adam, lr,
                                                     self.k)
        self.k += 1
        return w_next, rec


def _build_runner(opt: dict, dim: int,
                  total_steps: int) -> _LineSearchRunner | _FixedLrRunner:
    kind = opt["kind"]
    if kind in LINE_SEARCH_KINDS:
        return _LineSearchRunner(kind, dim, opt)
    return _FixedLrRunner(kind, dim, opt, total_steps)


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
    total = epochs * sampler.batches_per_epoch
    runner = _build_runner(optimizer, problem.dim, total)
    controller = FrequencyController() \
        if frequency_controller and runner.uses_line_search else None
    trace = TrainingTrace(metadata={})
    val_acc = []
    params_hist = [] if collect_params else None

    if total == 0:
        batch = batch_for_step(problem, sampler, 0)
        res = batch.eval(w)
        trace.append(StepRecord(k=0, eta=runner.eta, loss=res.loss,
                                grad_norm_sq=norm_sq(res.grad), searched=False,
                                backtracks=0, batch_seed=batch.key))
        return RunResult(trace, w, val_acc, runner.h_series,
                         runner.s_series, params_hist)

    for k in range(total):
        batch = batch_for_step(problem, sampler, k)
        if collect_params:
            params_hist.append(w)
        if controller is not None and not controller.should_search():
            w, rec = runner.skip_step(batch, w)
            controller.record_skip()
        else:
            w, rec = runner.step(batch, w)
            if controller is not None:
                if rec.searched:
                    controller.record_search(rec.eta)
                else:
                    controller.record_skip()
        trace.append(rec)
        if (k + 1) % sampler.batches_per_epoch == 0 and problem.val_accuracy:
            val_acc.append(problem.val_accuracy(w))

    return RunResult(trace, w, val_acc, runner.h_series, runner.s_series,
                     params_hist)


def run_experiment(cfg: ExperimentConfig) -> list[TrainingTrace]:
    """One trace per seed, reproducible bit-exactly from (config, seed)."""
    problem = build_problem(cfg.problem)
    traces = []
    snapshot = {
        "problem": copy.deepcopy(cfg.problem),
        "optimizer": copy.deepcopy(cfg.optimizer),
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "frequency_controller": cfg.frequency_controller,
    }
    for seed in cfg.seeds:
        result = run_single(problem, cfg.optimizer, seed, cfg.epochs,
                            cfg.batch_size, cfg.frequency_controller)
        result.trace.metadata = {
            "optimizer": cfg.optimizer["kind"],
            "problem": problem.name,
            "seed": seed,
            "config": snapshot,
        }
        traces.append(result.trace)
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
    """Cross-problem comparison with ranks (ties averaged).

    The log mean is the geometric mean exp(mean(ln loss)); any optimizer
    with a non-positive loss falls back to its arithmetic mean, with a
    warning, since the geometric mean is undefined there.
    """
    problems = list(dict.fromkeys(s.problem for s in summaries))
    optimizers = list(dict.fromkeys(s.optimizer for s in summaries))
    losses = {(s.problem, s.optimizer): s.mean_final_loss for s in summaries}
    for p in problems:
        for o in optimizers:
            if (p, o) not in losses:
                raise ConfigError(
                    f"summaries do not cover the same problem set: "
                    f"missing ({p}, {o})")

    arith, logm, rank_rows = {}, {}, []
    for p in problems:
        row = np.array([losses[(p, o)] for o in optimizers])
        rank_rows.append(stats.rankdata(row, method="average"))
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


def batch_scaling_experiment(problem: Problem, optimizer: dict | None = None,
                             batch_sizes: tuple = (4, 8, 16, 32),
                             seeds: tuple = (0, 1, 2, 3, 4),
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


def frequency_ablation(problem: Problem, seeds: tuple = (0, 1, 2, 3, 4),
                       optimizer: dict | None = None, epochs: int = 3,
                       batch_size: int = 32) -> AblationReport:
    """Paired runs with and without the frequency controller.

    Batch streams are identical within a pair (same run seed), so the only
    difference is how often the search runs.
    """
    optimizer = optimizer or {"kind": "adam_salsa"}
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
    if format == "csv":
        return obj.to_csv()
    if format == "json":
        return obj.to_json()
    raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")


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
    from there everything else (gradients, Adam moments, smoothing EMAs,
    both sides of the criterion at the recorded step size) is recomputed by
    straight-line code independent of the optimizer implementations, and
    the inequality is re-checked within ``slack``. Only the hyper-parameters
    come from the run's own config objects. Give-up steps (backtracks
    exhausted) accept no candidate and are not checked.
    """
    kind = optimizer["kind"]
    if kind not in LINE_SEARCH_KINDS:
        raise ConfigError(f"replay_verify applies to line-search runs, "
                          f"got {kind!r}")
    rerun = run_single(problem, optimizer, seed, epochs, batch_size,
                       frequency_controller, collect_params=True)
    # NaN != NaN, so unequal records are settled by the CSV bytes, where
    # NaN reads "nan" and every finite float round-trips through repr
    if rerun.trace.records != trace.records and \
            rerun.trace.to_csv() != trace.to_csv():
        raise ValueError("trace does not replay bit-identically; "
                         "it was not produced by this configuration")

    # the hyper-parameters as the run read them, from the same runner
    runner = _LineSearchRunner(kind, problem.dim, optimizer)
    base, family, cfg = runner.base, runner.family, runner.cfg
    adam = runner.state.adam

    sampler = BatchSampler(seed=seed, batch_size=batch_size,
                           dataset_size=problem.dataset_size)
    m = np.zeros(problem.dim)
    v = np.zeros(problem.dim)
    adam_k = 0
    h = s = 0.0
    smoothing_seeded = False

    n_searched = n_checked = 0
    violations = []
    max_violation = 0.0

    for rec, w in zip(trace.records, rerun.params_before_step):
        res = problem.loss_grad(w, sampler.sample(rec.k))
        g = res.grad
        if base == "adam":
            m = adam.beta1 * m + (1.0 - adam.beta1) * g
            v = adam.beta2 * v + (1.0 - adam.beta2) * g * g
            adam_k += 1
        if not rec.searched:
            continue
        n_searched += 1
        # give-up steps (budget exhausted) accepted no candidate: they are
        # not checked, but a smoothed run still committed h/s at the
        # recorded eta, so the EMA recurrences below must advance anyway
        accepted = rec.backtracks < cfg.max_backtracks

        if base == "sgd":
            d = -g
            gterm = float(g @ g)
        else:
            v_hat = v / (1.0 - adam.beta2 ** adam_k)
            denom = np.sqrt(v_hat) + adam.epsilon
            d = -g / denom
            gterm = float(np.sum(g * g / denom))
        loss_trial = problem.loss_grad(axpy(rec.eta, d, w),
                                       sampler.sample(rec.k), grad=False).loss

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
