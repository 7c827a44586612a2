"""Stochastic Armijo line-search optimizers and a desk-scale benchmark harness.

Two search families over SGD and Adam directions:

* SLS: the classic per-batch Armijo backtracking search with step regrowth.
* SaLSa: the same search with both batch-dependent sides of the criterion
  exponentially smoothed, which keeps the step size stable under mini-batch
  noise. An optional non-decrease mode restores a full-batch convergence
  guarantee, and a frequency controller cuts the search overhead by an
  order of magnitude on plateaus.

Fixed-learning-rate SGD/Adam baselines (flat or warmup+cosine schedules),
analytic-gradient toy problems, and an experiment harness with reproducible
traces round out the package.

The public API is ``__all__``: problems, configs, runs, studies, the replay
verifier and the pieces of a hand-written search loop. Every other name is
internal to its module and may change without notice.
"""

from .core import ConfigError, EvalResult, StepRecord, TrainingTrace
from .line_search import SlsConfig, SlsState, sls_step
from .salsa import SalsaConfig
from .frequency import FrequencyController
from .baselines import ScheduleConfig
from .problems import (BatchSampler, Problem, batch_for_step,
                       finite_diff_grad, make_logreg,
                       make_matrix_factorization, make_mlp, make_quadratic,
                       problem_from_csv)
from .harness import (AblationReport, ComparisonTable, ExperimentConfig,
                      ReplayReport, RunResult, RunSummary, ScalingReport,
                      batch_scaling_experiment, build_problem, compare, emit,
                      final_smoothed_loss, frequency_ablation, replay_verify,
                      run_experiment, run_single, summarize)

__all__ = [
    # problems
    "Problem", "EvalResult", "make_quadratic", "make_logreg", "make_mlp",
    "make_matrix_factorization", "problem_from_csv", "build_problem",
    "finite_diff_grad",
    # configs
    "SlsConfig", "SalsaConfig", "ScheduleConfig", "ExperimentConfig",
    "ConfigError",
    # runs
    "run_single", "RunResult", "run_experiment", "final_smoothed_loss",
    "TrainingTrace", "StepRecord", "emit",
    # studies
    "summarize", "RunSummary", "compare", "ComparisonTable",
    "batch_scaling_experiment", "ScalingReport", "frequency_ablation",
    "AblationReport", "FrequencyController",
    # verifier
    "replay_verify", "ReplayReport",
    # a hand-written search loop
    "sls_step", "SlsState", "BatchSampler", "batch_for_step",
]

__version__ = "0.1.0"
