"""Stochastic Armijo line-search optimizers over SGD and Adam directions:
SLS, which backtracks on each mini-batch, and SaLSa, which smooths both
sides of the Armijo test with an exponential moving average.

The public API is ``__all__``; every other name is internal to its module
and may change without notice.
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
from .harness import (AblationReport, ComparisonTable, ReplayReport,
                      RunResult, ScalingReport, batch_scaling_experiment,
                      build_problem, compare, compare_optimizers, emit,
                      final_smoothed_loss, frequency_ablation, replay_verify,
                      run_experiment, run_single)

__all__ = [
    # problems
    "Problem", "EvalResult", "make_quadratic", "make_logreg", "make_mlp",
    "make_matrix_factorization", "problem_from_csv", "build_problem",
    "finite_diff_grad",
    # configs
    "SlsConfig", "SalsaConfig", "ScheduleConfig", "ConfigError",
    # runs
    "run_single", "RunResult", "run_experiment", "final_smoothed_loss",
    "TrainingTrace", "StepRecord", "emit",
    # studies
    "compare", "ComparisonTable",
    "compare_optimizers", "batch_scaling_experiment", "ScalingReport",
    "frequency_ablation", "AblationReport", "FrequencyController",
    # verifier
    "replay_verify", "ReplayReport",
    # a hand-written search loop
    "sls_step", "SlsState", "BatchSampler", "batch_for_step",
]

__version__ = "0.1.0"
