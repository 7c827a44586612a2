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
"""

from .core import (EvalResult, ParamVector, StepRecord, TrainingTrace, axpy,
                   norm_sq, param_vector, seeded_rng, stream_key)
from .directions import (AdamState, adam_direction, adam_update_moments,
                         preconditioned_grad_norm, sgd_direction)
from .line_search import (BacktrackResult, SlsConfig, SlsState,
                          apply_without_search, armijo_holds, backtrack,
                          propose_initial_step, sls_step)
from .salsa import (SalsaConfig, salsa_adam_step, salsa_backtrack,
                    salsa_criterion, salsa_sgd_step, smooth_update)
from .frequency import (FreqState, FrequencyController, compute_interval,
                        update_emas)
from .baselines import (ScheduleConfig, fixed_adam_step, fixed_sgd_step,
                        schedule_lr)
from .problems import (BatchObjective, BatchSampler, Problem, batch_for_step,
                       finite_diff_grad, load_csv_dataset, make_logreg,
                       make_matrix_factorization, make_mlp, make_quadratic,
                       problem_from_csv)
from .harness import (AblationReport, ComparisonTable, ConfigError,
                      ExperimentConfig, ReplayReport, RunResult, RunSummary,
                      ScalingReport, batch_scaling_experiment, build_problem,
                      compare, emit, final_smoothed_loss, frequency_ablation,
                      replay_verify, run_experiment, run_single, summarize)

__version__ = "0.1.0"
