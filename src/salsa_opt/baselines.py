"""Fixed-learning-rate SGD and Adam baselines with schedules.

A fixed-rate step is the line-search engine's step with no search
(``line_search.apply_without_search``) at the scheduled step size. Two
schedules: flat, and linear warmup into a cosine decay (ramp from 0 over
the warmup fraction, then half-cosine down to 0). A warmup that rounds to
no step is no warmup: the decay starts at the peak rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import check_fields
# The two direction names stay bound here because perfbench/tracer.py
# patches them by module; the engine calls its own bindings.
from .directions import adam_direction, adam_update_moments  # noqa: F401
from .line_search import apply_without_search

SCHEDULES = ("cosine_warmup", "flat")


@dataclass(frozen=True)
class ScheduleConfig:
    """A fixed-rate schedule; ``schedule`` is "flat" unless set. A warmup
    that rounds to zero steps is no warmup, so no ``total_steps`` makes a
    checked schedule invalid."""

    peak_lr: float = field(metadata={"range": "> 0"})
    total_steps: int = field(metadata={"range": "> 0"})
    warm_frac: float = field(default=0.1, metadata={"range": "[0,1)"})
    schedule: str = field(default="flat", metadata={"range": SCHEDULES})

    def __post_init__(self):
        check_fields(self)

    @property
    def warmup_steps(self) -> int:
        return round(self.warm_frac * self.total_steps)


def schedule_lr(cfg: ScheduleConfig, k: int) -> float:
    """Learning rate at step k (0-based, k < total_steps). When the warmup
    rounds to zero steps, the half-cosine starts at ``peak_lr`` at step 0."""
    if not 0 <= k < cfg.total_steps:
        raise ValueError(f"step {k} outside [0, {cfg.total_steps})")
    if cfg.schedule == "flat":
        return cfg.peak_lr
    warm = cfg.warmup_steps
    if warm and k <= warm:
        return cfg.peak_lr * k / warm
    p = (k - warm) / (cfg.total_steps - warm)
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * p))


# One step at ``state.eta``, Adam when ``state.adam`` is set;
# perfbench/tracer.py patches both names in harness.
fixed_sgd_step = fixed_adam_step = apply_without_search
