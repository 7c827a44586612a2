"""Fixed-learning-rate SGD and Adam baselines with schedules.

A fixed-rate step is the line-search engine's step with no search
(``line_search.apply_without_search``) at the scheduled step size. Two
schedule shapes: flat, and linear warmup into a cosine decay (ramp from
0 over the warmup fraction, then half-cosine down to 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ParamVector, StepRecord
# The two direction names stay bound here because perfbench/tracer.py
# patches them by module; the engine calls its own bindings.
from .directions import AdamState, adam_direction, \
    adam_update_moments  # noqa: F401
from .line_search import SlsState, apply_without_search

SCHEDULE_SHAPES = ("cosine_warmup", "flat")


@dataclass
class ScheduleConfig:
    peak_lr: float
    total_steps: int
    warm_frac: float = 0.1
    shape: str = "cosine_warmup"

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be > 0, got {self.peak_lr}")
        if self.total_steps <= 0:
            raise ValueError(f"total_steps must be > 0, got {self.total_steps}")
        if not 0.0 <= self.warm_frac < 1.0:
            raise ValueError(f"warm_frac must be in [0,1), got {self.warm_frac}")
        if self.shape not in SCHEDULE_SHAPES:
            raise ValueError(f"shape must be one of {SCHEDULE_SHAPES}")
        if self.shape == "cosine_warmup" and self.warmup_steps < 1:
            raise ValueError("cosine_warmup needs warm_frac * total_steps >= 1")

    @property
    def warmup_steps(self) -> int:
        return round(self.warm_frac * self.total_steps)


def schedule_lr(cfg: ScheduleConfig, k: int) -> float:
    """Learning rate at step k (0-based, k < total_steps)."""
    if not 0 <= k < cfg.total_steps:
        raise ValueError(f"step {k} outside [0, {cfg.total_steps})")
    if cfg.shape == "flat":
        return cfg.peak_lr
    warm = cfg.warmup_steps
    if k <= warm:
        return cfg.peak_lr * k / warm
    p = (k - warm) / (cfg.total_steps - warm)
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * p))


def fixed_sgd_step(batch, w: ParamVector, lr: float,
                   k: int) -> tuple[ParamVector, StepRecord]:
    """Plain SGD update w - lr * grad on this batch: the engine's step
    with no search, at step size lr."""
    return apply_without_search(batch, w, "sgd", SlsState(eta=lr, k=k))


def fixed_adam_step(batch, w: ParamVector, adam_state: AdamState, lr: float,
                    k: int) -> tuple[ParamVector, StepRecord, AdamState]:
    """Adam update with momentum at a fixed learning rate: the engine's
    step with no search, at step size lr."""
    state = SlsState(eta=lr, k=k, adam=adam_state)
    w_next, record = apply_without_search(batch, w, "adam", state)
    return w_next, record, state.adam
