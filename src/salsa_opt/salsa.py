"""EMA-smoothed Armijo line search (SaLSa): the smoothing on top of SLS.

Both batch-dependent sides of the Armijo test are exponentially smoothed:
the realized loss decrease (h) and the gradient-norm term (s). A step size
is accepted when h >= c * eta * s, with h recomputed per candidate step
size because the decrease depends on it. The gradient side does not depend
on the step size, so s is formed before backtracking starts. Everything
else (the step body, the shrink loop, the guard, the run state
``SlsState`` with its ``h``/``s`` fields) is the engine in
``line_search.py``; this module holds only the smoothed test and its
commit.

An optional non-decrease mode additionally shrinks the accepted step until
the batch loss does not increase, which restores a classical convergence
guarantee in the full-batch setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import ParamVector, StepRecord, axpy
# The four direction names stay bound here because perfbench/tracer.py
# patches them by module; the engine calls its own bindings.
from .directions import adam_direction, adam_update_moments, \
    preconditioned_grad_norm, sgd_direction  # noqa: F401
from .line_search import SlsConfig, SlsState, nondecrease_search, \
    search_step, shrink


@dataclass
class SalsaConfig(SlsConfig):
    """SLS knobs plus the smoothing factor and the non-decrease switch.

    The sufficient-decrease constant defaults to 0.3 here (the smoothed
    criterion tolerates a stiffer c than the raw one, where 0.1 is usual).
    """

    c: float = 0.3
    beta3: float = 0.99
    enforce_nondecrease: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.beta3 < 1.0:
            raise ValueError(f"beta3 must be in (0,1), got {self.beta3}")


def smooth_update(prev: float, x: float, beta3: float, initialized: bool) -> float:
    """One EMA update; seeds with the raw value on the first observation."""
    if not initialized:
        return x
    return beta3 * prev + (1.0 - beta3) * x


def salsa_criterion(h: float, s: float, eta: float, c: float) -> bool:
    """Smoothed sufficient decrease: h >= c * eta * s."""
    return h >= c * eta * s


def _smoothed_holds(loss0, loss_trial, eta, h, s, c, beta3, smoothed):
    return salsa_criterion(
        smooth_update(h, loss0 - loss_trial, beta3, smoothed), s, eta, c)


def salsa_backtrack(objective_on_batch: Callable[[ParamVector], float],
                    w: ParamVector, d: ParamVector, eta_start: float,
                    loss0: float, state: SlsState, s_new: float,
                    cfg: SalsaConfig) -> tuple[float, int, float, float]:
    """Shrink eta until the smoothed criterion holds against s_new; on
    giving up, clamp up to cfg.eta_min (see ``line_search.shrink``).

    Each candidate forms a trial h from this batch's decrease at it and
    the h last committed to ``state``, which is only read here. Only
    the returned candidate's h comes back for committing, so rejected
    trials never touch the average; after a give-up that is the step size
    still taken. Returns (eta, backtracks, h_committed, loss_trial).
    """
    eta, backtracks, trial, accepted = shrink(
        objective_on_batch, w, d, eta_start, loss0, cfg, _smoothed_holds,
        state.h, s_new, cfg.c, cfg.beta3, state.smoothed)
    if not accepted and eta < cfg.eta_min:
        eta = cfg.eta_min
        trial = objective_on_batch(axpy(eta, d, w))
    h = smooth_update(state.h, loss0 - trial, cfg.beta3, state.smoothed)
    return eta, backtracks, h, trial


def _smoothed_search(batch, w, d_search, d_update, eta, loss0, gnorm_term,
                     state: SlsState, cfg: SalsaConfig):
    """The SaLSa search handed to ``search_step``: smoothed backtracking,
    the optional non-decrease shrink, and the commit of h and s."""
    if d_search is None:
        # Guard path: smoothing state frozen, step still applied.
        if cfg.enforce_nondecrease:
            eta, _ = nondecrease_search(batch.loss, w, d_update, eta, loss0,
                                        cfg)
        return eta, 0

    s_new = smooth_update(state.s, gnorm_term, cfg.beta3, state.smoothed)
    eta, backtracks, h_new, _ = salsa_backtrack(
        batch.loss, w, d_search, eta, loss0, state, s_new, cfg)
    if cfg.enforce_nondecrease:
        eta_nd, trial_nd = nondecrease_search(batch.loss, w, d_update, eta,
                                              loss0, cfg)
        if eta_nd != eta:
            eta = eta_nd
            # Keep h tied to the step size actually applied, measured along
            # the search direction, so a replay of the trace reproduces the
            # committed average.
            if d_update is not d_search:
                trial_nd = batch.loss(axpy(eta, d_search, w))
            h_new = smooth_update(state.h, loss0 - trial_nd, cfg.beta3,
                                  state.smoothed)
    state.h, state.s, state.smoothed = h_new, s_new, True
    return eta, backtracks


def salsa_sgd_step(batch, w: ParamVector, state: SlsState,
                   cfg: SalsaConfig) -> tuple[ParamVector, StepRecord]:
    """One SaLSa step along the negative gradient."""
    return search_step(batch, w, "sgd", state, cfg, _smoothed_search)


def salsa_adam_step(batch, w: ParamVector, state: SlsState,
                    cfg: SalsaConfig) -> tuple[ParamVector, StepRecord]:
    """One SaLSa step with the Adam direction: the criterion uses the
    momentum-free direction and the preconditioned gradient-norm term; the
    applied update keeps momentum."""
    return search_step(batch, w, "adam", state, cfg, _smoothed_search)
