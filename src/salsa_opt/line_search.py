"""The one line-search engine, and the backtracking Armijo search (SLS).

Every search kind takes the same step (``search_step``): evaluate the batch
once, fold the gradient into the Adam moments, regrow the previous step
size by 2**(1/b), hand it to a search, apply the update and record the
step. Every search shrinks the step size in the same loop (``shrink``),
which takes the acceptance test as an argument and evaluates both sides on
the same mini-batch. SLS passes the raw Armijo test and SaLSa
(``salsa.py``) the smoothed one. Every kind runs on one state,
``SlsState``; only SaLSa's search reads and commits its smoothing fields
``h``/``s``, so SLS is SaLSa without the smoothing. Steps whose gradient
is numerically zero skip the search and reuse the last accepted step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import ParamVector, StepRecord, axpy, norm_sq
from .directions import AdamState, adam_direction, adam_update_moments, \
    preconditioned_grad_norm, sgd_direction


@dataclass
class SlsConfig:
    """Knobs of the classic stochastic Armijo search.

    c:              sufficient-decrease constant in (0,1)
    delta:          backtracking shrink factor in (0,1)
    b:              step regrowth is 2**(1/b) per step
    grad_eps:       skip the search when the gradient norm is <= this
    max_backtracks: shrink budget before giving up on a step
    eta_init:       step size before the first search
    eta_min/eta_max: hard clamps on the step size
    """

    c: float = 0.1
    delta: float = 0.9
    b: float = 500.0
    grad_eps: float = 1e-8
    max_backtracks: int = 100
    eta_init: float = 1.0
    eta_min: float = 1e-10
    eta_max: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must be in (0,1), got {self.c}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if self.b <= 0:
            raise ValueError(f"b must be > 0, got {self.b}")
        if not self.eta_min < self.eta_init <= self.eta_max:
            raise ValueError(
                f"need eta_min < eta_init <= eta_max, got "
                f"{self.eta_min}, {self.eta_init}, {self.eta_max}"
            )
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be >= 0")


@dataclass
class SlsState:
    """Mutable per-run state of every search kind: the last accepted step
    size, the step counter, the Adam moments of an adam kind, and SaLSa's
    smoothed loss decrease h and gradient-norm term s.

    h and s hold no meaningful values until the first smoothed search
    commits and sets ``smoothed``; that search seeds them with its raw
    values. SLS and no-search steps never touch them.
    """

    eta: float
    k: int = 0
    adam: AdamState | None = None
    h: float = 0.0
    s: float = 0.0
    smoothed: bool = False


def propose_initial_step(eta_prev: float, b: float, eta_max: float) -> float:
    """Regrow the previous step size by 2**(1/b), clamped to eta_max."""
    return min(eta_prev * 2.0 ** (1.0 / b), eta_max)


def armijo_holds(loss0: float, loss_trial: float, eta: float, c: float,
                 gnorm_term: float) -> bool:
    """Sufficient decrease: loss_trial <= loss0 - c * eta * gnorm_term."""
    return loss_trial <= loss0 - c * eta * gnorm_term


@dataclass
class BacktrackResult:
    eta: float
    backtracks: int
    loss_trial: float


def shrink(objective_on_batch: Callable[[ParamVector], float],
           w: ParamVector, d: ParamVector, eta: float, loss0: float,
           cfg: SlsConfig, holds: Callable[..., bool],
           *args) -> tuple[float, int, float, bool]:
    """Try eta, eta*delta, eta*delta**2, ... until the acceptance test holds.

    A candidate is accepted when its batch loss ``trial`` is finite and
    ``holds(loss0, trial, eta, *args)`` is true, so non-finite trial losses
    count as violations. Performs exactly backtracks+1 objective
    evaluations and returns (eta, backtracks, loss_trial, accepted).

    Giving up: after cfg.max_backtracks shrinks without an accepted
    candidate the loop returns the last candidate with accepted=False and
    backtracks=cfg.max_backtracks, the same count as a candidate accepted
    on the last try. Each caller then settles the step size itself: the
    Armijo searches (``backtrack``, ``salsa_backtrack``) clamp it up to
    cfg.eta_min, re-evaluating only if the clamp changes it, and the
    non-decrease search drops to cfg.eta_min and re-evaluates there. The
    step is still taken at the settled, unverified step size.
    """
    for i in range(cfg.max_backtracks + 1):
        trial = objective_on_batch(axpy(eta, d, w))
        if math.isfinite(trial) and holds(loss0, trial, eta, *args):
            return eta, i, trial, True
        if i < cfg.max_backtracks:
            eta *= cfg.delta
    return eta, cfg.max_backtracks, trial, False


def backtrack(objective_on_batch: Callable[[ParamVector], float],
              w: ParamVector, d: ParamVector, eta_start: float, loss0: float,
              gnorm_term: float, cfg: SlsConfig) -> BacktrackResult:
    """Shrink eta by cfg.delta until the Armijo test holds on this batch;
    on giving up, clamp up to cfg.eta_min (see ``shrink``)."""
    eta, backtracks, trial, accepted = shrink(
        objective_on_batch, w, d, eta_start, loss0, cfg, armijo_holds, cfg.c,
        gnorm_term)
    if not accepted and eta < cfg.eta_min:
        eta = cfg.eta_min
        trial = objective_on_batch(axpy(eta, d, w))
    return BacktrackResult(eta=eta, backtracks=backtracks, loss_trial=trial)


def _no_increase(loss0, loss_trial, eta):
    return loss_trial <= loss0


def nondecrease_search(objective_on_batch: Callable[[ParamVector], float],
                       w: ParamVector, d: ParamVector, eta: float,
                       loss0: float, cfg: SlsConfig) -> tuple[float, float]:
    """Largest eta * delta**j whose batch loss does not exceed loss0;
    drops to eta_min when the budget runs out (see ``shrink``). Returns
    (eta, loss_at_eta). The j=0 probe costs one evaluation even when
    nothing shrinks."""
    eta, _, trial, accepted = shrink(objective_on_batch, w, d, eta, loss0,
                                     cfg, _no_increase)
    if not accepted:
        eta = cfg.eta_min
        trial = objective_on_batch(axpy(eta, d, w))
    return eta, trial


def search_step(batch, w: ParamVector, kind: str, state: SlsState,
                cfg: SlsConfig | None,
                search: Callable | None) -> tuple[ParamVector, StepRecord]:
    """The step body shared by every search kind; mutates ``state``.

    Evaluates the batch once at w, folds the gradient into the Adam moments
    (advancing ``state.adam`` in place) and applies the update along the
    momentum direction. ``search=None`` is a frequency-skipped step: the
    current eta is applied as is. Otherwise
    ``search(batch, w, d_search, d_update, eta, loss0, gnorm_term, state,
    cfg)`` returns (eta, backtracks). It gets the regrown step size, the
    momentum-free search direction and its gradient-norm term (raw squared
    norm for sgd, preconditioned for adam), or ``d_search=None`` and the
    current eta when the guard ||g|| <= grad_eps trips; the guard compares
    squares, so a NaN norm still searches.
    """
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer_kind {kind!r}")
    res = batch.eval(w)
    g = res.grad
    gsq = norm_sq(g)
    if kind == "adam":
        adam_update_moments(state.adam, g)
        d_update = adam_direction(state.adam, g, use_momentum=True)
    else:
        d_update = sgd_direction(g)

    eta, backtracks, searched = state.eta, 0, False
    if search is not None:
        if gsq <= cfg.grad_eps ** 2:
            eta, backtracks = search(batch, w, None, d_update, eta, res.loss,
                                     0.0, state, cfg)
        else:
            searched = True
            if kind == "adam":
                d_search = adam_direction(state.adam, g, use_momentum=False)
                gnorm_term = preconditioned_grad_norm(state.adam, g)
            else:
                d_search, gnorm_term = d_update, gsq
            eta, backtracks = search(
                batch, w, d_search, d_update,
                propose_initial_step(eta, cfg.b, cfg.eta_max), res.loss,
                gnorm_term, state, cfg)

    w_next = axpy(eta, d_update, w)
    record = StepRecord(k=state.k, eta=eta, loss=res.loss, grad_norm_sq=gsq,
                        searched=searched, backtracks=backtracks,
                        batch_seed=batch.key)
    state.eta = eta
    state.k += 1
    return w_next, record


def _armijo_search(batch, w, d_search, d_update, eta, loss0, gnorm_term,
                   state, cfg):
    if d_search is None:
        return eta, 0
    result = backtrack(batch.loss, w, d_search, eta, loss0, gnorm_term, cfg)
    return result.eta, result.backtracks


def sls_step(batch, w: ParamVector, optimizer_kind: str, state: SlsState,
             cfg: SlsConfig) -> tuple[ParamVector, StepRecord]:
    """One SLS step: ``search_step`` with the raw Armijo search."""
    return search_step(batch, w, optimizer_kind, state, cfg, _armijo_search)


def apply_without_search(batch, w: ParamVector, optimizer_kind: str,
                         state: SlsState) -> tuple[ParamVector, StepRecord]:
    """Take a step with the current eta and no search (a frequency-skipped
    step, or a fixed-rate baseline step at its scheduled eta). The gradient
    is still evaluated and, for adam, folded into the moments;
    smoothing/search state stays frozen since no search runs."""
    return search_step(batch, w, optimizer_kind, state, None, None)
