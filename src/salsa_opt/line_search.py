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
from dataclasses import dataclass, field
from typing import Callable

from .core import ConfigError, ParamVector, StepRecord, check_fields, \
    norm_sq
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
    eta_min/eta_max: hard clamps on the step size; being finite, eta_max
                    cannot switch the clamp off

    Building the config also forms the search's two per-step constants,
    with the expressions ``propose_initial_step`` and the guard would use:
    ``regrowth`` = 2**(1/b) and ``grad_eps_sq`` = grad_eps**2. They are
    fixed then; build a new config (``dataclasses.replace``) to change
    ``b`` or ``grad_eps``.
    """

    c: float = field(default=0.1, metadata={"range": "(0,1)"})
    delta: float = field(default=0.9, metadata={"range": "(0,1)"})
    b: float = field(default=500.0, metadata={"range": "> 0"})
    grad_eps: float = field(default=1e-8, metadata={"range": ">= 0"})
    max_backtracks: int = field(default=100, metadata={"range": ">= 0"})
    eta_init: float = 1.0
    eta_min: float = field(default=1e-10, metadata={"range": ">= 0"})
    eta_max: float = 10.0

    def __post_init__(self):
        check_fields(self)
        if not self.eta_min < self.eta_init <= self.eta_max:
            raise ConfigError(
                f"need eta_min < eta_init <= eta_max, got "
                f"{self.eta_min}, {self.eta_init}, {self.eta_max}"
            )
        try:
            self.regrowth = 2.0 ** (1.0 / self.b)
        except OverflowError:
            raise ConfigError(f"b must leave 2**(1/b) finite, "
                              f"got {self.b}") from None
        self.grad_eps_sq = self.grad_eps ** 2


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
    """The settled step size, its shrink count, and the batch loss at
    ``point``, the array ``w + eta * d`` it was evaluated at."""

    eta: float
    backtracks: int
    loss_trial: float
    point: ParamVector


def shrink(objective_on_batch: Callable[[ParamVector], float],
           w: ParamVector, d: ParamVector, eta: float, loss0: float,
           cfg: SlsConfig, holds: Callable[..., bool],
           *args) -> tuple[float, int, float, bool, ParamVector]:
    """Try eta, eta*delta, eta*delta**2, ... until the acceptance test holds.

    A candidate is accepted when its batch loss ``trial`` is finite and
    ``holds(loss0, trial, eta, *args)`` is true, so non-finite trial losses
    count as violations. Performs exactly backtracks+1 objective
    evaluations and returns (eta, backtracks, loss_trial, accepted, point).

    Accepted point: ``point`` is the array ``w + eta * d`` that
    ``loss_trial`` was evaluated at, the very object handed to the
    objective, which must not modify it. A step that moves along ``d``
    itself takes it as its update rather than building the same
    expression from the same operands again; the bits are the same.

    Giving up: after cfg.max_backtracks shrinks without an accepted
    candidate the loop returns the last candidate with accepted=False and
    backtracks=cfg.max_backtracks, the same count as a candidate accepted
    on the last try. Each caller then settles the step size itself: the
    Armijo searches (``backtrack``, ``salsa_backtrack``) clamp it up to
    cfg.eta_min, rebuilding the point and re-evaluating only if the clamp
    changes it, and the non-decrease search drops to cfg.eta_min and
    re-evaluates there. The step is still taken at the settled, unverified
    step size.
    """
    for i in range(cfg.max_backtracks + 1):
        point = w + eta * d
        trial = objective_on_batch(point)
        if math.isfinite(trial) and holds(loss0, trial, eta, *args):
            return eta, i, trial, True, point
        if i < cfg.max_backtracks:
            eta *= cfg.delta
    return eta, cfg.max_backtracks, trial, False, point


def backtrack(objective_on_batch: Callable[[ParamVector], float],
              w: ParamVector, d: ParamVector, eta_start: float, loss0: float,
              gnorm_term: float, cfg: SlsConfig) -> BacktrackResult:
    """Shrink eta by cfg.delta until the Armijo test holds on this batch;
    on giving up, clamp up to cfg.eta_min (see ``shrink``)."""
    eta, backtracks, trial, accepted, point = shrink(
        objective_on_batch, w, d, eta_start, loss0, cfg, armijo_holds, cfg.c,
        gnorm_term)
    if not accepted and eta < cfg.eta_min:
        eta = cfg.eta_min
        point = w + eta * d
        trial = objective_on_batch(point)
    return BacktrackResult(eta, backtracks, trial, point)


def _no_increase(loss0, loss_trial, eta):
    return loss_trial <= loss0


def nondecrease_search(objective_on_batch: Callable[[ParamVector], float],
                       w: ParamVector, d: ParamVector, eta: float,
                       loss0: float, cfg: SlsConfig) -> tuple[float, float]:
    """Largest eta * delta**j whose batch loss does not exceed loss0;
    drops to eta_min when the budget runs out (see ``shrink``). Returns
    (eta, loss_at_eta). The j=0 probe costs one evaluation even when
    nothing shrinks."""
    eta, _, trial, accepted, _ = shrink(objective_on_batch, w, d, eta,
                                        loss0, cfg, _no_increase)
    if not accepted:
        eta = cfg.eta_min
        trial = objective_on_batch(w + eta * d)
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
    cfg)`` returns (eta, backtracks, point). It gets the regrown step size,
    the momentum-free search direction and its gradient-norm term (raw
    squared norm for sgd, preconditioned for adam), or ``d_search=None``
    and the current eta when the guard ||g|| <= grad_eps trips; the guard
    compares squares, so a NaN norm still searches. ``point`` is the array
    ``w + eta * d_search`` the search evaluated at the eta it returns, or
    None when it has none. When the search ran along ``d_update`` itself
    (every sgd search) that point is the update; otherwise the update
    ``w + eta * d_update`` is built here.
    """
    res = batch.eval(w)
    g = res.grad
    gsq = norm_sq(g)
    if kind == "adam":
        adam_update_moments(state.adam, g)
        d_update = adam_direction(state.adam, g, use_momentum=True)
    elif kind == "sgd":
        d_update = sgd_direction(g)
    else:
        raise ValueError(f"unknown optimizer_kind {kind!r}")

    eta, backtracks, searched, w_next = state.eta, 0, False, None
    if search is not None:
        if gsq <= cfg.grad_eps_sq:
            eta, backtracks, _ = search(batch, w, None, d_update, eta,
                                        res.loss, 0.0, state, cfg)
        else:
            searched = True
            if kind == "adam":
                d_search = adam_direction(state.adam, g, use_momentum=False)
                gnorm_term = preconditioned_grad_norm(state.adam, g)
            else:
                d_search, gnorm_term = d_update, gsq
            eta, backtracks, point = search(
                batch, w, d_search, d_update,
                min(eta * cfg.regrowth, cfg.eta_max), res.loss, gnorm_term,
                state, cfg)
            if d_search is d_update:
                w_next = point

    record = StepRecord(state.k, eta, res.loss, gsq, searched, backtracks,
                        batch.key)
    state.eta = eta
    state.k += 1
    if w_next is None:
        w_next = w + eta * d_update
    return w_next, record


def _armijo_search(batch, w, d_search, d_update, eta, loss0, gnorm_term,
                   state, cfg):
    if d_search is None:
        return eta, 0, None
    result = backtrack(batch.loss, w, d_search, eta, loss0, gnorm_term, cfg)
    return result.eta, result.backtracks, result.point


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
