"""EMA-smoothed Armijo line search (SaLSa): the smoothing on top of SLS.

Both batch-dependent sides of the Armijo test are exponentially smoothed:
the realized loss decrease (h) and the gradient-norm term (s). A step size
is accepted when h >= c * eta * s, with h recomputed per candidate step
size because the decrease depends on it. The gradient side does not depend
on the step size, so s is formed before backtracking starts. Everything
else (the step body, the shrink loop, the guard, the give-up rule, the
run state ``SlsState`` with its ``h``/``s`` fields) is the engine in
``line_search.py``; this module holds only the smoothed test and its
commit.

An optional non-decrease mode additionally shrinks the accepted step until
the batch loss does not increase, which restores a classical convergence
guarantee in the full-batch setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import ParamVector, StepRecord
# The four direction names stay bound here because perfbench/tracer.py
# patches them by module; the engine calls its own bindings.
from .directions import adam_direction, adam_update_moments, \
    preconditioned_grad_norm, sgd_direction  # noqa: F401
from .line_search import SlsConfig, SlsState, Trial, search_step, shrink


@dataclass(frozen=True)
class SalsaConfig(SlsConfig):
    """SLS knobs plus the smoothing factor and the non-decrease switch.

    The sufficient-decrease constant defaults to 0.3 here (the smoothed
    criterion tolerates a stiffer c than the raw one, where 0.1 is usual);
    its range is SLS's.
    """

    c: float = field(default=0.3,
                     metadata=SlsConfig.__dataclass_fields__["c"].metadata)
    beta3: float = field(default=0.99, metadata={"range": "(0,1)"})
    enforce_nondecrease: bool = False


def smooth_update(prev: float, x: float, beta3: float, initialized: bool) -> float:
    """One EMA update; seeds with the raw value on the first observation."""
    if not initialized:
        return x
    return beta3 * prev + (1.0 - beta3) * x


def salsa_criterion(h: float, s: float, eta: float, c: float) -> bool:
    """Smoothed sufficient decrease: h >= c * eta * s."""
    return h >= c * eta * s


def no_increase(loss0: float, loss_trial: float, eta: float) -> bool:
    """The non-decrease mode's test: the batch loss does not rise."""
    return loss_trial <= loss0


def _smoothed_holds(loss0, loss_trial, eta, h, s, c, beta3, smoothed):
    return salsa_criterion(
        smooth_update(h, loss0 - loss_trial, beta3, smoothed), s, eta, c)


def salsa_backtrack(objective_on_batch: Callable[[ParamVector], float],
                    w: ParamVector, d: ParamVector, eta_start: float,
                    loss0: float, state: SlsState, s_new: float,
                    cfg: SalsaConfig) -> Trial:
    """Shrink eta until the smoothed criterion holds against s_new (see
    ``line_search.shrink``).

    Each candidate forms a trial h from this batch's decrease at it and
    the h last committed to ``state``, which is only read here. Only an
    accepted trial's loss reaches the h that is committed, so rejected
    trials and give-ups never touch the average.
    """
    return shrink(objective_on_batch, w, d, eta_start, loss0, cfg,
                  _smoothed_holds, state.h, s_new, cfg.c, cfg.beta3,
                  state.smoothed)


def _smoothed_search(batch, w, d_search, d_update, eta, loss0, gnorm_term,
                     state: SlsState, cfg: SalsaConfig) -> Trial | None:
    """The SaLSa search handed to ``search_step``: smoothed backtracking,
    the optional non-decrease shrink along ``d_update`` from the accepted
    step size, and the commit of h and s.

    A give-up of either search returns its trial, not accepted, and
    commits nothing; a smoothed search that gave up runs no non-decrease
    search. ``search_step`` settles the give-up.
    """
    if d_search is None:
        # Guard path: smoothing state frozen, step still applied.
        if cfg.enforce_nondecrease:
            return shrink(batch.loss, w, d_update, eta, loss0, cfg,
                          no_increase)
        return None

    s_new = smooth_update(state.s, gnorm_term, cfg.beta3, state.smoothed)
    trial = salsa_backtrack(batch.loss, w, d_search, eta, loss0, state,
                            s_new, cfg)
    if not trial.accepted:
        return trial
    if cfg.enforce_nondecrease:
        nd = shrink(batch.loss, w, d_update, trial.eta, loss0, cfg,
                    no_increase)
        if not nd.accepted:
            return nd
        if nd.eta != trial.eta:
            # Keep h tied to the step size actually applied, measured along
            # the search direction, so a replay of the trace reproduces the
            # committed average.
            if d_update is d_search:
                point, loss = nd.point, nd.loss
            else:
                point = w + nd.eta * d_search
                loss = batch.loss(point)
            trial = trial._replace(eta=nd.eta, loss=loss, point=point)
    state.h = smooth_update(state.h, loss0 - trial.loss, cfg.beta3,
                            state.smoothed)
    state.s, state.smoothed = s_new, True
    return trial


def salsa_step(batch, w: ParamVector, state: SlsState,
               cfg: SalsaConfig) -> tuple[ParamVector, StepRecord]:
    """One SaLSa step. With ``state.adam`` set, the criterion uses the
    momentum-free Adam direction and the preconditioned gradient-norm
    term, and the applied update keeps momentum; otherwise both run along
    the negative gradient."""
    return search_step(batch, w, state, cfg, _smoothed_search)


# perfbench/tracer.py patches both names in harness
salsa_sgd_step = salsa_adam_step = salsa_step
