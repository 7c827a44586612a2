"""Properties of the one search engine over random quadratics and configs.

Both families run through ``line_search.search_step``; these properties
pin its evaluation budget and the SaLSa commit without the non-decrease
mode, which adds evaluations of its own.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from salsa_opt.core import axpy, norm_sq
from salsa_opt.directions import AdamState, adam_direction, \
    preconditioned_grad_norm
from salsa_opt.line_search import SlsConfig, SlsState, propose_initial_step, \
    sls_step
from salsa_opt.problems import BatchObjective, make_quadratic
from salsa_opt.salsa import SalsaConfig, salsa_adam_step, \
    salsa_sgd_step, smooth_update

STEPS = 5


@st.composite
def runs(draw):
    """A random quadratic, a search kind and a config that reaches give-ups,
    eta_min clamps and the gradient guard."""
    family = draw(st.sampled_from(["sls", "salsa"]))
    base = draw(st.sampled_from(["sgd", "adam"]))
    eta_init = 10.0 ** draw(st.floats(-2.0, 3.0))
    knobs = dict(
        c=draw(st.floats(0.01, 0.9)),
        delta=draw(st.floats(0.1, 0.9)),
        max_backtracks=draw(st.integers(0, 6)),
        eta_init=eta_init,
        eta_max=eta_init * draw(st.sampled_from([1.0, 4.0])),
        eta_min=eta_init * draw(st.sampled_from([1e-12, 1e-2, 0.5])),
        grad_eps=draw(st.sampled_from([1e-8, 1.0])),
    )
    cfg = SalsaConfig(beta3=draw(st.floats(0.01, 0.99)), **knobs) \
        if family == "salsa" else SlsConfig(**knobs)
    problem = make_quadratic(dim=draw(st.integers(1, 5)),
                             cond=10.0 ** draw(st.floats(0.0, 3.0)),
                             seed=draw(st.integers(0, 50)))
    return family, base, cfg, problem


def take_step(family, base, batch, w, state, cfg):
    if family == "sls":
        return sls_step(batch, w, base, state, cfg)
    step = salsa_sgd_step if base == "sgd" else salsa_adam_step
    return step(batch, w, state, cfg)


def last_candidate(eta_prev, cfg):
    eta = propose_initial_step(eta_prev, cfg.b, cfg.eta_max)
    for _ in range(cfg.max_backtracks):
        eta *= cfg.delta
    return eta


@given(runs())
@settings(max_examples=150, deadline=None)
def test_eval_count_and_commit_of_h_and_s(run):
    family, base, cfg, problem = run
    adam = AdamState.zeros(problem.dim) if base == "adam" else None
    state = SlsState(eta=cfg.eta_init, adam=adam)
    w = problem.init_params(0)
    indices = np.arange(problem.dataset_size)
    for _ in range(STEPS):
        batch = BatchObjective(problem, indices)
        eta_prev = state.eta
        h_prev, s_prev, seeded = state.h, state.s, state.smoothed
        w_next, rec = take_step(family, base, batch, w, state, cfg)

        gave_up_low = (rec.searched and rec.backtracks == cfg.max_backtracks
                       and last_candidate(eta_prev, cfg) < cfg.eta_min)
        clamped = gave_up_low and rec.eta == cfg.eta_min
        assert batch.n_evals == 1 + (rec.backtracks + 1 if rec.searched
                                     else 0) + (1 if clamped else 0)

        if family == "sls" or not rec.searched:
            # SLS never touches the smoothing fields; SaLSa only on a search
            assert (state.h, state.s, state.smoothed) == \
                (h_prev, s_prev, seeded)
        else:
            g = problem.loss_grad(w, indices).grad
            if base == "sgd":
                d_search, gterm = -g, norm_sq(g)
            else:
                d_search = adam_direction(state.adam, g, use_momentum=False)
                gterm = preconditioned_grad_norm(state.adam, g)
            trial = problem.loss_grad(axpy(rec.eta, d_search, w), indices,
                                      grad=False).loss
            # only the applied step size's decrease reaches h: rejected
            # trials never touch it
            assert state.h == smooth_update(h_prev, rec.loss - trial,
                                            cfg.beta3, seeded)
            assert state.s == smooth_update(s_prev, gterm, cfg.beta3, seeded)
            assert state.smoothed
        w = w_next
