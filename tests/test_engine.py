"""Properties of the one search engine over random quadratics and configs.

Both families run through ``line_search.search_step``; these properties
pin its evaluation budget and the SaLSa commit without the non-decrease
mode, which adds evaluations of its own, and the bits of the update every
step returns, with the non-decrease mode and controller skips included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salsa_opt.core import axpy, norm_sq
from salsa_opt.directions import AdamState, adam_direction, \
    preconditioned_grad_norm
from salsa_opt.line_search import SlsConfig, SlsState, \
    apply_without_search, backtrack, sls_step
from salsa_opt.problems import BatchObjective, make_quadratic
from salsa_opt.salsa import SalsaConfig, salsa_adam_step, salsa_backtrack, \
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
        return sls_step(batch, w, state, cfg)
    step = salsa_sgd_step if base == "sgd" else salsa_adam_step
    return step(batch, w, state, cfg)


def last_candidate(eta_prev, cfg):
    eta = min(eta_prev * cfg.regrowth, cfg.eta_max)
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


@st.composite
def update_runs(draw):
    """``runs()``, sometimes with a give-up clamp whose budget runs out far
    above the minimizer, SaLSa's non-decrease mode, and a random pattern of
    steps that a frequency controller skips."""
    family, base, cfg, problem = draw(runs())
    if draw(st.booleans()):
        cfg = dataclasses.replace(cfg, eta_init=1e6, eta_max=1e6,
                                  max_backtracks=2)
    if family == "salsa" and draw(st.booleans()):
        cfg = dataclasses.replace(cfg, enforce_nondecrease=True)
    skips = draw(st.lists(st.booleans(), min_size=STEPS, max_size=STEPS))
    return family, base, cfg, problem, skips


@given(update_runs())
@settings(max_examples=150, deadline=None)
def test_every_update_is_w_plus_eta_d_update_bit_for_bit(run):
    family, base, cfg, problem, skips = run
    adam = AdamState.zeros(problem.dim) if base == "adam" else None
    state = SlsState(eta=cfg.eta_init, adam=adam)
    w = problem.init_params(0)
    indices = np.arange(problem.dataset_size)
    for skip in skips:
        batch = BatchObjective(problem, indices)
        w_next, rec = apply_without_search(batch, w, state) if skip \
            else take_step(family, base, batch, w, state, cfg)
        g = problem.loss_grad(w, indices).grad
        d_update = -g if base == "sgd" else \
            adam_direction(state.adam, g, use_momentum=True)
        assert w_next.tobytes() == (w + rec.eta * d_update).tobytes()
        w = w_next


@given(b=st.floats(1e-3, 1e6), grad_eps=st.floats(0.0, 1e3),
       eta_max=st.floats(1e-9, 1e4))
@settings(max_examples=200, deadline=None)
def test_stored_constants_are_the_per_step_expressions(b, grad_eps, eta_max):
    cfg = SlsConfig(b=b, grad_eps=grad_eps, eta_init=min(1.0, eta_max),
                    eta_max=eta_max)
    assert cfg.grad_eps_sq == grad_eps ** 2
    assert cfg.regrowth == 2.0 ** (1.0 / b)
    # a changed config forms them again
    changed = dataclasses.replace(cfg, b=2 * b, grad_eps=grad_eps / 2)
    assert changed.regrowth == 2.0 ** (1.0 / (2 * b))
    assert changed.grad_eps_sq == (grad_eps / 2) ** 2


class RecordingBatch(BatchObjective):
    """A batch objective that keeps every point the search evaluates."""

    def __init__(self, problem):
        super().__init__(problem, np.arange(problem.dataset_size))
        self.points = []

    def loss(self, w):
        self.points.append(w)
        return super().loss(w)


def test_sgd_search_step_returns_the_array_its_accepted_trial_evaluated():
    problem = make_quadratic(dim=4, cond=10.0, seed=2)
    for family in ("sls", "salsa"):
        cfg = SalsaConfig() if family == "salsa" else SlsConfig()
        state = SlsState(eta=cfg.eta_init)
        w = problem.init_params(0)
        for _ in range(STEPS):
            batch = RecordingBatch(problem)
            w_next, rec = take_step(family, "sgd", batch, w, state, cfg)
            assert rec.searched and rec.backtracks < cfg.max_backtracks
            assert len(batch.points) == rec.backtracks + 1
            assert w_next is batch.points[-1]
            w = w_next


@pytest.mark.parametrize("family", ["sls", "salsa"])
def test_accepted_on_the_last_try_is_not_a_give_up(family):
    # From eta 1 along d = -1, delta 0.5 gives the candidates 1, 0.5, 0.25
    # and 0.125: with a budget of 3 shrinks an acceptance on the fourth
    # try and a give-up both report backtracks == max_backtracks, and
    # only ``accepted`` tells them apart.
    w, d = np.zeros(1), -np.ones(1)
    if family == "sls":
        cfg = SlsConfig(delta=0.5, max_backtracks=3)

        def search(objective):
            return backtrack(objective, w, d, 1.0, 0.0, 1.0, cfg)
    else:
        cfg = SalsaConfig(delta=0.5, max_backtracks=3)

        def search(objective):
            return salsa_backtrack(objective, w, d, 1.0, 0.0,
                                   SlsState(eta=1.0), 1.0, cfg)

    last = search(lambda point: -10.0 if -point[0] < 0.2 else 1.0)
    assert (last.eta, last.backtracks, last.accepted) == (0.125, 3, True)
    gave_up = search(lambda point: 1.0)
    assert (gave_up.eta, gave_up.backtracks, gave_up.accepted) == \
        (0.125, 3, False)
