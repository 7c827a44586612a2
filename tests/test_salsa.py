"""Smoothed criterion: EMA updates, backtracking, steps, non-decrease mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_batch, make_centered_quadratic
from salsa_opt.core import axpy, seeded_rng
from salsa_opt.directions import AdamState
from salsa_opt.line_search import SlsState, shrink
from salsa_opt.problems import BatchObjective, make_quadratic
from salsa_opt.salsa import (SalsaConfig, no_increase, salsa_adam_step,
                             salsa_backtrack, salsa_criterion, salsa_sgd_step,
                             smooth_update)


def reference_ema(xs, beta):
    """Unrolled closed form with the first value as seed:
    h_k = beta^(k-1) x_1 + (1-beta) sum_{i>=2} beta^(k-i) x_i."""
    k = len(xs)
    total = beta ** (k - 1) * xs[0]
    for i in range(1, k):
        total += (1.0 - beta) * beta ** (k - 1 - i) * xs[i]
    return total


class TestSmoothUpdate:
    def test_seed_rule(self):
        assert smooth_update(123.0, 7.5, 0.99, initialized=False) == 7.5

    def test_basic_arithmetic(self):
        assert smooth_update(1.0, 0.0, 0.99, initialized=True) == \
            pytest.approx(0.99)

    def test_constant_input_converges(self):
        x, seed = 5.0, 0.0
        h = smooth_update(0.0, seed, 0.99, initialized=False)
        for _ in range(300):
            h = smooth_update(h, x, 0.99, initialized=True)
        assert abs(h - x) <= 0.05 * abs(x - seed)  # 0.99**300 ~ 0.049

    def test_matches_closed_form_unroll(self):
        rng = seeded_rng(77)
        xs = rng.standard_normal(40)
        h = smooth_update(0.0, xs[0], 0.9, initialized=False)
        for x in xs[1:]:
            h = smooth_update(h, x, 0.9, initialized=True)
        assert h == pytest.approx(reference_ema(xs, 0.9), rel=1e-12)

    def test_linearity_in_newest_input_dyadic_exact(self):
        # beta and inputs chosen dyadic so the identity is exact in floats
        h, beta = 1.0, 0.5
        d1, d2 = 0.25, 0.125
        delta = smooth_update(h, d1, beta, True) - smooth_update(h, d2, beta, True)
        assert delta == (1.0 - beta) * (d1 - d2)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_linearity_in_newest_input(self, h, d1, d2):
        got = smooth_update(h, d1, 0.99, True) - smooth_update(h, d2, 0.99, True)
        assert got == pytest.approx((1.0 - 0.99) * (d1 - d2), abs=1e-12)


class TestSalsaCriterion:
    def test_holds(self):
        assert salsa_criterion(0.05, 0.5, 0.1, 0.3)  # 0.05 >= 0.015

    def test_fails(self):
        assert not salsa_criterion(0.01, 0.5, 0.1, 0.3)

    def test_degenerate_zero_s(self):
        assert salsa_criterion(0.0, 0.0, 1.0, 0.3)


class TestSalsaBacktrack:
    def test_first_step_reduces_to_raw_armijo(self, quadratic_1d):
        # uninitialized state: trial h is the raw decrease, so the test is
        # exactly the plain Armijo inequality with c = 0.3
        cfg = SalsaConfig()
        state = SlsState(eta=1.0)
        batch = full_batch(quadratic_1d)
        eta, bts, trial, _, _ = salsa_backtrack(
            batch.loss, np.array([1.0]), np.array([-1.0]), eta_start=1.0,
            loss0=0.5, state=state, s_new=1.0, cfg=cfg)
        h = smooth_update(state.h, 0.5 - trial, cfg.beta3, state.smoothed)
        assert eta == 1.0 and bts == 0
        assert h == 0.5 - trial == 0.5  # decrease seeds h directly

    def test_large_history_carries_negative_decrease(self):
        # h=1, s=1, c=0.3, eta=1, current decrease -0.1:
        # trial h = 0.99*1 + 0.01*(-0.1) = 0.989 >= 0.3 -> accepted, 0 shrinks
        cfg = SalsaConfig()
        state = SlsState(eta=1.0, h=1.0, s=1.0, smoothed=True)
        eta, bts, trial, _, _ = salsa_backtrack(
            lambda w: 1.1, np.zeros(1), np.zeros(1), eta_start=1.0,
            loss0=1.0, state=state, s_new=1.0, cfg=cfg)
        h = smooth_update(state.h, 1.0 - trial, cfg.beta3, state.smoothed)
        assert bts == 0
        assert eta == 1.0
        assert h == pytest.approx(0.989, rel=1e-12)

    def test_matches_reference_shrink_loop(self, quadratic_1d):
        cfg = SalsaConfig(eta_init=8.0, eta_max=16.0)
        state = SlsState(eta=8.0, h=0.05, s=0.9, smoothed=True)
        w, d, loss0, s_new = np.array([1.0]), np.array([-1.0]), 0.5, 1.0

        # independent oracle implementing the smoothed rule directly
        eta_ref, bts_ref = 8.0, 0
        while True:
            trial = quadratic_1d.full_loss(w + eta_ref * d)
            h_ref = 0.99 * state.h + 0.01 * (loss0 - trial)
            if h_ref >= cfg.c * eta_ref * s_new or bts_ref >= cfg.max_backtracks:
                break
            eta_ref *= cfg.delta
            bts_ref += 1

        batch = full_batch(quadratic_1d)
        eta, bts, trial, _, _ = salsa_backtrack(batch.loss, w, d, 8.0, loss0,
                                                state, s_new, cfg)
        h = smooth_update(state.h, loss0 - trial, cfg.beta3, state.smoothed)
        assert eta == pytest.approx(eta_ref, rel=1e-15)
        assert bts == bts_ref > 0
        assert h == pytest.approx(h_ref, rel=1e-12)


def nondecrease_search(objective, w, d, eta, loss0, cfg):
    """The non-decrease search that SaLSa's non-decrease mode runs."""
    return shrink(objective, w, d, eta, loss0, cfg, no_increase)


class TestEnforceNondecrease:
    def test_already_nonincreasing_unchanged(self, quadratic_1d):
        batch = full_batch(quadratic_1d)
        eta = nondecrease_search(batch.loss, np.array([1.0]),
                                 np.array([-1.0]), 1.0, 0.5, SalsaConfig()).eta
        assert eta == 1.0
        assert batch.n_evals == 1  # the check itself, nothing more

    def test_overshoot_matches_reference_loop(self, quadratic_1d):
        # w=1, d=-1, eta=3: f(-2) = 2 > 0.5, shrink until past the eta<=2 boundary
        cfg = SalsaConfig()
        eta_ref = 3.0
        while quadratic_1d.full_loss(np.array([1.0 - eta_ref])) > 0.5:
            eta_ref *= cfg.delta
        batch = full_batch(quadratic_1d)
        eta = nondecrease_search(batch.loss, np.array([1.0]),
                                 np.array([-1.0]), 3.0, 0.5, cfg).eta
        assert eta == pytest.approx(eta_ref, rel=1e-15)
        assert eta <= 2.0

    def test_zero_direction_any_eta(self, quadratic_1d):
        batch = full_batch(quadratic_1d)
        eta = nondecrease_search(batch.loss, np.array([1.0]), np.zeros(1),
                                 5.0, 0.5, SalsaConfig(eta_max=16.0)).eta
        assert eta == 5.0


class TestSalsaSgdStep:
    def test_guard_freezes_smoothing_state(self):
        prob = make_centered_quadratic(dim=2)
        cfg = SalsaConfig()
        state = SlsState(eta=0.4, h=1.0, s=2.0, smoothed=True)
        w_next, rec = salsa_sgd_step(full_batch(prob), np.zeros(2), state, cfg)
        assert not rec.searched
        assert state.h == 1.0 and state.s == 2.0 and state.smoothed
        np.testing.assert_array_equal(w_next, np.zeros(2))

    def test_quadratic_with_nondecrease_converges(self, quadratic_1d):
        cfg = SalsaConfig(enforce_nondecrease=True)
        state = SlsState(eta=cfg.eta_init)
        w = np.array([10.0])
        losses = []
        for _ in range(200):
            batch = full_batch(quadratic_1d)
            losses.append(quadratic_1d.full_loss(w))
            w, _ = salsa_sgd_step(batch, w, state, cfg)
        losses.append(quadratic_1d.full_loss(w))
        assert abs(w[0]) <= 1e-4
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_lower_eta_variance_than_sls_under_noise(self):
        # noisy mini-batch streams, paired by run seed; the run is long
        # enough that the raw search's step size has reached its criterion
        # boundary, where per-batch noise makes it jitter seed-dependently
        from salsa_opt.harness import run_single
        from salsa_opt.problems import make_logreg

        prob = make_logreg(n=1000, dim=10, seed=2, label_noise=0.3)
        finals = {"sgd_sls": [], "sgd_salsa": []}
        for kind in finals:
            for seed in range(5):
                r = run_single(prob, {"kind": kind}, seed=seed, epochs=20,
                               batch_size=8)
                finals[kind].append(np.log10(r.trace.records[-1].eta))
        assert np.var(finals["sgd_salsa"], ddof=1) < \
            np.var(finals["sgd_sls"], ddof=1)


class TestSalsaAdamStep:
    def test_unit_preconditioner_matches_sgd_s_update(self):
        # one linear-gradient step where v_hat lands exactly at 1
        from helpers import make_linear
        prob = make_linear(dim=3, slope=1.0)
        cfg = SalsaConfig()
        st_sgd = SlsState(eta=cfg.eta_init)
        salsa_sgd_step(full_batch(prob), np.zeros(3), st_sgd, cfg)
        st_adam = SlsState(eta=cfg.eta_init,
                           adam=AdamState.zeros(3, epsilon=1e-300))
        salsa_adam_step(full_batch(prob), np.zeros(3), st_adam, cfg)
        assert st_adam.s == pytest.approx(st_sgd.s, rel=1e-12)

    def test_ill_conditioned_quadratic_converges(self):
        prob = make_quadratic(dim=2, cond=100, seed=3)
        cfg = SalsaConfig()
        state = SlsState(eta=cfg.eta_init, adam=AdamState.zeros(2))
        w = prob.init_params(0)
        best = np.inf
        for _ in range(5000):
            batch = BatchObjective(prob, np.arange(1), key=0)
            w, rec = salsa_adam_step(batch, w, state, cfg)
            best = min(best, np.sqrt(rec.grad_norm_sq))
        assert best <= 1e-5

    def test_first_step_seeds_h_and_s(self, quadratic_1d):
        cfg = SalsaConfig()
        state = SlsState(eta=cfg.eta_init, adam=AdamState.zeros(1))
        assert not state.smoothed
        batch = full_batch(quadratic_1d)
        w0 = np.array([2.0])
        loss0 = quadratic_1d.full_loss(w0)
        w, rec = salsa_adam_step(batch, w0, state, cfg)
        assert state.smoothed
        # seeded s is the raw preconditioned norm, seeded h the raw decrease
        assert state.s > 0
        assert state.h == pytest.approx(
            loss0 - quadratic_1d.full_loss(w), rel=1e-12)


class TestSmoothingInvariants:
    def test_committed_triples_satisfy_criterion(self):
        prob = make_quadratic(dim=4, cond=30, seed=5)
        cfg = SalsaConfig()
        state = SlsState(eta=cfg.eta_init)
        w = prob.init_params(1)
        for _ in range(300):
            batch = BatchObjective(prob, np.arange(1), key=0)
            w, rec = salsa_sgd_step(batch, w, state, cfg)
            if rec.searched and rec.backtracks < cfg.max_backtracks:
                assert state.h >= cfg.c * rec.eta * state.s - 1e-9
                assert state.s >= 0.0

    def test_warmed_up_raw_armijo_stream_accepts_immediately(self):
        # eta_max small enough that the raw criterion holds at every
        # proposal; after the seed step salsa must accept with 0 backtracks
        prob = make_centered_quadratic(dim=3)
        cfg = SalsaConfig(eta_init=0.25, eta_max=0.5)
        state = SlsState(eta=cfg.eta_init)
        w = np.full(3, 2.0)
        for i in range(20):
            batch = full_batch(prob)
            loss0 = prob.full_loss(w)
            g = prob.loss_grad(w, None).grad
            w, rec = salsa_sgd_step(batch, w, state, cfg)
            if not rec.searched:
                break
            raw_ok = prob.full_loss(w) <= loss0 - cfg.c * rec.eta * (g @ g)
            assert raw_ok, "stream construction broken"
            assert rec.backtracks == 0

    def test_s_nonnegative_under_random_streams(self):
        rng = seeded_rng(31)
        for _ in range(20):
            s = smooth_update(0.0, float(rng.random()), 0.99, False)
            for _ in range(50):
                s = smooth_update(s, float(rng.random()), 0.99, True)
                assert s >= 0.0


class TestOneBeta3:
    def test_fresh_state_smooths_at_config_beta3(self):
        # the run state carries no factor of its own, so a default
        # SlsState stepped with beta3=0.5 must average at 0.5
        prob = make_centered_quadratic(dim=2, eigs=[1.0, 3.0])
        cfg = SalsaConfig(beta3=0.5)
        state = SlsState(eta=1.0)
        w = np.array([2.0, -1.0])
        raw_h, raw_s = [], []
        for _ in range(2):
            g = prob.loss_grad(w, None).grad
            w_next, rec = salsa_sgd_step(full_batch(prob), w, state, cfg)
            assert rec.searched
            raw_h.append(rec.loss - prob.full_loss(axpy(rec.eta, -g, w)))
            raw_s.append(g @ g)
            w = w_next
        assert state.h == 0.5 * raw_h[0] + 0.5 * raw_h[1]
        assert state.s == 0.5 * raw_s[0] + 0.5 * raw_s[1]


class TestSalsaConfig:
    def test_beta3_out_of_range(self):
        with pytest.raises(ValueError):
            SalsaConfig(beta3=1.0)

    def test_default_c(self):
        assert SalsaConfig().c == 0.3
        assert SalsaConfig().beta3 == 0.99

    @pytest.mark.parametrize("value", ["0.99", True, None])
    def test_non_real_beta3_rejected(self, value):
        with pytest.raises(ValueError, match="beta3 must be a real number"):
            SalsaConfig(beta3=value)

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_non_bool_enforce_nondecrease_rejected(self, value):
        with pytest.raises(ValueError, match="enforce_nondecrease must be "
                                             "true or false"):
            SalsaConfig(enforce_nondecrease=value)

    def test_nondecrease_with_zero_eta_min_rejected(self):
        # every give-up takes eta_min, and a searched step cannot take 0
        with pytest.raises(ValueError, match="eta_min must be > 0"):
            SalsaConfig(enforce_nondecrease=True, eta_min=0.0)

    def test_zero_eta_min_rejected(self):
        with pytest.raises(ValueError, match="eta_min must be > 0, got 0.0"):
            SalsaConfig(eta_min=0.0)
