"""Classic stochastic Armijo search: growth, criterion, backtracking, steps."""

import numpy as np
import pytest

from helpers import full_batch, make_centered_quadratic, make_linear
from salsa_opt.core import axpy, norm_sq
from salsa_opt.directions import AdamState
from salsa_opt.line_search import (SlsConfig, SlsState, armijo_holds,
                                   backtrack, sls_step)


class TestRegrowth:
    """A step whose first candidate is accepted records the regrown step
    size, min(eta * cfg.regrowth, cfg.eta_max): on a linear objective the
    Armijo test holds for every step size, so nothing shrinks."""

    @staticmethod
    def first_candidate(eta_prev, **knobs):
        cfg = SlsConfig(**knobs)
        state = SlsState(eta=eta_prev)
        _, rec = sls_step(full_batch(make_linear()), np.zeros(2), state, cfg)
        assert rec.searched and rec.backtracks == 0
        assert rec.eta == min(eta_prev * cfg.regrowth, cfg.eta_max)
        return rec.eta

    def test_exponent_one_doubles(self):
        assert self.first_candidate(1.0, b=1.0) == 2.0

    def test_default_growth_factor(self):
        # independent route: exp(ln2 / 500) = 1.0013872557...
        import math
        eta = self.first_candidate(1.0)
        assert eta == pytest.approx(math.exp(math.log(2.0) / 500.0),
                                    rel=1e-14)
        assert eta == pytest.approx(1.0013872557, abs=1e-9)

    def test_clamped_at_eta_max(self):
        assert self.first_candidate(10.0, eta_max=10.0) == 10.0


class TestArmijoHolds:
    def test_sufficient_decrease_true(self):
        assert armijo_holds(1.0, 0.9, 1.0, 0.1, 0.5)  # 0.9 <= 0.95

    def test_insufficient_decrease_false(self):
        assert not armijo_holds(1.0, 0.96, 1.0, 0.1, 0.5)

    def test_boundary_equality_with_zero_norm(self):
        assert armijo_holds(1.0, 1.0, 1.0, 0.1, 0.0)


def _reference_shrink_sequence(loss_at, eta_start, loss0, gnorm, c, delta,
                               budget):
    """Brute-force oracle: apply delta until the criterion holds."""
    eta = eta_start
    for i in range(budget + 1):
        if loss_at(eta) <= loss0 - c * eta * gnorm:
            return eta, i
        if i < budget:
            eta *= delta
    return eta, budget


class TestBacktrack:
    def test_quadratic_accepts_full_step(self, quadratic_1d):
        # f = w^2/2 at w=1, d=-1: f(0)=0 <= 0.5 - 0.1*1*1 = 0.4
        batch = full_batch(quadratic_1d)
        res = backtrack(batch.loss, np.array([1.0]), np.array([-1.0]),
                        eta_start=1.0, loss0=0.5, gnorm_term=1.0,
                        cfg=SlsConfig())
        assert res.eta == 1.0
        assert res.backtracks == 0
        assert res.loss == 0.0

    def test_overshoot_matches_reference_loop(self, quadratic_1d):
        cfg = SlsConfig(eta_init=8.0, eta_max=16.0)
        batch = full_batch(quadratic_1d)
        w, d = np.array([1.0]), np.array([-1.0])

        def loss_at(eta):
            return quadratic_1d.full_loss(w + eta * d)

        exp_eta, exp_bt = _reference_shrink_sequence(
            loss_at, 8.0, 0.5, 1.0, cfg.c, cfg.delta, cfg.max_backtracks)
        res = backtrack(batch.loss, w, d, 8.0, 0.5, 1.0, cfg)
        assert res.eta == pytest.approx(exp_eta, rel=1e-15)
        assert res.backtracks == exp_bt
        assert res.backtracks > 0

    def test_zero_gnorm_accepts_nonincrease(self, quadratic_1d):
        batch = full_batch(quadratic_1d)
        res = backtrack(batch.loss, np.array([0.0]), np.array([0.0]),
                        eta_start=1.0, loss0=0.0, gnorm_term=0.0,
                        cfg=SlsConfig())
        assert res.backtracks == 0

    def test_eval_count_is_backtracks_plus_one(self, quadratic_1d):
        batch = full_batch(quadratic_1d)
        res = backtrack(batch.loss, np.array([1.0]), np.array([-1.0]),
                        eta_start=8.0, loss0=0.5, gnorm_term=1.0,
                        cfg=SlsConfig(eta_init=8.0, eta_max=16.0))
        assert batch.n_evals == res.backtracks + 1

    def test_nonfinite_trial_treated_as_violation(self):
        calls = []

        def weird_loss(w):
            calls.append(float(w[0]))
            return float("nan") if len(calls) == 1 else -1.0

        res = backtrack(weird_loss, np.array([0.0]), np.array([-1.0]),
                        eta_start=1.0, loss0=1.0, gnorm_term=0.1,
                        cfg=SlsConfig())
        assert res.backtracks == 1
        assert res.loss == -1.0

    def test_giveup_returns_max_backtracks(self):
        cfg = SlsConfig(max_backtracks=5)
        res = backtrack(lambda w: 10.0, np.array([1.0]), np.array([-1.0]),
                        eta_start=1.0, loss0=1.0, gnorm_term=1.0, cfg=cfg)
        assert res.backtracks == 5
        assert res.eta == pytest.approx(cfg.delta ** 5, rel=1e-12)


class TestSlsStep:
    def test_zero_gradient_guard_skips_search(self):
        prob = make_centered_quadratic(dim=2)
        state = SlsState(eta=0.7)
        batch = full_batch(prob)
        w_next, rec = sls_step(batch, np.zeros(2), state, SlsConfig())
        assert not rec.searched
        assert rec.backtracks == 0
        assert rec.eta == 0.7
        np.testing.assert_array_equal(w_next, np.zeros(2))
        assert batch.n_evals == 1

    def test_1d_quadratic_converges_in_50_steps(self, quadratic_1d):
        cfg = SlsConfig()
        state = SlsState(eta=cfg.eta_init)
        w = np.array([10.0])
        for _ in range(50):
            w, _ = sls_step(full_batch(quadratic_1d), w, state, cfg)
        assert abs(w[0]) <= 1e-4

    def test_eval_count_per_searched_step(self, quadratic_1d):
        cfg = SlsConfig()
        state = SlsState(eta=cfg.eta_init)
        batch = full_batch(quadratic_1d)
        _, rec = sls_step(batch, np.array([10.0]), state, cfg)
        assert rec.searched
        assert batch.n_evals == rec.backtracks + 2

    def test_adam_with_unit_preconditioner_matches_sgd(self):
        # linear objective: |g_i| = 1 so the first moment update leaves
        # v_hat = 1 exactly and the adam search reduces to the sgd one
        prob = make_linear(dim=3, slope=1.0)
        cfg = SlsConfig()
        w = np.zeros(3)
        sgd_state = SlsState(eta=cfg.eta_init)
        _, rec_sgd = sls_step(full_batch(prob), w, sgd_state, cfg)
        adam_state = SlsState(eta=cfg.eta_init,
                              adam=AdamState.zeros(3, epsilon=1e-300))
        _, rec_adam = sls_step(full_batch(prob), w, adam_state, cfg)
        assert rec_adam.eta == pytest.approx(rec_sgd.eta, rel=1e-12)
        assert rec_adam.backtracks == rec_sgd.backtracks

    def test_eta_stays_in_clamp_range(self, quadratic_1d):
        cfg = SlsConfig()
        state = SlsState(eta=cfg.eta_init)
        w = np.array([50.0])
        etas = []
        for _ in range(200):
            w, rec = sls_step(full_batch(quadratic_1d), w, state, cfg)
            etas.append(rec.eta)
        assert all(cfg.eta_min <= e <= cfg.eta_max for e in etas)

    def test_growth_bound_between_steps(self, quadratic_1d):
        cfg = SlsConfig()
        state = SlsState(eta=cfg.eta_init)
        w = np.array([10.0])
        prev = cfg.eta_init
        for _ in range(100):
            w, rec = sls_step(full_batch(quadratic_1d), w, state, cfg)
            if rec.searched:
                assert rec.eta <= prev * 2.0 ** (1.0 / cfg.b) + 1e-15
            prev = rec.eta

    def test_searched_steps_satisfy_armijo_on_replay(self, quadratic_1d):
        cfg = SlsConfig()
        state = SlsState(eta=cfg.eta_init)
        w = np.array([10.0])
        for _ in range(30):
            w_before = w
            batch = full_batch(quadratic_1d)
            w, rec = sls_step(batch, w, state, cfg)
            if rec.searched and rec.backtracks < cfg.max_backtracks:
                g = quadratic_1d.loss_grad(w_before, None).grad
                trial = quadratic_1d.full_loss(axpy(rec.eta, -g, w_before))
                assert trial <= rec.loss - cfg.c * rec.eta * norm_sq(g) + 1e-9


class TestSlsConfig:
    def test_c_out_of_range(self):
        with pytest.raises(ValueError):
            SlsConfig(c=1.0)

    def test_eta_ordering_enforced(self):
        with pytest.raises(ValueError):
            SlsConfig(eta_init=1e-11)

    def test_negative_eta_min_rejected(self):
        # a negative floor let a give-up settle on a negative step size
        with pytest.raises(ValueError, match="eta_min must be > 0"):
            SlsConfig(eta_min=-2.0, eta_init=-1.0, eta_max=1.0)

    @pytest.mark.parametrize("max_backtracks", [2.5, True, "3"])
    def test_non_integer_max_backtracks_rejected(self, max_backtracks):
        with pytest.raises(ValueError, match="max_backtracks must be an "
                                             "integer"):
            SlsConfig(max_backtracks=max_backtracks)

    @pytest.mark.parametrize("field", ["c", "delta", "b", "grad_eps",
                                       "eta_init", "eta_min", "eta_max"])
    @pytest.mark.parametrize("value", ["0.3", True, None])
    def test_non_real_float_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number, "
                                             f"got {value!r}"):
            SlsConfig(**{field: value})

    def test_b_whose_regrowth_overflows_rejected(self):
        # 2**(1/b) is formed once, when the config is built; a b this small
        # used to raise OverflowError at the first searched step
        with pytest.raises(ValueError, match=r"b must leave 2\*\*\(1/b\) "
                                             r"finite, got 0.0001"):
            SlsConfig(b=1e-4)

    def test_ints_and_numpy_floats_accepted(self):
        cfg = SlsConfig(c=np.float32(0.2), b=500, eta_init=np.float64(0.5),
                        eta_max=np.int64(5))
        assert cfg.eta_max == 5
