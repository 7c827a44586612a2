"""Learning-rate schedules and fixed-rate SGD/Adam steps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_batch, make_centered_quadratic
from salsa_opt.baselines import (ScheduleConfig, fixed_adam_step,
                                 fixed_sgd_step, schedule_lr)
from salsa_opt.core import StepRecord, axpy, norm_sq
from salsa_opt.directions import AdamState, adam_direction, \
    adam_update_moments
from salsa_opt.line_search import SlsState
from salsa_opt.problems import make_quadratic, BatchObjective


def reference_sgd_step(batch, w, lr, k):
    """The fixed-rate SGD step written out on its own, as it was before it
    became the engine's no-search step."""
    res = batch.eval(w)
    w_next = axpy(-lr, res.grad, w)
    record = StepRecord(k=k, eta=lr, loss=res.loss,
                        grad_norm_sq=norm_sq(res.grad), searched=False,
                        backtracks=0, batch_seed=batch.key)
    return w_next, record


def reference_adam_step(batch, w, adam_state, lr, k):
    """The fixed-rate Adam step written out on its own (see above)."""
    res = batch.eval(w)
    adam_state = adam_update_moments(adam_state, res.grad)
    d = adam_direction(adam_state, res.grad, use_momentum=True)
    w_next = axpy(lr, d, w)
    record = StepRecord(k=k, eta=lr, loss=res.loss,
                        grad_norm_sq=norm_sq(res.grad), searched=False,
                        backtracks=0, batch_seed=batch.key)
    return w_next, record, adam_state


class TestSchedule:
    def test_flat_everywhere(self):
        cfg = ScheduleConfig(peak_lr=0.3, total_steps=50, schedule="flat")
        assert all(schedule_lr(cfg, k) == 0.3 for k in range(50))

    def test_warmup_boundary_hits_peak(self):
        cfg = ScheduleConfig(peak_lr=1.0, total_steps=100, warm_frac=0.1,
                             schedule="cosine_warmup")
        assert schedule_lr(cfg, cfg.warmup_steps) == 1.0

    def test_warmup_starts_at_zero(self):
        cfg = ScheduleConfig(peak_lr=1.0, total_steps=100, warm_frac=0.1,
                             schedule="cosine_warmup")
        assert schedule_lr(cfg, 0) == 0.0

    def test_cosine_endpoint_near_zero(self):
        cfg = ScheduleConfig(peak_lr=1.0, total_steps=100, warm_frac=0.1,
                             schedule="cosine_warmup")
        warm = cfg.warmup_steps
        bound = 0.5 * (1.0 - math.cos(math.pi / (100 - warm)))
        assert 0.0 <= schedule_lr(cfg, 99) <= bound + 1e-15

    def test_continuous_at_junction(self):
        cfg = ScheduleConfig(peak_lr=2.0, total_steps=200, warm_frac=0.25,
                             schedule="cosine_warmup")
        warm = cfg.warmup_steps
        before = schedule_lr(cfg, warm - 1)
        at = schedule_lr(cfg, warm)
        after = schedule_lr(cfg, warm + 1)
        assert at == 2.0
        assert abs(before - at) < 2.0 * 2.0 / warm
        assert abs(after - at) < 2.0 * math.pi / (200 - warm)

    def test_nonnegative_everywhere(self):
        cfg = ScheduleConfig(peak_lr=1.0, total_steps=77, warm_frac=0.13,
                             schedule="cosine_warmup")
        assert all(schedule_lr(cfg, k) >= 0.0 for k in range(77))

    def test_out_of_range_step_rejected(self):
        cfg = ScheduleConfig(peak_lr=1.0, total_steps=10, schedule="flat")
        with pytest.raises(ValueError):
            schedule_lr(cfg, 10)

    @pytest.mark.parametrize("warm_frac, total_steps", [(0.15, 5), (0.6, 1)])
    def test_cosine_takes_a_warmup_that_rounds_to_one_step(self, warm_frac,
                                                           total_steps):
        # warm_frac * total_steps is below 1, but rounds to one step
        cfg = ScheduleConfig(peak_lr=1.0, total_steps=total_steps,
                             warm_frac=warm_frac, schedule="cosine_warmup")
        assert cfg.warmup_steps == 1

    @pytest.mark.parametrize("warm_frac", [0.0, 0.1])
    def test_a_warmup_of_zero_steps_decays_from_the_peak(self, warm_frac):
        # 0.1 * 5 = 0.5 rounds to 0 steps (half to even): no ramp, the
        # half-cosine starts at peak_lr
        cfg = ScheduleConfig(peak_lr=0.3, total_steps=5,
                             warm_frac=warm_frac, schedule="cosine_warmup")
        rates = [schedule_lr(cfg, k) for k in range(5)]
        assert cfg.warmup_steps == 0
        assert rates[0] == 0.3
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("peak_lr", [0.1, 0.3, 1.0, 2.0, 1e-3, 0.7])
    def test_a_schedule_with_a_warmup_keeps_its_bits(self, peak_lr):
        def reference(cfg, k):
            # schedule_lr's cosine_warmup body as it was when a warmup of
            # zero steps was rejected
            warm = cfg.warmup_steps
            if k <= warm:
                return cfg.peak_lr * k / warm
            p = (k - warm) / (cfg.total_steps - warm)
            return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * p))

        checked = 0
        for total_steps in range(1, 41):
            for warm_frac in (0.01, 0.05, 0.1, 0.13, 0.15, 0.25, 0.3, 0.5,
                              0.6, 0.75, 0.9, 0.99):
                if round(warm_frac * total_steps) < 1:
                    continue
                cfg = ScheduleConfig(peak_lr=peak_lr, total_steps=total_steps,
                                     warm_frac=warm_frac,
                                     schedule="cosine_warmup")
                for k in range(total_steps):
                    assert schedule_lr(cfg, k).hex() == \
                        reference(cfg, k).hex(), (total_steps, warm_frac, k)
                    checked += 1
        assert checked > 5000


class TestFixedSgd:
    def test_zero_lr_keeps_params(self):
        prob = make_centered_quadratic(dim=2)
        w = np.array([1.0, -2.0])
        w_next, rec = fixed_sgd_step(full_batch(prob), w, SlsState(eta=0.0, k=0))
        np.testing.assert_array_equal(w_next, w)
        assert not rec.searched

    def test_halving_step(self, quadratic_1d):
        w_next, _ = fixed_sgd_step(full_batch(quadratic_1d),
                                   np.array([1.0]), SlsState(eta=0.5, k=0))
        assert w_next[0] == 0.5

    def test_unstable_lr_diverges(self, quadratic_1d):
        # classical bound: lr > 2/L with L = 1 blows up
        w = np.array([1.0])
        for k in range(40):
            w, _ = fixed_sgd_step(full_batch(quadratic_1d), w,
                                  SlsState(eta=2.5, k=k))
        assert abs(w[0]) > 1e3


class TestFixedAdam:
    def test_first_step_moves_by_about_lr(self):
        prob = make_centered_quadratic(dim=3, eigs=[1.0, 3.0, 0.5])
        w = np.array([1.0, -2.0, 4.0])
        lr = 0.01
        w_next, _ = fixed_adam_step(full_batch(prob), w, SlsState(
            eta=lr, k=0, adam=AdamState.zeros(3)))
        # bias-corrected first step is sign(g) up to the eps perturbation
        np.testing.assert_allclose(np.abs(w_next - w), lr, rtol=1e-6)

    def test_zero_gradient_zero_moments_no_move(self):
        prob = make_centered_quadratic(dim=2)
        w = np.zeros(2)
        w_next, _ = fixed_adam_step(full_batch(prob), w, SlsState(
            eta=0.1, k=0, adam=AdamState.zeros(2)))
        np.testing.assert_array_equal(w_next, w)

    def test_quadratic_converges_at_small_lr(self):
        prob = make_quadratic(dim=2, cond=10, seed=5)
        w = prob.init_params(0)
        state = AdamState.zeros(2)
        for k in range(5000):
            batch = BatchObjective(prob, np.arange(1), key=0)
            w, _ = fixed_adam_step(batch, w,
                                   SlsState(eta=1e-2, k=k, adam=state))
        grad = prob.loss_grad(w, prob.full_indices()).grad
        assert float(np.linalg.norm(grad)) <= 1e-3


class TestEngineMatchesReference:
    """The fixed-rate steps run through the line-search engine; they must
    stay bit-equal to the stand-alone bodies above."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 5), cond=st.floats(1.0, 1e3),
           seed=st.integers(0, 50),
           lrs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                        min_size=1, max_size=4),
           k0=st.integers(0, 10_000),
           beta1=st.sampled_from([0.0, 0.5, 0.9]))
    def test_bit_equal_params_records_and_moments(self, dim, cond, seed, lrs,
                                                  k0, beta1):
        prob = make_quadratic(dim=dim, cond=cond, seed=seed)
        w_sgd = w_sgd_ref = w_adam = w_adam_ref = prob.init_params(seed)
        # each side advances its own state in place
        adam = AdamState.zeros(dim, beta1=beta1)
        adam_ref = AdamState.zeros(dim, beta1=beta1)
        for i, lr in enumerate(lrs):
            k = k0 + i
            batch = BatchObjective(prob, np.arange(1), key=k)
            w_sgd, rec = fixed_sgd_step(batch, w_sgd, SlsState(eta=lr, k=k))
            w_sgd_ref, rec_ref = reference_sgd_step(batch, w_sgd_ref, lr, k)
            assert w_sgd.tobytes() == w_sgd_ref.tobytes()
            assert rec == rec_ref
            w_adam, rec = fixed_adam_step(batch, w_adam,
                                          SlsState(eta=lr, k=k, adam=adam))
            w_adam_ref, rec_ref, adam_ref = reference_adam_step(
                batch, w_adam_ref, adam_ref, lr, k)
            assert w_adam.tobytes() == w_adam_ref.tobytes()
            assert rec == rec_ref
            assert adam.m.tobytes() == adam_ref.m.tobytes()
            assert adam.v.tobytes() == adam_ref.v.tobytes()
            assert (adam.k, adam.beta1, adam.beta2, adam.epsilon) == \
                (adam_ref.k, adam_ref.beta1, adam_ref.beta2, adam_ref.epsilon)
