"""SGD/Adam directions, moment recurrences, and the preconditioned norm."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from salsa_opt import directions
from salsa_opt.core import norm_sq, seeded_rng
from salsa_opt.directions import (AdamState, adam_direction,
                                  adam_update_moments,
                                  preconditioned_grad_norm, sgd_direction)


class TestSgdDirection:
    def test_zero_gradient(self):
        np.testing.assert_array_equal(sgd_direction(np.zeros(2)), np.zeros(2))

    def test_sign_flip(self):
        np.testing.assert_array_equal(
            sgd_direction(np.array([1.0, -2.0])), [-1.0, 2.0])

    def test_involution(self):
        v = seeded_rng(3).standard_normal(5)
        np.testing.assert_array_equal(sgd_direction(sgd_direction(v)), v)


class TestMomentUpdate:
    def test_first_update_from_zero(self):
        state = adam_update_moments(AdamState.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.m, [0.1, 0.0])
        np.testing.assert_allclose(state.v, [0.001, 0.0])
        assert state.k == 1

    def test_beta1_zero_gives_raw_gradient(self):
        state = AdamState(m=np.array([5.0, -3.0]), v=np.zeros(2), k=4,
                          beta1=0.0)
        g = np.array([0.5, 0.25])
        np.testing.assert_array_equal(adam_update_moments(state, g).m, g)

    def test_constant_gradient_closed_form(self):
        # unrolled recurrence: m_k = (1 - beta1^k) g for constant g
        g = np.array([2.0, -1.0, 0.5])
        state = AdamState.zeros(3)
        for _ in range(5):
            state = adam_update_moments(state, g)
        np.testing.assert_allclose(state.m, (1.0 - 0.9 ** 5) * g, rtol=1e-12)
        np.testing.assert_allclose(state.v, (1.0 - 0.999 ** 5) * g * g,
                                   rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            adam_update_moments(AdamState.zeros(2), np.zeros(3))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_second_moment_stays_nonnegative(self, gs):
        state = AdamState.zeros(1)
        for g in gs:
            state = adam_update_moments(state, np.array([g]))
            assert state.v[0] >= 0.0


class TestAdamDirection:
    def test_no_momentum_simple_values(self):
        # g=2, v_hat=4, eps=0 -> -2/sqrt(4) = -1
        state = AdamState(m=np.zeros(1), v=np.array([4.0 * (1 - 0.999)]), k=1,
                          epsilon=1e-300)
        d = adam_direction(state, np.array([2.0]), use_momentum=False)
        np.testing.assert_allclose(d, [-1.0])

    def test_first_step_bias_correction(self):
        state = adam_update_moments(AdamState.zeros(2), np.array([1.0, 0.0]))
        d = adam_direction(state, np.array([1.0, 0.0]), use_momentum=True)
        # m_hat = 1, v_hat = 1 -> -1/(1 + 1e-8)
        np.testing.assert_allclose(d, [-1.0 / (1.0 + 1e-8), 0.0], rtol=1e-12)

    def test_zero_gradient_zero_direction(self):
        state = AdamState(m=np.zeros(3), v=np.full(3, 1 - 0.999), k=1)
        d = adam_direction(state, np.zeros(3), use_momentum=False)
        np.testing.assert_array_equal(d, np.zeros(3))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            adam_direction(AdamState.zeros(2), np.zeros(2), use_momentum=False)

    def test_matches_sgd_with_unit_second_moment(self):
        # v_hat all ones and eps -> 0 turns the preconditioner off
        g = seeded_rng(9).standard_normal(4)
        k = 3
        state = AdamState(m=np.zeros(4), v=np.ones(4) * (1 - 0.999 ** k), k=k,
                          epsilon=1e-300)
        np.testing.assert_allclose(
            adam_direction(state, g, use_momentum=False), sgd_direction(g),
            rtol=1e-12)


class TestPreconditionedNorm:
    def test_zero_gradient(self):
        state = AdamState(m=np.zeros(2), v=np.ones(2) * (1 - 0.999), k=1)
        assert preconditioned_grad_norm(state, np.zeros(2)) == 0.0

    def test_simple_value(self):
        # g=2, v_hat=1, eps=0 -> 4/(1+0) = 4
        state = AdamState(m=np.zeros(1), v=np.array([1 - 0.999]), k=1,
                          epsilon=1e-300)
        assert preconditioned_grad_norm(state, np.array([2.0])) == \
            pytest.approx(4.0, rel=1e-12)

    def test_matches_elementwise_reference(self):
        rng = seeded_rng(21)
        g = rng.standard_normal(5)
        state = AdamState.zeros(5)
        for _ in range(3):
            state = adam_update_moments(state, rng.standard_normal(5))
        v_hat = state.v / (1 - 0.999 ** state.k)
        expected = 0.0
        for i in range(5):
            expected += g[i] ** 2 / (np.sqrt(v_hat[i]) + state.epsilon)
        assert preconditioned_grad_norm(state, g) == \
            pytest.approx(expected, rel=1e-12)

    def test_equals_norm_sq_with_unit_second_moment(self):
        g = seeded_rng(22).standard_normal(6)
        state = AdamState(m=np.zeros(6), v=np.ones(6) * (1 - 0.999), k=1,
                          epsilon=1e-300)
        assert preconditioned_grad_norm(state, g) == \
            pytest.approx(norm_sq(g), rel=1e-12)


def _vectors(dim, lo, hi):
    return arrays(np.float64, dim, elements=st.floats(lo, hi))


class TestCachedDenominator:
    @given(data=st.data(), dim=st.integers(1, 8), k=st.integers(1, 10**4),
           beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.9999),
           epsilon=st.floats(1e-12, 1e-1))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_the_uncached_formulas(self, data, dim, k, beta1,
                                               beta2, epsilon):
        m = data.draw(_vectors(dim, -1e3, 1e3), label="m")
        v = data.draw(_vectors(dim, 0.0, 1e6), label="v")
        g = data.draw(_vectors(dim, -1e3, 1e3), label="g")
        state = AdamState(m=m, v=v, k=k, beta1=beta1, beta2=beta2,
                          epsilon=epsilon)
        # the formulas as each function computed them before the cache
        v_hat = v / (1.0 - beta2 ** k)
        update = -(m / (1.0 - beta1 ** k)) / (np.sqrt(v_hat) + epsilon)
        search = -g / (np.sqrt(v_hat) + epsilon)
        gterm = float(np.sum(g * g / (np.sqrt(v_hat) + epsilon)))
        # twice over, in the order a search step reads them: the second
        # pass reads the cached denominator
        for _ in range(2):
            assert adam_direction(state, g, use_momentum=True).tobytes() == \
                update.tobytes()
            assert adam_direction(state, g, use_momentum=False).tobytes() \
                == search.tobytes()
            assert np.float64(preconditioned_grad_norm(state, g)).tobytes() \
                == np.float64(gterm).tobytes()

    @pytest.mark.parametrize("read", [
        lambda s, g: adam_direction(s, g, use_momentum=True),
        lambda s, g: adam_direction(s, g, use_momentum=False),
        preconditioned_grad_norm,
    ], ids=["momentum", "search", "norm"])
    def test_k_zero_rejected_every_time(self, read):
        state = AdamState(m=np.ones(2), v=np.ones(2), k=0)
        for _ in range(2):
            with pytest.raises(ValueError, match="k=0"):
                read(state, np.ones(2))


class TestInPlaceState:
    @given(data=st.data(), dim=st.integers(1, 8), steps=st.integers(1, 12),
           beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.9999),
           epsilon=st.floats(1e-12, 1e-1))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_the_allocating_formulas(self, data, dim, steps,
                                                 beta1, beta2, epsilon):
        state = AdamState.zeros(dim, beta1=beta1, beta2=beta2,
                                epsilon=epsilon)
        m = np.zeros(dim)
        v = np.zeros(dim)
        for k in range(1, steps + 1):
            g = data.draw(_vectors(dim, -1e3, 1e3), label=f"g{k}")
            # the formulas as written with a fresh array per operation
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            denom = np.sqrt(v / (1.0 - beta2 ** k)) + epsilon
            update = -(m / (1.0 - beta1 ** k)) / denom
            search = -g / denom
            gterm = float(np.sum(g * g / denom))

            assert adam_update_moments(state, g) is state
            assert state.k == k
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert state._neg_denom.tobytes() == (-denom).tobytes()
            assert adam_direction(state, g, use_momentum=True).tobytes() == \
                update.tobytes()
            assert adam_direction(state, g, use_momentum=False).tobytes() \
                == search.tobytes()
            assert np.float64(preconditioned_grad_norm(state, g)).tobytes() \
                == np.float64(gterm).tobytes()

    def test_caller_arrays_never_written(self):
        rng = seeded_rng(31)
        m0, v0 = rng.standard_normal(4), rng.random(4)
        m_before, v_before = m0.copy(), v0.copy()
        state = AdamState(m=m0, v=v0, k=2)
        # moments read from the state, and moments assigned to it, before
        # the updates below
        read = [state.m, state.v]
        read_before = [a.copy() for a in read]
        adam_update_moments(state, rng.standard_normal(4))
        m1, v1 = rng.standard_normal(4), rng.random(4)
        m1_before, v1_before = m1.copy(), v1.copy()
        state.m, state.v = m1, v1
        directions = []
        for _ in range(3):
            g = rng.standard_normal(4)
            g_before = g.copy()
            adam_update_moments(state, g)
            for d in (adam_direction(state, g, use_momentum=True),
                      adam_direction(state, g, use_momentum=False)):
                directions.append((d, d.copy()))
            preconditioned_grad_norm(state, g)
            assert g.tobytes() == g_before.tobytes()
        assert m0.tobytes() == m_before.tobytes()
        assert v0.tobytes() == v_before.tobytes()
        assert m1.tobytes() == m1_before.tobytes()
        assert v1.tobytes() == v1_before.tobytes()
        for a, a_then in zip(read, read_before):
            assert a.tobytes() == a_then.tobytes()
        # each direction is its own array, untouched by later updates
        for d, d_then in directions:
            assert d.tobytes() == d_then.tobytes()

    def test_deep_copy_updates_its_own_moments(self):
        # an update forms the new m and v through the state's scratch
        # buffer; a copy's update must change only the copy's moments
        rng = seeded_rng(37)
        state = adam_update_moments(AdamState.zeros(4), rng.standard_normal(4))
        m_before, v_before = state.m.copy(), state.v.copy()
        twin = copy.deepcopy(state)
        g = rng.standard_normal(4)
        adam_update_moments(twin, g)
        m_want = 0.9 * m_before + (1.0 - 0.9) * g
        v_want = 0.999 * v_before + (1.0 - 0.999) * g * g
        assert twin.m.tobytes() == m_want.tobytes()
        assert twin.v.tobytes() == v_want.tobytes()
        assert twin.k == 2
        assert state.m.tobytes() == m_before.tobytes()
        assert state.v.tobytes() == v_before.tobytes()
        assert state.k == 1

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_signed_zeros_match_the_allocating_formulas(self, steps):
        # every sign of zero in the moments and the gradient: the negated
        # denominator must give each zero the sign the formulas give it
        zeros = [0.0, -0.0]
        m = np.array([a for a in zeros for _ in range(4)] + [1.0, -1.0])
        v = np.array([0.0, -0.0, 0.0, -0.0] * 2 + [0.0, -0.0])
        g = np.array(zeros * 5)
        state = AdamState(m=m, v=v, k=1)
        for k in range(1, steps + 2):
            if k > 1:
                state = adam_update_moments(state, g)
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
            denom = np.sqrt(v / (1.0 - 0.999 ** k)) + 1e-8
            update = -(m / (1.0 - 0.9 ** k)) / denom
            search = -g / denom
            gterm = float(np.sum(g * g / denom))
            assert adam_direction(state, g, use_momentum=True).tobytes() == \
                update.tobytes()
            assert adam_direction(state, g, use_momentum=False).tobytes() \
                == search.tobytes()
            assert np.float64(preconditioned_grad_norm(state, g)).tobytes() \
                == np.float64(gterm).tobytes() == np.float64(0.0).tobytes()
            assert state._neg_denom.tobytes() == (-denom).tobytes()

    def test_a_moment_assigned_after_an_update_is_read_from_the_next(self):
        # the directions read what the last update formed; a moment
        # written afterwards enters at the next update, as the recurrence
        rng = seeded_rng(41)
        state = adam_update_moments(AdamState.zeros(3), rng.standard_normal(3))
        g = rng.standard_normal(3)
        before = [adam_direction(state, g, use_momentum=True),
                  adam_direction(state, g, use_momentum=False),
                  preconditioned_grad_norm(state, g)]
        m_new, v_new = rng.standard_normal(3), rng.random(3)
        state.m = m_new
        state.v = v_new
        after = [adam_direction(state, g, use_momentum=True),
                 adam_direction(state, g, use_momentum=False),
                 preconditioned_grad_norm(state, g)]
        for b, a in zip(before, after):
            assert np.asarray(b).tobytes() == np.asarray(a).tobytes()
        adam_update_moments(state, g)
        m = 0.9 * m_new + (1.0 - 0.9) * g
        v = 0.999 * v_new + (1.0 - 0.999) * g * g
        denom = np.sqrt(v / (1.0 - 0.999 ** 2)) + 1e-8
        assert adam_direction(state, g, use_momentum=True).tobytes() == \
            (-(m / (1.0 - 0.9 ** 2)) / denom).tobytes()
        assert state._neg_denom.tobytes() == (-denom).tobytes()

    def test_assigning_a_moment_writes_the_buffer(self):
        state = AdamState.zeros(2)
        state.v = np.array([4.0, 9.0])
        adam_update_moments(state, np.zeros(2))
        np.testing.assert_array_equal(state.v, 0.999 * np.array([4.0, 9.0]))

    def test_moment_shapes_must_agree(self):
        with pytest.raises(ValueError, match="moment shapes differ"):
            AdamState(m=np.zeros(2), v=np.zeros(3))

    def test_equality_is_identity(self):
        # comparing states must not reach the moment arrays, whose truth
        # value is ambiguous; a run state holding one compares through it
        from salsa_opt.line_search import SlsState

        a, b = AdamState.zeros(2), AdamState.zeros(2)
        assert a == a and a != b
        assert SlsState(eta=1.0, adam=a) == SlsState(eta=1.0, adam=a)
        assert SlsState(eta=1.0, adam=a) != SlsState(eta=1.0, adam=b)


def _reads(state, g):
    """The moments, both directions and the norm term, as bytes."""
    return [state.m.tobytes(), state.v.tobytes(),
            adam_direction(state, g, use_momentum=True).tobytes(),
            adam_direction(state, g, use_momentum=False).tobytes(),
            np.float64(preconditioned_grad_norm(state, g)).tobytes()]


def _formula_reads(m, v, k, g, beta1, beta2, epsilon):
    """What ``_reads`` gives, from the allocating formulas."""
    denom = np.sqrt(v / (1.0 - beta2 ** k)) + epsilon
    return [m.tobytes(), v.tobytes(),
            (-(m / (1.0 - beta1 ** k)) / denom).tobytes(),
            (-g / denom).tobytes(),
            np.float64(float(np.sum(g * g / denom))).tobytes()]


class TestPerStateConstants:
    """Each state forms its ufunc constants from its own fields."""

    HYPER = {"beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6}

    def test_deep_copy_mid_run_steps_bit_identically(self):
        # the copy runs one update behind the original, so an array the
        # two shared would be read after the other wrote it; states of
        # the default config, built before and between, must lend
        # neither of them their constants
        AdamState.zeros(4)
        rng = seeded_rng(43)
        state = AdamState.zeros(4, **self.HYPER)
        for _ in range(3):
            adam_update_moments(state, rng.standard_normal(4))
        twin = copy.deepcopy(state)
        m, v = state.m, state.v
        b1, b2 = self.HYPER["beta1"], self.HYPER["beta2"]
        gs = [rng.standard_normal(4) for _ in range(4)]
        ahead = []
        for i, g in enumerate(gs + [None]):
            adam_update_moments(AdamState.zeros(4), rng.standard_normal(4))
            if g is not None:
                adam_update_moments(state, g)
            if i:
                adam_update_moments(twin, gs[i - 1])
                assert _reads(twin, gs[i - 1]) == ahead[i - 1]
            if g is not None:
                ahead.append(_reads(state, g))
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                assert ahead[-1] == _formula_reads(m, v, 4 + i, g,
                                                   **self.HYPER)

    def test_replace_forms_the_new_constants(self):
        rng = seeded_rng(47)
        state = AdamState.zeros(3)
        for _ in range(2):
            adam_update_moments(state, rng.standard_normal(3))
        changed = dataclasses.replace(state, beta2=0.99)
        fresh = AdamState(state.m, state.v, state.k, beta2=0.99)
        for _ in range(3):
            g = rng.standard_normal(3)
            adam_update_moments(changed, g)
            adam_update_moments(fresh, g)
            assert _reads(changed, g) == _reads(fresh, g)

    @pytest.mark.parametrize("name", ["beta1", "beta2", "epsilon"])
    def test_assigning_a_hyper_parameter_raises(self, name):
        # an assignment would reach the bias correction but not the
        # constants formed at build: a = AdamState.zeros(2); a.beta1 = 0.5
        # then gave m from beta1 0.9 and m_hat from 0.5
        state = AdamState.zeros(2)
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            setattr(state, name, 0.5)
        g = np.array([1.0, -2.0])
        adam_update_moments(state, g)
        fresh = adam_update_moments(AdamState.zeros(2), g)
        assert getattr(state, name) == getattr(fresh, name)
        assert _reads(state, g) == _reads(fresh, g)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_built_at_k_matches_stepped_to_k(self, k):
        rng = seeded_rng(53)
        stepped = AdamState.zeros(3, **self.HYPER)
        for _ in range(k):
            adam_update_moments(stepped, rng.standard_normal(3))
        built = AdamState(stepped.m, stepped.v, k, **self.HYPER)
        for _ in range(3):
            g = rng.standard_normal(3)
            assert _reads(built, g) == _reads(stepped, g)
            adam_update_moments(built, g)
            adam_update_moments(stepped, g)


class _StrictUfunc:
    """A ufunc that refuses a Python or numpy scalar operand, which numpy
    takes on a slower path than a 0-d array."""

    def __init__(self, ufunc, calls):
        self._ufunc, self._calls = ufunc, calls

    def _check(self, args, kwargs):
        self._calls.append(self._ufunc.__name__)
        for a in (*args, *kwargs.values()):
            assert not isinstance(a, (int, float, complex, np.generic)), \
                f"np.{self._ufunc.__name__} got the scalar {a!r}"

    def __call__(self, *args, **kwargs):
        self._check(args, kwargs)
        return self._ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self._check(args, kwargs)
        return self._ufunc.reduce(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _StrictNumpy:
    """numpy, with every ufunc wrapped in ``_StrictUfunc``."""

    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return _StrictUfunc(attr, self._calls)
        return attr


def test_adam_passes_numpy_no_scalar_operand(monkeypatch):
    rng = seeded_rng(59)
    state = AdamState(rng.standard_normal(5), rng.random(5), k=2)
    g = rng.standard_normal(5)
    calls = []
    monkeypatch.setattr(directions, "np", _StrictNumpy(calls))
    adam_update_moments(state, g)
    adam_direction(state, g, use_momentum=True)
    adam_direction(state, g, use_momentum=False)
    preconditioned_grad_norm(state, g)
    # every ufunc call went through the proxy
    assert calls == ["multiply", "multiply", "add", "multiply", "multiply",
                     "multiply", "add", "divide", "divide", "sqrt",
                     "subtract", "divide", "divide", "multiply", "divide",
                     "add"]
