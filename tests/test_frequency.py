"""Step-size EMAs, interval computation, and the search scheduler."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salsa_opt.frequency import (BETA_FAST, BETA_SLOW, FreqState,
                                 FrequencyController, compute_interval)


def ema_seq(etas):
    """The state after each search that accepts a step size of ``etas``, one
    snapshot per search (the controller advances a single state in
    place)."""
    ctl = FrequencyController()
    out = []
    for e in etas:
        ctl.record_search(e)
        out.append(replace(ctl.state))
    return out


# The copy-on-write controller the in-place one replaced, kept as the
# reference it must match step for step.

def ref_update_emas(state, eta):
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if not state.seeded:
        return replace(state, ema_fast=eta, ema_slow=eta, seeded=True)
    return replace(
        state,
        ema_fast=BETA_FAST * state.ema_fast + (1.0 - BETA_FAST) * eta,
        ema_slow=BETA_SLOW * state.ema_slow + (1.0 - BETA_SLOW) * eta,
    )


def ref_should_search(state):
    if not state.seeded:
        return True
    return state.since_search + 1 >= state.L


def ref_record_search(state, eta):
    st = ref_update_emas(state, eta)
    return replace(st, L=compute_interval(st), since_search=0)


def ref_record_skip(state):
    return replace(state,
                   since_search=min(state.since_search + 1, state.L - 1))


def controller_at(**fields):
    ctl = FrequencyController()
    ctl.state = FreqState(**fields)
    return ctl


class TestUpdateEmas:
    """The EMA update ``record_search`` makes."""

    def test_seed_call(self):
        ctl = FrequencyController()
        ctl.record_search(0.01)
        st = ctl.state
        assert st.ema_fast == st.ema_slow == 0.01
        assert st.seeded

    def test_arithmetic_after_seed(self):
        ctl = controller_at(ema_fast=1.0, ema_slow=1.0, seeded=True)
        ctl.record_search(2.0)
        st = ctl.state
        assert st.ema_fast == pytest.approx(1.1)
        assert st.ema_slow == pytest.approx(1.01)

    def test_constant_stream_fixed_point(self):
        ctl = FrequencyController()
        for _ in range(50):
            ctl.record_search(0.7)
        st = ctl.state
        assert st.ema_fast == pytest.approx(0.7, rel=1e-12)
        assert st.ema_slow == pytest.approx(0.7, rel=1e-12)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            FrequencyController().record_search(0.0)

    def test_advances_its_argument(self):
        ctl = FrequencyController()
        st = ctl.state
        ctl.record_search(0.5)
        assert ctl.state is st
        assert st.seeded and st.ema_fast == st.ema_slow == 0.5


class TestComputeInterval:
    def test_equal_emas_saturate(self):
        assert compute_interval(FreqState(ema_fast=0.5, ema_slow=0.5,
                                          seeded=True)) == 10

    def test_ratio_1_2_gives_5(self):
        assert compute_interval(FreqState(ema_fast=1.2, ema_slow=1.0,
                                          seeded=True)) == 5

    def test_inverted_ratio_0_8_gives_4(self):
        assert compute_interval(FreqState(ema_fast=0.8, ema_slow=1.0,
                                          seeded=True)) == 4

    def test_small_change_clamped_to_10(self):
        assert compute_interval(FreqState(ema_fast=1.05, ema_slow=1.0,
                                          seeded=True)) == 10

    def test_huge_change_clamped_to_1(self):
        assert compute_interval(FreqState(ema_fast=5.0, ema_slow=1.0,
                                          seeded=True)) == 1

    @given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_interval_always_in_range(self, etas):
        for state in ema_seq(etas):
            assert 1 <= compute_interval(state) <= 10


class TestShouldSearch:
    def test_fresh_state_always_searches(self):
        assert FrequencyController().should_search()

    def test_interval_one_every_step(self):
        ctl = controller_at(ema_fast=1.0, ema_slow=1.0, L=1, since_search=0,
                            seeded=True)
        assert ctl.should_search()

    def test_counter_boundary_at_ten(self):
        ctl = controller_at(ema_fast=1.0, ema_slow=1.0, L=10, since_search=8,
                            seeded=True)
        assert not ctl.should_search()
        ctl.state.since_search = 9
        assert ctl.should_search()


class TestSymmetricResponse:
    """Growth and decay streams at the same geometric rate.

    The inversion of the EMA ratio treats both alike, but with seeded EMAs
    the match is exact only for slow rates; faster streams can disagree by
    one rounding boundary.
    """

    def _l_sequence(self, etas):
        return [compute_interval(s) for s in ema_seq(etas)]

    def test_slow_streams_identical(self):
        for g in (1.0005, 1.001):
            growth = [g ** k for k in range(80)]
            decay = [g ** (-k) for k in range(80)]
            assert self._l_sequence(growth) == self._l_sequence(decay)

    def test_general_streams_within_one_after_seeding(self):
        # past the ~10-step seeding transient the sequences agree to one
        # rounding boundary even for fast streams
        for g in (1.005, 1.02, 1.05, 1.1, 1.3):
            growth = [g ** k for k in range(80)]
            decay = [g ** (-k) for k in range(80)]
            for a, b in zip(self._l_sequence(growth)[10:],
                            self._l_sequence(decay)[10:]):
                assert abs(a - b) <= 1


class TestController:
    def test_constant_eta_saturates_and_searches_tenth(self):
        ctl = FrequencyController()
        searched = 0
        for _ in range(5000):
            if ctl.should_search():
                searched += 1
                ctl.record_search(0.05)
            else:
                ctl.record_skip()
        assert ctl.state.L == 10
        assert searched / 5000 == pytest.approx(0.1, abs=0.01)

    def test_since_search_stays_below_interval(self):
        rng = np.random.default_rng(4)
        ctl = FrequencyController()
        for _ in range(1000):
            if ctl.should_search():
                ctl.record_search(float(rng.uniform(0.01, 1.0)))
            else:
                ctl.record_skip()
            assert ctl.state.since_search < max(ctl.state.L, 1)

    def test_skip_saturates_counter(self):
        ctl = FrequencyController()
        ctl.record_search(1.0)
        for _ in range(25):
            ctl.record_skip()
        assert ctl.state.since_search == ctl.state.L - 1
        assert ctl.should_search()


class TestMatchesCopyOnWriteReference:
    @given(st.lists(st.tuples(st.floats(1e-6, 1e3), st.booleans()),
                    min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_same_state_and_decision_every_step(self, steps):
        """Driven as the run loop drives it over a random eta stream: a due
        search runs unless its flag says the tiny-gradient guard tripped,
        which counts as a skip."""
        ctl = FrequencyController()
        ref = FreqState()
        for eta, searched in steps:
            due = ctl.should_search()
            assert due == ref_should_search(ref)
            if due and searched:
                ctl.record_search(eta)
                ref = ref_record_search(ref, eta)
            else:
                ctl.record_skip()
                ref = ref_record_skip(ref)
            assert ctl.state == ref
        assert ctl.should_search() == ref_should_search(ref)
