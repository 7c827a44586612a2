"""Vector helpers, record invariants, and trace serialization."""

import numpy as np
import pytest

from salsa_opt.core import (StepRecord, TrainingTrace, axpy, norm_sq,
                            seeded_rng, stream_key)


class TestNormSq:
    def test_zero_vector(self):
        assert norm_sq(np.zeros(3)) == 0.0

    def test_three_four_five(self):
        assert norm_sq(np.array([3.0, 4.0])) == 25.0

    def test_matches_elementwise_reference(self):
        # independent oracle: plain square-and-sum loop
        v = seeded_rng(123).standard_normal(10)
        expected = 0.0
        for x in v:
            expected += float(x) * float(x)
        assert norm_sq(v) == pytest.approx(expected, rel=1e-12)

    def test_zero_iff_zero_vector(self):
        rng = seeded_rng(5)
        for _ in range(50):
            v = rng.standard_normal(4)
            assert (norm_sq(v) == 0.0) == bool(np.all(v == 0.0))


class TestAxpy:
    def test_zero_scale_returns_y(self):
        x = np.array([5.0, -1.0])
        y = np.array([2.0, 3.0])
        np.testing.assert_array_equal(axpy(0.0, x, y), y)

    def test_identity_add(self):
        np.testing.assert_array_equal(
            axpy(1.0, np.array([1.0, 2.0]), np.zeros(2)), [1.0, 2.0])

    def test_half_scale(self):
        np.testing.assert_array_equal(
            axpy(0.5, np.array([2.0, 4.0]), np.array([1.0, 1.0])), [2.0, 3.0])

    def test_inputs_unmodified(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        axpy(2.0, x, y)
        np.testing.assert_array_equal(x, [1.0, 2.0])
        np.testing.assert_array_equal(y, [3.0, 4.0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            axpy(1.0, np.zeros(2), np.zeros(3))

    def test_add_then_subtract_roundtrip(self):
        rng = seeded_rng(7)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        back = axpy(-1.0, x, axpy(1.0, x, y))
        np.testing.assert_allclose(back, y, atol=1e-12)


class TestSeededRng:
    def test_same_keys_same_stream(self):
        a = seeded_rng(1, 2).standard_normal(5)
        b = seeded_rng(1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = seeded_rng(1, 2).standard_normal(5)
        b = seeded_rng(2, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_stream_key_order_sensitive(self):
        assert stream_key(1, 2) != stream_key(2, 1)


class TestStepRecord:
    def test_unsearched_with_backtracks_rejected(self):
        with pytest.raises(ValueError):
            StepRecord(k=0, eta=1.0, loss=1.0, grad_norm_sq=1.0,
                       searched=False, backtracks=2, batch_seed=0)

    def test_searched_needs_positive_eta(self):
        with pytest.raises(ValueError):
            StepRecord(k=0, eta=0.0, loss=1.0, grad_norm_sq=1.0,
                       searched=True, backtracks=0, batch_seed=0)

    def test_warmup_zero_lr_allowed_unsearched(self):
        rec = StepRecord(k=0, eta=0.0, loss=1.0, grad_norm_sq=1.0,
                         searched=False, backtracks=0, batch_seed=0)
        assert rec.eta == 0.0


def _toy_trace():
    trace = TrainingTrace(metadata={"optimizer": "sgd_sls", "seed": 3})
    trace.append(StepRecord(0, 1.0, 0.5, 0.25, True, 2, 11))
    trace.append(StepRecord(1, 0.9, 0.4, 0.16, True, 0, 12))
    trace.append(StepRecord(2, 0.9, 0.35, 1e-18, False, 0, 13))
    return trace


class TestTrainingTrace:
    def test_increasing_k_enforced(self):
        trace = _toy_trace()
        with pytest.raises(ValueError):
            trace.append(StepRecord(2, 1.0, 0.1, 0.1, True, 0, 14))

    def test_csv_header(self):
        text = _toy_trace().to_csv()
        assert text.splitlines()[0] == \
            "k,eta,loss,grad_norm_sq,searched,backtracks,batch_seed"
        assert len(text.splitlines()) == 4

    def test_csv_roundtrip_exact(self):
        trace = _toy_trace()
        back = TrainingTrace.from_csv(trace.to_csv())
        assert back.records == trace.records

    @pytest.mark.parametrize("searched", ["True", "yes", "1", ""])
    def test_csv_searched_other_than_true_or_false_rejected(self, searched):
        # any value but "true" used to load as an unsearched step
        lines = _toy_trace().to_csv().splitlines()
        lines[2] = lines[2].replace(",true,", f",{searched},")
        with pytest.raises(ValueError, match=f"data row 2: searched must be "
                                             f"true or false, got "
                                             f"{searched!r}"):
            TrainingTrace.from_csv("\n".join(lines) + "\n")

    def test_json_roundtrip_exact(self):
        trace = _toy_trace()
        back = TrainingTrace.from_json(trace.to_json())
        assert back.records == trace.records
        assert back.metadata == trace.metadata

    def test_empty_trace_csv_is_header_only(self):
        assert TrainingTrace(metadata={}).to_csv() == \
            "k,eta,loss,grad_norm_sq,searched,backtracks,batch_seed\n"

    def test_serialization_bit_stable(self):
        trace = _toy_trace()
        assert trace.to_csv() == trace.to_csv()
        assert trace.to_json() == trace.to_json()
