"""Vector helpers, record invariants, and trace serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest

from salsa_opt.core import (CSV_HEADER, StepRecord, TrainingTrace, axpy,
                            norm_sq, seeded_rng, stream_key)


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

    def test_trace_fields_come_first_in_header_order(self):
        names = [f.name for f in dataclasses.fields(StepRecord)]
        assert names[:7] == CSV_HEADER.split(",")

    def test_in_memory_fields_are_neither_compared_nor_written(self):
        plain = StepRecord(0, 1.0, 0.5, 0.25, True, 2, 11)
        marked = StepRecord(0, 1.0, 0.5, 0.25, True, 2, 11, h=0.3, s=0.7,
                            gave_up=True, evals=4)
        assert plain == marked
        one, other = (TrainingTrace(metadata={}, records=[r])
                      for r in (plain, marked))
        assert one.to_csv() == other.to_csv()
        assert one.to_json() == other.to_json()
        assert set(json.loads(other.to_json())["records"][0]) == \
            set(CSV_HEADER.split(","))
        for loaded in (TrainingTrace.from_csv(other.to_csv()),
                       TrainingTrace.from_json(other.to_json())):
            assert loaded.records[0].evals is None


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

    def test_metadata_must_be_an_object(self):
        # used to build, and to_json wrote a file that from_json refuses
        with pytest.raises(ValueError, match=r"^trace JSON metadata must be "
                                             r"an object, got 5$"):
            TrainingTrace(metadata=5)

    def test_records_must_have_increasing_k(self):
        # used to build, and to_csv wrote a file that from_csv refuses
        rec = StepRecord(1, 1.0, 0.5, 0.25, True, 2, 11)
        with pytest.raises(ValueError, match=r"^records must have strictly "
                                             r"increasing k: 1 after 1$"):
            TrainingTrace(metadata={}, records=[rec, rec])

    def test_empty_trace_csv_is_header_only(self):
        assert TrainingTrace(metadata={}).to_csv() == \
            "k,eta,loss,grad_norm_sq,searched,backtracks,batch_seed\n"

    def test_serialization_bit_stable(self):
        trace = _toy_trace()
        assert trace.to_csv() == trace.to_csv()
        assert trace.to_json() == trace.to_json()


def _csv_with_row(row):
    return f"{_toy_trace().to_csv()}{row}\n"


def _json_with_record(**fields):
    payload = json.loads(_toy_trace().to_json())
    payload["records"][1].update(fields)
    return json.dumps(payload)


class TestTraceLoaderErrors:
    """Each loader names the bad data row or record, 1-based."""

    def test_csv_short_row_named(self):
        # used to raise "not enough values to unpack"
        with pytest.raises(ValueError,
                           match=r"^data row 4: expected 7 fields, got 6$"):
            TrainingTrace.from_csv(_csv_with_row("3,0.9,0.3,0.1,true,0"))

    def test_csv_interior_blank_line_is_a_short_row(self):
        # a blank line used to be dropped, so later errors named the row
        # above the bad one; only trailing empty lines are dropped
        csv = _toy_trace().to_csv()
        assert TrainingTrace.from_csv(csv + "\n\n").records == \
            _toy_trace().records
        with pytest.raises(ValueError,
                           match=r"^data row 4: expected 7 fields, got 1$"):
            TrainingTrace.from_csv(_csv_with_row("\n3,x,0.3,0.1,true,0,5"))

    def test_csv_non_integer_field_named(self):
        # used to raise "invalid literal for int() with base 10: 'x'"
        with pytest.raises(ValueError, match=r"^data row 4: batch_seed must "
                                             r"be an integer, got 'x'$"):
            TrainingTrace.from_csv(_csv_with_row("3,0.9,0.3,0.1,true,0,x"))

    def test_csv_record_rejection_named(self):
        # used to raise StepRecord's bare "negative eta=-1.0"
        with pytest.raises(ValueError,
                           match=r"^data row 4: negative eta=-1\.0$"):
            TrainingTrace.from_csv(_csv_with_row("3,-1.0,0.3,0.1,false,0,5"))

    @pytest.mark.parametrize("row, message", [
        ("-3,0.9,0.3,0.1,false,0,5", "step index must be >= 0, got -3"),
        ("3,0.9,0.3,-0.1,false,0,5", "negative grad_norm_sq=-0.1"),
        ("3,0.9,0.3,0.1,true,-1,5", "negative backtracks=-1"),
    ], ids=["k", "grad_norm_sq", "backtracks"])
    def test_csv_negative_field_named(self, row, message):
        with pytest.raises(ValueError,
                           match=f"^data row 4: {re.escape(message)}$"):
            TrainingTrace.from_csv(_csv_with_row(row))

    @pytest.mark.parametrize("text", ["", "k,eta,loss\n1,0.5,0.1\n",
                                      CSV_HEADER.upper() + "\n"],
                             ids=["empty", "short", "case"])
    def test_csv_bad_header_rejected(self, text):
        with pytest.raises(ValueError,
                           match="missing or malformed trace CSV header"):
            TrainingTrace.from_csv(text)

    @pytest.mark.parametrize("payload", [[], "trace", {"records": {}},
                                         {"metadata": {}}])
    def test_json_needs_an_object_with_a_records_list(self, payload):
        with pytest.raises(ValueError, match="trace JSON must be an object "
                                             "with a records list"):
            TrainingTrace.from_json(json.dumps(payload))

    @pytest.mark.parametrize("metadata", [5, None, [], "run"])
    def test_json_metadata_must_be_an_object(self, metadata):
        # 5 used to load as the metadata, and to_json wrote "metadata":5
        with pytest.raises(ValueError, match=r"^trace JSON metadata must be "
                                             r"an object, got "):
            TrainingTrace.from_json(json.dumps({"metadata": metadata,
                                                "records": []}))

    def test_json_unknown_top_level_key_named(self):
        # used to load, the key dropped without a word
        with pytest.raises(ValueError, match=r"^unknown trace JSON fields: "
                                             r"\['junk'\]$"):
            TrainingTrace.from_json('{"records": [], "junk": 1}')

    def test_json_searched_must_be_a_bool(self):
        # "no" used to load as a searched step, which to_csv wrote as true
        with pytest.raises(ValueError, match=r"^record 2: searched must be "
                                             r"true or false, got 'no'$"):
            TrainingTrace.from_json(_json_with_record(searched="no"))

    def test_json_float_field_must_be_a_number(self):
        # "1.0" used to end in a TypeError inside StepRecord
        with pytest.raises(ValueError, match=r"^record 2: eta must be a real "
                                             r"number, got '1\.0'$"):
            TrainingTrace.from_json(_json_with_record(eta="1.0"))

    @pytest.mark.parametrize("field, value",
                             [("k", True), ("backtracks", 1.0),
                              ("batch_seed", "12")])
    def test_json_int_field_must_be_an_int(self, field, value):
        with pytest.raises(ValueError, match=f"^record 2: {field} must be an "
                                             f"integer, got {value!r}$"):
            TrainingTrace.from_json(_json_with_record(**{field: value}))

    @pytest.mark.parametrize("record", [1, {"k": 1}])
    def test_json_record_needs_the_seven_fields(self, record):
        payload = json.loads(_toy_trace().to_json())
        payload["records"][0] = record
        with pytest.raises(ValueError, match=r"^record 1: expected an object "
                                             r"with the fields"):
            TrainingTrace.from_json(json.dumps(payload))

    def test_json_int_given_for_a_float_reads_as_a_float(self):
        trace = TrainingTrace.from_json(_json_with_record(eta=1))
        assert trace.to_csv() == _toy_trace().to_csv().replace(
            "1,0.9,0.4", "1,1.0,0.4")

    def test_non_finite_values_round_trip(self):
        # a diverged run's trace holds NaN and infinite losses and norms
        trace = TrainingTrace(metadata={})
        inf, nan = float("inf"), float("nan")
        trace.append(StepRecord(0, 1.0, inf, inf, True, 0, 1))
        trace.append(StepRecord(1, 0.5, nan, nan, False, 0, 2))
        text = trace.to_csv()
        assert TrainingTrace.from_csv(text).to_csv() == text
        assert TrainingTrace.from_json(trace.to_json()).to_csv() == text
