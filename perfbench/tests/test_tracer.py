"""Tests for the benchmark's own accounting: self time, patch hygiene,
speed scaling and the shape of a traced run's output.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys

import pytest

import machine
import run
import tracer
from salsa_opt import harness, make_matrix_factorization, make_quadratic
from tracer import BASE_EVAL, REPLAY_EVAL, TRIAL_EVAL, Tracer, self_times


def test_self_time_nested_children():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("a.a", 2.0, 3.0, 1),
             ("b", 6.0, 7.5, 0)]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]


def test_self_time_back_to_back_children():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 2.0, 5.0, 0),
             ("b", 5.0, 8.0, 0)]
    assert self_times(spans) == [4.0, 3.0, 3.0]


def test_self_time_zero_length_spans():
    spans = [("root", 0.0, 4.0, -1),
             ("z", 1.0, 1.0, 0),
             ("a", 2.0, 3.0, 0),
             ("zz", 2.5, 2.5, 2),
             ("empty-root", 5.0, 5.0, -1)]
    assert self_times(spans) == [3.0, 0.0, 1.0, 0.0, 0.0]


def test_self_time_counts_covered_time_once_and_clips_to_parent():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 5.0, 0),
             ("b", 3.0, 7.0, 0),      # overlaps a: union is [1, 7]
             ("c", 4.0, 6.0, 0),      # inside that union: adds nothing
             ("d", 9.0, 12.0, 0)]     # runs past its parent: clipped to [9, 10]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_self_times_partition_root_time():
    tr = Tracer()

    def leaf():
        return sum(range(200))

    wrapped_leaf = tr.wrap("leaf", leaf)

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    root = tr.wrap("root", tr.wrap("middle", middle))
    for _ in range(3):
        root()
        tr.flush()
    assert tr.calls == {"root": 3, "middle": 3, "leaf": 6}
    assert math.isclose(sum(tr.self_s.values()), tr.root_s, rel_tol=1e-12)
    assert all(v >= 0 for v in tr.self_s.values())


def _current(names):
    return [getattr(owner, attr) for owner, attr in names]


def _traced_runs(tr):
    quad = tr.traced_problem(make_quadratic(dim=4, cond=10.0))
    for kind in ("sgd_sls", "adam_salsa"):
        harness.run_single(quad, {"kind": kind}, seed=0, epochs=5,
                           batch_size=1, frequency_controller=True)
    harness.run_single(quad, {"kind": "adam", "lr": 0.1}, seed=0, epochs=5,
                       batch_size=1)
    matfac = tr.traced_problem(make_matrix_factorization(6, 5, 2))
    opt = {"kind": "adam_sls"}
    result = harness.run_single(matfac, opt, 0, 1, 8)
    result.trace.to_csv()
    report = harness.replay_verify(matfac, opt, 0, 1, 8, result.trace)
    assert report.ok and report.n_checked > 0
    tr.flush()


def test_every_patched_name_is_restored():
    names = tracer.patched_names()
    assert len(names) == len(set(names)) == (len(tracer.FUNCTION_PATCHES)
                                             + len(tracer.METHOD_PATCHES) + 1)
    before = _current(names)
    tr = Tracer()
    with tr.patched():
        during = _current(names)
        assert all(d is not b for d, b in zip(during, before))
        _traced_runs(tr)
    assert all(a is b for a, b in zip(_current(names), before))
    # every layer boundary the benchmark reports was crossed
    for name in ("harness.run_single", "harness.replay_verify",
                 "problems.batch_for_step", "core.seeded_rng", "directions",
                 "line_search.step", "line_search.backtrack", "salsa.step",
                 "salsa.backtrack", "baselines.step", "frequency",
                 "core.trace_append", "core.to_csv",
                 BASE_EVAL, TRIAL_EVAL, REPLAY_EVAL):
        assert tr.calls[name] > 0, name


def test_names_are_restored_when_the_traced_block_raises():
    names = tracer.patched_names()
    before = _current(names)
    with pytest.raises(ZeroDivisionError):
        with Tracer().patched():
            1 / 0
    assert all(a is b for a, b in zip(_current(names), before))


def test_tracing_changes_no_trace_byte_and_counts_every_eval():
    problem = make_quadratic(dim=6, cond=100.0)
    opt = {"kind": "adam_salsa"}
    plain = harness.run_single(problem, opt, 3, 20, 1).trace.to_csv()
    tr = Tracer()
    with tr.patched():
        traced = harness.run_single(tr.traced_problem(problem), opt, 3, 20, 1)
    counts = tr.flush()
    assert traced.trace.to_csv() == plain
    records = traced.trace.records
    assert counts.calls[BASE_EVAL] == len(records)
    assert counts.calls[TRIAL_EVAL] == sum(r.backtracks + 1 for r in records
                                           if r.searched)


def test_a_count_that_differs_from_the_reference_run_fails_the_run():
    from collections import Counter

    from tracer import RunCounts
    from workloads import RunSpec

    spec = RunSpec(label="sgd_sls", optimizer={"kind": "sgd_sls"},
                   run_seed=1, epochs=1, batch_size=1)

    def checked(rng_calls):
        out = run.Outcome(steps=2, evals=2)
        counts = RunCounts(
            calls=Counter({BASE_EVAL: 2, "core.seeded_rng": rng_calls}),
            calls_in_replay=Counter())
        run.check_counts(spec, out, counts, count_ref, index=0)
        return out.failures

    count_ref = {}
    assert checked(3) == []         # the reference run sets the counts
    assert checked(3) == []
    assert len(checked(4)) == 1


def test_traced_run_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, run.__file__, "--workload", "matfac-replay",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.metric_units("per_layer"))
    assert metrics["harness.replay_verify.evals_per_step"] > 0
    assert metrics["frequency.us_per_step"] == 0
    parts = [v for k, v in metrics.items()
             if k.endswith(("us_per_step", "us_self_per_step"))
             and not k.startswith(("harness.traced", "harness.untraced"))]
    assert math.isclose(sum(parts), metrics["harness.traced_us_per_step"],
                        rel_tol=1e-9)


def test_to_reference_scales_by_the_probes_around_each_run():
    ref = machine.REFERENCE_PROBE_S
    assert machine.to_reference([1.0, 2.0], [ref, ref],
                                [ref, ref]) == [1.0, 2.0]
    # the probe taking twice as long means the machine runs at half speed
    assert machine.to_reference([2.0], [2 * ref], [2 * ref]) == [1.0]
    # a run between a fast and a slow probe gets their geometric mean
    assert math.isclose(machine.to_reference([2.0], [ref], [4 * ref])[0],
                        1.0)
