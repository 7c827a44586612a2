"""The step-cost benchmark's tracer still sees every layer of a run.

``perfbench/tracer.py`` swaps module bindings for timing wrappers while a
run is built and stepped. A run that looked its functions up before the
swap would step through the originals, and the benchmark's per-layer split
would quietly lose those spans. These tests run one short run of each step
family under the tracer and check that every layer recorded its calls.
"""

import pytest

from helpers import _load_tracer
from salsa_opt import harness
from salsa_opt.problems import make_matrix_factorization, make_quadratic

TRACER = _load_tracer()

FIXED_RATE_KINDS = ("sgd", "adam")

# (optimizer, frequency controller, the spans its steps are recorded as,
# and the other spans its steps must record), one run per optimizer kind:
# SLS runs, SaLSa runs whose controller skips searches, and the fixed-rate
# baselines, one of them with the controller asked for, which a fixed-rate
# run never builds
RUNS = (
    ({"kind": "sgd_sls"}, False, ("line_search.step",),
     ("line_search.backtrack", "directions", TRACER.TRIAL_EVAL)),
    ({"kind": "adam_sls"}, False, ("line_search.step",),
     ("line_search.backtrack", "directions", TRACER.TRIAL_EVAL)),
    ({"kind": "sgd_salsa"}, True, ("salsa.step", "line_search.step"),
     ("salsa.backtrack", "directions", "frequency", TRACER.TRIAL_EVAL)),
    ({"kind": "adam_salsa"}, True, ("salsa.step", "line_search.step"),
     ("salsa.backtrack", "directions", "frequency", TRACER.TRIAL_EVAL)),
    ({"kind": "sgd", "lr": 0.01, "schedule": "cosine_warmup"}, True,
     ("baselines.step",), ("directions",)),
    ({"kind": "adam", "lr": 0.05}, False, ("baselines.step",),
     ("directions",)),
)


@pytest.mark.parametrize("optimizer, controller, step_spans, spans", RUNS,
                         ids=[run[0]["kind"] for run in RUNS])
def test_every_layer_of_a_run_is_traced(optimizer, controller, step_spans,
                                        spans):
    tracer = TRACER.Tracer()
    problem = tracer.traced_problem(make_quadratic(dim=5, cond=100, seed=3))
    with tracer.patched():
        result = harness.run_single(problem, optimizer, seed=1, epochs=40,
                                    batch_size=1,
                                    frequency_controller=controller)
    calls = tracer.flush().calls
    records = result.trace.records
    # every step is recorded as one of its family's step spans
    for name in step_spans:
        assert calls[name] > 0, f"no {name} spans"
    assert sum(calls[name] for name in step_spans) == len(records)
    for name in spans:
        assert calls[name] > 0, f"no {name} spans"
    if optimizer["kind"] in FIXED_RATE_KINDS:
        assert calls["frequency"] == 0
    # exactly the direction calls each step makes: sgd_direction for an
    # sgd step; the moment update and the update direction for an Adam
    # step, and the search direction and norm term when it searched
    sgd = optimizer["kind"].startswith("sgd")
    assert calls["directions"] == sum(
        1 if sgd else 4 if r.searched else 2 for r in records)
    # one base evaluation per step, every other one a search trial
    assert calls[TRACER.BASE_EVAL] == len(records)
    assert calls[TRACER.BASE_EVAL] + calls[TRACER.TRIAL_EVAL] == \
        len(records) + sum(r.backtracks + 1 for r in records if r.searched)


def test_replay_repeats_the_runs_evaluations():
    # the benchmark's replay check: replay_verify's rerun goes through
    # run_single and makes exactly the evaluations the trace implies, and
    # replay_verify itself evaluates each step's base point and each
    # searched step's accepted point once more
    tracer = TRACER.Tracer()
    problem = tracer.traced_problem(
        make_matrix_factorization(rows=8, cols=6, rank=2, seed=3))
    optimizer = {"kind": "adam_sls"}
    with tracer.patched():
        result = harness.run_single(problem, optimizer, seed=1, epochs=2,
                                    batch_size=4)
        report = harness.replay_verify(problem, optimizer, 1, 2, 4,
                                       result.trace)
    counts = tracer.flush()
    records = result.trace.records
    implied = len(records) + sum(r.backtracks + 1 for r in records
                                 if r.searched)
    searched = sum(r.searched for r in records)
    assert report.ok and report.n_checked > 0
    rerun = counts.calls_in_replay[TRACER.BASE_EVAL] + \
        counts.calls_in_replay[TRACER.TRIAL_EVAL]
    assert rerun == implied
    assert counts.calls[TRACER.BASE_EVAL] + \
        counts.calls[TRACER.TRIAL_EVAL] == 2 * implied
    assert counts.calls[TRACER.REPLAY_EVAL] == len(records) + searched
