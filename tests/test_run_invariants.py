"""Invariants of whole runs, over random configurations of every kind.

One derandomized hypothesis property draws a problem from each of the four
factories (dimension 8 or less, a few data rows), any of the six optimizer
kinds, the frequency controller on or off, SaLSa's non-decrease mode, and
extreme step sizes, gradient guards and backtrack budgets. Each example
checks six invariants:

- I1, purity: runs interleaved on one ``Problem`` do not affect each
  other. A configuration run twice with the same seed gives byte-identical
  trace CSV, records' ``h``/``s`` and final parameters.
- I2, update: each step moves from its base point ``w`` to ``w + eta *
  d_update``, bit for bit, with ``eta`` the step size its record holds. The
  base points are recorded as ``replay_verify`` records them, from the one
  gradient evaluation each step makes; ``d_update`` is computed here with
  the allocate-per-step SGD and Adam formulas that ``tests/test_directions.py``
  pins to the engine's.
- I3, status: a run whose status is ``ok`` has finite losses, gradient
  norms and final parameters; any other run is ``diverged at k``, ends on
  record ``k`` and has no non-finite loss or gradient norm before it.
- I4, give-up: a ``gave_up`` step took ``eta_min``, after its whole
  backtrack budget when it searched (a guard-path non-decrease give-up
  records no backtracks), and committed nothing: its ``h``/``s`` equal the
  previous record's, or are NaN before the first commit.
- I5, evaluations: the records' summed ``evals`` equals the run's
  ``loss_grad`` calls, a search's trials and a guard-path search's
  included.
- I7, non-decrease: with ``enforce_nondecrease``, every searched step
  that did not give up lands at a point whose batch loss is at most its
  recorded loss, on the same batch.

A fixed-rate or SLS run reports NaN ``h`` and ``s`` throughout.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salsa_opt.harness import LINE_SEARCH_KINDS, OPTIMIZER_KINDS, run_single
from salsa_opt.line_search import SlsConfig
from salsa_opt.problems import BatchSampler, make_logreg, \
    make_matrix_factorization, make_mlp, make_quadratic

# AdamState's defaults, which every adam run here keeps
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@st.composite
def problems(draw):
    seed = draw(st.integers(0, 20))
    factory = draw(st.sampled_from(["quadratic", "logreg", "mlp", "matfac"]))
    if factory == "quadratic":
        return make_quadratic(dim=draw(st.integers(1, 8)),
                              cond=draw(st.sampled_from([1.0, 1e3])),
                              seed=seed)
    if factory == "logreg":
        return make_logreg(n=draw(st.integers(2, 16)),
                           dim=draw(st.integers(1, 8)), seed=seed,
                           label_noise=draw(st.sampled_from([0.0, 0.2])))
    if factory == "mlp":
        # (in_dim + 2) * hidden + 1 parameters
        in_dim, hidden = draw(st.sampled_from([(1, 1), (1, 2), (2, 1),
                                               (5, 1)]))
        return make_mlp(n=draw(st.integers(2, 16)), in_dim=in_dim,
                        hidden=hidden, seed=seed)
    rows, cols, rank = draw(st.sampled_from([(1, 1, 1), (2, 3, 1),
                                             (4, 4, 1), (2, 2, 2)]))
    return make_matrix_factorization(rows, cols, rank, seed=seed)


@st.composite
def optimizers(draw):
    kind = draw(st.sampled_from(OPTIMIZER_KINDS))
    if kind not in LINE_SEARCH_KINDS:
        opt = {"kind": kind, "lr": draw(st.sampled_from([1e-3, 0.1, 5.0]))}
        if draw(st.booleans()):
            opt.update(schedule="cosine_warmup", warm_frac=0.5)
        return opt
    eta_init = draw(st.sampled_from([1e-9, 1.0, 1e6]))
    opt = {"kind": kind, "eta_init": eta_init,
           "eta_max": max(10.0, eta_init),
           "grad_eps": draw(st.sampled_from([0.0, 1e-8, 1e3])),
           "max_backtracks": draw(st.sampled_from([0, 1, 100])),
           "delta": draw(st.sampled_from([0.1, 0.9]))}
    if draw(st.booleans()):
        # a give-up takes eta_min, half the first step size
        opt["eta_min"] = 0.5 * eta_init
    if kind.endswith("salsa") and draw(st.booleans()):
        opt["enforce_nondecrease"] = True
    return opt


@st.composite
def runs(draw):
    """A problem, two configurations to interleave on it, each with its own
    seed, controller setting and batch size, and the epoch count."""
    configs = [(draw(optimizers()), draw(st.integers(0, 3)),
                draw(st.booleans()), draw(st.integers(1, 8)))
               for _ in range(2)]
    # two epochs at least, so that a cosine warmup has a step
    return draw(problems()), configs, draw(st.integers(2, 3))


def recorded_run(problem, opt, seed, fc, batch_size, epochs):
    """``run_single`` on a copy of ``problem`` that records the point of
    each gradient evaluation, as ``replay_verify`` does, and counts every
    evaluation."""
    base_points, calls = [], []

    def recording(w, indices, grad=True):
        calls.append(grad)
        if grad:
            base_points.append(w)
        return problem.loss_grad(w, indices, grad=grad)

    result = run_single(dataclasses.replace(problem, loss_grad=recording),
                        opt, seed, epochs, batch_size, frequency_controller=fc)
    return result, base_points, len(calls), run_bytes(result)


def same_bits(a, b):
    """Equal bytes, where any NaN matches any NaN: IEEE leaves the sign and
    payload of a NaN that an operation produces unspecified."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and \
        a[~nan].tobytes() == b[~nan].tobytes()


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def run_bytes(result):
    """What a run exposes, as bytes taken when the run returns."""
    records = result.trace.records
    return (result.trace.to_csv(), repr([r.h for r in records]),
            repr([r.s for r in records]), result.final_params.tobytes())


# with enforce_nondecrease, a step under the gradient guard still runs a
# search along d_update, which its record shows as backtracks=0: here 343
# loss_grad calls over 10 steps, of which step 7 gives up after 101 trials
FOUND_219 = ({"kind": "adam_salsa", "enforce_nondecrease": True,
              "grad_eps": 1e3, "eta_init": 8.0}, 3, False, 8)
# frequency-skipped steps reapply a step size that overflows this run at
# step 25, so its status is not ok
DIVERGES = ({"kind": "sgd_sls", "eta_init": 8.0, "max_backtracks": 100}, 0,
            True, 1)


@given(runs())
@example((make_mlp(n=96, in_dim=4, hidden=6, seed=1), [FOUND_219] * 2, 1))
@example((make_matrix_factorization(8, 6, 2, seed=3), [DIVERGES] * 2, 2))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_runs_are_pure_and_each_update_is_w_plus_eta_d(run):
    problem, configs, epochs = run
    with np.errstate(all="ignore"):
        # I1: A, B, A, B on one problem; each repeat gives the same bytes
        first = [run_bytes(run_single(problem, opt, seed, epochs, batch_size,
                                      frequency_controller=fc))
                 for opt, seed, fc, batch_size in configs]
        again = [recorded_run(problem, opt, seed, fc, batch_size, epochs)
                 for opt, seed, fc, batch_size in configs]
        for one, (*_, other) in zip(first, again):
            assert one == other

        # I2: every step of both runs is w + eta * d_update
        for (opt, seed, fc, batch_size), (result, base_points, calls, _) in \
                zip(configs, again):
            records = result.trace.records
            assert len(base_points) == len(records)
            # I3: the status says whether the run stayed finite
            finite = [math.isfinite(r.loss) and math.isfinite(r.grad_norm_sq)
                      for r in records]
            if result.status == "ok":
                assert all(finite), opt
                assert np.isfinite(result.final_params).all(), opt
            else:
                assert result.status == f"diverged at {records[-1].k}"
                assert all(finite[:-1]), opt
            # I5: each call is counted in its step's record
            assert sum(r.evals for r in records) == calls, opt
            sampler = BatchSampler(seed=seed, batch_size=batch_size,
                                   dataset_size=problem.dataset_size)
            adam = opt["kind"].startswith("adam")
            m = v = np.zeros(problem.dim)
            nexts = base_points[1:] + [result.final_params]
            prevs = [None] + records[:-1]
            for k, (rec, prev, w, w_next) in enumerate(zip(
                    records, prevs, base_points, nexts)):
                indices = sampler.sample(k)
                g = problem.loss_grad(w, indices).grad
                if adam:
                    t = k + 1
                    m = BETA1 * m + (1.0 - BETA1) * g
                    v = BETA2 * v + (1.0 - BETA2) * g * g
                    d_update = -(m / (1.0 - BETA1 ** t)) / \
                        (np.sqrt(v / (1.0 - BETA2 ** t)) + EPSILON)
                else:
                    d_update = -g
                assert same_bits(w_next, w + rec.eta * d_update), \
                    (opt, k, rec)
                # I4: a give-up takes eta_min and commits nothing
                if rec.gave_up:
                    assert rec.eta == opt.get("eta_min", SlsConfig.eta_min) \
                        and rec.backtracks == (opt["max_backtracks"]
                                               if rec.searched else 0), \
                        (opt, k, rec)
                    h, s = (prev.h, prev.s) if prev else (math.nan, math.nan)
                    assert same_float(rec.h, h) and same_float(rec.s, s), \
                        (opt, k, rec)
                # I7: a non-decrease search does not raise the batch loss
                if opt.get("enforce_nondecrease") and rec.searched \
                        and not rec.gave_up:
                    assert problem.loss_grad(w_next, indices, grad=False) \
                        .loss <= rec.loss, (opt, k, rec)
                # only a SaLSa run has smoothing to report
                if not opt["kind"].endswith("salsa"):
                    assert math.isnan(rec.h) and math.isnan(rec.s), \
                        (opt, k, rec)
