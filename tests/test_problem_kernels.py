"""The factory kernels against the formulas they replaced, bit for bit.

Each ``ref_*`` below is a factory's ``loss_grad`` body as it was written
with ``np.add.at`` scatters, a masked sigmoid and ``.mean()``, kept as the
reference the faster kernels must reproduce. It reads the same data, from
``prob.extras``, with ``w`` split by the problem's shapes.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from salsa_opt import problems as problems_module
from salsa_opt.core import EvalResult, seeded_rng
from salsa_opt.problems import (make_logreg, make_matrix_factorization,
                                make_mlp, make_quadratic, problem_from_csv)


def ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_quadratic(prob):
    eigs, w_star = prob.extras["eigs"], prob.extras["w_star"]

    def loss_grad(w, indices, grad=True):
        r = np.asarray(w) - w_star
        loss = float(0.5 * (eigs * r * r).sum())
        if not grad:
            return EvalResult(loss, None)
        return EvalResult(loss=loss, grad=eigs * r)

    return loss_grad


def ref_logreg(prob):
    # the kernel stores each training row times its +-1 label; a second
    # product with the label gives the row back exactly
    ytr = prob.extras["ytr"]
    Xtr = ytr[:, None] * prob.extras["Xy"]
    _L2_REG = problems_module._L2_REG

    def loss_grad(w, indices, grad=True):
        Xb, yb = Xtr[indices], ytr[indices]
        margins = yb * (Xb @ w)
        loss = float(np.logaddexp(0.0, -margins).mean() + _L2_REG * (w @ w))
        if not grad:
            return EvalResult(loss, None)
        coeff = -yb * ref_sigmoid(-margins) / len(yb)
        g = Xb.T @ coeff + 2.0 * _L2_REG * w
        return EvalResult(loss=loss, grad=g)

    return loss_grad


def ref_mlp(prob):
    Xtr, ytr = prob.extras["Xtr"], prob.extras["ytr"]
    in_dim = Xtr.shape[1]
    hidden = (prob.dim - 1) // (in_dim + 2)
    n_w1 = in_dim * hidden

    def unpack(w):
        W1 = w[:n_w1].reshape(in_dim, hidden)
        b1 = w[n_w1:n_w1 + hidden]
        w2 = w[n_w1 + hidden:n_w1 + 2 * hidden]
        b2 = w[-1]
        return W1, b1, w2, b2

    def loss_grad(w, indices, grad=True):
        Xb, yb = Xtr[indices], ytr[indices]
        W1, b1, w2, b2 = unpack(w)
        A = np.tanh(Xb @ W1 + b1)
        z = A @ w2 + b2
        loss = float((np.logaddexp(0.0, z) - yb * z).mean())
        if not grad:
            return EvalResult(loss, None)
        dz = (ref_sigmoid(z) - yb) / len(yb)
        gw2 = A.T @ dz
        gb2 = float(dz.sum())
        dA = np.outer(dz, w2) * (1.0 - A * A)
        gW1 = Xb.T @ dA
        gb1 = dA.sum(axis=0)
        g = np.concatenate([gW1.ravel(), gb1, gw2, [gb2]])
        return EvalResult(loss=loss, grad=g)

    return loss_grad


def ref_matfac(prob):
    M = prob.extras["M"]
    rows, cols = M.shape
    rank = prob.dim // (rows + cols)
    n_u = rows * rank

    def unpack(w):
        return w[:n_u].reshape(rows, rank), w[n_u:].reshape(cols, rank)

    def loss_grad(w, indices, grad=True):
        U, V = unpack(w)
        i, j = np.divmod(np.asarray(indices), cols)
        r = np.einsum("bk,bk->b", U[i], V[j]) - M[i, j]
        loss = float(0.5 * (r * r).mean())
        if not grad:
            return EvalResult(loss, None)
        gU = np.zeros_like(U)
        gV = np.zeros_like(V)
        np.add.at(gU, i, r[:, None] * V[j] / len(r))
        np.add.at(gV, j, r[:, None] * U[i] / len(r))
        return EvalResult(loss=loss,
                          grad=np.concatenate([gU.ravel(), gV.ravel()]))

    return loss_grad


def noisy_logreg(n=300, dim=8, seed=1):
    """``make_logreg`` with label noise, and the features it drew."""
    X = seeded_rng(seed, 0x11).standard_normal((n, dim))
    return make_logreg(n=n, dim=dim, seed=seed, label_noise=0.1), X


def csv_logreg(labels, seed=4):
    """A logreg problem built by ``problem_from_csv`` from Gaussian feature
    rows, with signed zeros and a huge entry mixed in, and the given label
    column; and the features it read."""
    X = seeded_rng(seed, 0x5C).standard_normal((len(labels), 4))
    X[::7, 0] = -0.0
    X[1::7, 1] = 0.0
    X[2::7, 2] = -1e300
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text("".join(
            ",".join(repr(float(v)) for v in row) + f",{label}\n"
            for row, label in zip(X, labels)))
        return problem_from_csv(str(path), kind="logreg", seed=seed), X


LABELS_01 = [int(v) for v in seeded_rng(5, 0x5D).integers(0, 2, 90)]

CASES = [
    (make_quadratic(dim=6, cond=50, seed=1), ref_quadratic),
    (noisy_logreg()[0], ref_logreg),
    (csv_logreg(LABELS_01)[0], ref_logreg),
    (make_mlp(n=240, in_dim=5, hidden=4, seed=1), ref_mlp),
    (make_matrix_factorization(rows=8, cols=6, rank=2, seed=1), ref_matfac),
    (make_matrix_factorization(rows=40, cols=30, rank=3, seed=2), ref_matfac),
    (make_matrix_factorization(rows=9, cols=11, rank=7, seed=3), ref_matfac),
]

SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]

# moderate values, large ones that saturate every sigmoid, any double, and
# NaN, +-inf and signed zeros
ENTRIES = st.one_of(st.floats(-5.0, 5.0), st.floats(-1e4, 1e4),
                    st.floats(width=64), st.sampled_from(SPECIALS))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _same_but_nan_payload(a, b):
    """Equal bytes everywhere except that a NaN may carry another sign or
    payload: NaN at the same places, every other entry bit for bit."""
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (a.shape == b.shape and np.array_equal(nan_a, nan_b)
            and _bits(a[~nan_a]) == _bits(b[~nan_b]))


@st.composite
def index_sets(draw, size):
    if draw(st.booleans()):
        return np.arange(size)
    # batch sizes 1-64 over negative as well as positive positions; a short
    # list of positions drawn with replacement repeats some of them
    pool = draw(st.lists(st.integers(-size, size - 1), min_size=1,
                         max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=64))
    return np.array([pool[p] for p in picks], dtype=np.int64)


@pytest.mark.parametrize("prob, ref", CASES,
                         ids=[prob.name for prob, _ in CASES])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_match_the_reference_formulas(prob, ref, data):
    w = data.draw(arrays(np.float64, prob.dim, elements=ENTRIES), label="w")
    idx = data.draw(index_sets(prob.dataset_size), label="indices")
    with np.errstate(all="ignore"):
        want = ref(prob)(w, idx)
        got = prob.loss_grad(w, idx)
        loss_only = prob.loss_grad(w, idx, grad=False)
    assert _bits(got.loss) == _bits(want.loss)
    assert loss_only.grad is None
    assert _bits(loss_only.loss) == _bits(want.loss)
    assert got.grad.dtype == want.grad.dtype
    if prob.name.startswith("matfac"):
        # np.bincount and np.add.at add each bin in the same order, so every
        # finite or infinite entry keeps its bits, but where two NaNs meet
        # they may keep different ones of the two (numpy specifies no NaN
        # sign or payload); a NaN still lands on the same entries
        assert _same_but_nan_payload(got.grad, want.grad)
    else:
        assert _bits(got.grad) == _bits(want.grad)


def test_mlp_kernel_keeps_the_reference_nan_sign_on_a_short_batch():
    # on one row, z = A @ w2 + b2 adds a NaN to b2 = -NaN; an in-place add
    # there returned the other NaN than the allocating form, so the loss
    # came out -NaN against the reference's +NaN
    prob, ref = CASES[3]
    w = np.full(prob.dim, np.nan)
    w[-2], w[-1] = 0.0, -np.nan
    idx = np.array([0])
    with np.errstate(all="ignore"):
        want = ref(prob)(w, idx)
        got = prob.loss_grad(w, idx)
        loss_only = prob.loss_grad(w, idx, grad=False)
    assert _bits(got.loss) == _bits(want.loss)
    assert _bits(loss_only.loss) == _bits(want.loss)
    assert _bits(got.grad) == _bits(want.grad)


@pytest.mark.parametrize("prob", [prob for prob, _ in CASES],
                         ids=[prob.name for prob, _ in CASES])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_kernels_write_only_arrays_they_allocate(prob, data):
    # the kernels form temporaries in place; they must never write into
    # their inputs, and each gradient must be a new array of its own
    w = data.draw(arrays(np.float64, prob.dim, elements=ENTRIES), label="w")
    idx = data.draw(index_sets(prob.dataset_size), label="indices")
    w_bytes, idx_bytes = w.tobytes(), idx.tobytes()
    with np.errstate(all="ignore"):
        first = prob.loss_grad(w, idx).grad
        first_bytes = first.tobytes()
        prob.loss_grad(w, idx, grad=False)
        second = prob.loss_grad(w, idx).grad
    assert w.tobytes() == w_bytes
    assert idx.tobytes() == idx_bytes
    assert first.tobytes() == first_bytes
    assert not np.shares_memory(second, first)
    for grad in (first, second):
        for name, other in [("w", w), *prob.extras.items()]:
            assert not np.shares_memory(grad, other), name


def test_sigmoid_matches_the_masked_form():
    z = np.concatenate([
        np.linspace(-800.0, 800.0, 4001),
        np.random.default_rng(0).standard_normal(500) * 40.0,
        [1e-320, -1e-320, 1e308, -1e308] + SPECIALS,
    ])
    with np.errstate(all="ignore"):
        assert _bits(problems_module._sigmoid(z)) == _bits(ref_sigmoid(z))


# the 0-d operands every logreg/MLP kernel shares, as one more "problem"
KERNEL_CONSTANTS = SimpleNamespace(name="kernel-constants", extras={
    name: getattr(problems_module, name)
    for name in ("_ZERO", "_ONE", "_TWO_L2_REG")})


@pytest.mark.parametrize("prob, names", [
    (CASES[0][0], ("eigs", "w_star")),
    (CASES[1][0], ("Xy", "ytr")),
    (CASES[3][0], ("Xtr", "ytr")),
    (CASES[4][0], ("M",)),
    (KERNEL_CONSTANTS, tuple(KERNEL_CONSTANTS.extras)),
], ids=lambda x: getattr(x, "name", ""))
def test_factory_data_is_read_only(prob, names):
    for name in names:
        a = prob.extras[name]
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_writing_into_problem_data_raises():
    prob = make_quadratic(dim=3, cond=10, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        prob.extras["eigs"][0] = 2.0


@pytest.mark.parametrize("build, seed", [
    (noisy_logreg, 1),
    (lambda: csv_logreg(LABELS_01), 4),
    (lambda: csv_logreg([2 * v - 1 for v in LABELS_01]), 4),
], ids=["make_logreg-noise", "csv-0-1", "csv-minus1-1"])
def test_label_fold_gives_back_the_training_rows(build, seed):
    prob, X = build()
    tr = seeded_rng(seed, 0x15).permutation(len(X))[:prob.dataset_size]
    ytr = prob.extras["ytr"]
    assert set(ytr.tolist()) == {-1.0, 1.0}
    assert _bits(ytr[:, None] * prob.extras["Xy"]) == _bits(X[tr])
