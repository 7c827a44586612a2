"""Desk-scale objectives with analytic gradients and deterministic batching.

Every problem reduces its loss by the batch mean, so gradient magnitudes are
comparable across batch sizes. All randomness flows through counter-based
generators keyed by explicit seeds; nothing reads global RNG state, which
keeps traces bit-reproducible.

``loss_grad`` is a step's hot path, and on a small batch numpy's per-call
overhead outweighs its arithmetic. The built-in kernels therefore make few
numpy calls, each with the bits of the plain expression:
``np.add.reduce(x)`` is ``x.sum()`` (and ``/ n`` is ``x.mean()``) without
the Python wrapper in numpy's ``_methods``, ``X.take(indices, axis=0)``
gathers the rows of ``X[indices]``, and a literal operand is a read-only
0-d float64 array, which numpy takes faster than a Python float. The
logistic, MLP and matrix-factorization kernels keep two more rules:

- No array-function-dispatched call (``np.where``, ``np.concatenate`` and
  the like), which costs two to three times a ufunc on a batch of 32:
  only ufuncs, ``@``/``np.matmul``, ``take`` and indexing. The
  matrix-factorization kernel calls numpy's C einsum, the function
  ``np.einsum`` itself calls when ``optimize`` is off, because
  ``np.einsum``'s dispatch and Python wrapper cost about as much as the
  sum; its one dispatched call left is ``np.bincount``.
- A temporary is formed in place (``out=`` or an augmented assignment)
  only in an array the kernel allocated itself, never in ``w``, a view of
  it or the problem's data. Each gradient is a new array; the MLP's is
  written block by block through views of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy._core.multiarray import c_einsum as _c_einsum

from .core import FNV_OFFSET, ConfigError, EvalResult, ParamVector, \
    check_fields, checked_arguments, fnv_fold, seeded_rng, stream_key_from


@dataclass
class Problem:
    """An objective: per-batch loss/gradient, from which the full-data
    loss is derived.

    ``loss_grad(w, indices, grad=True)`` evaluates the mean loss and its
    gradient over the given dataset indices: integer positions, negative
    ones counted from the end (a boolean mask is not an index set). With
    ``grad=False`` it returns ``EvalResult(loss, None)`` and skips the
    gradient; the loss must come from the same expression either way, so
    that a loss probed during a line search and the loss recorded at the
    next step agree bit for bit. ``loss_grad`` must not modify ``w``.
    ``init_params(seed)`` draws a starting point. ``val_accuracy`` is
    present only for classification problems (held-out split). Problems
    are immutable after construction and safe to share: the built-in
    factories mark the data their closures read read-only.
    """

    name: str
    dim: int
    dataset_size: int
    loss_grad: Callable[..., EvalResult]
    init_params: Callable[[int], ParamVector]
    optimum_hint: Optional[float] = None
    val_accuracy: Optional[Callable[[ParamVector], float]] = None
    extras: dict = field(default_factory=dict)

    def full_indices(self) -> np.ndarray:
        return np.arange(self.dataset_size)

    def full_loss(self, w: ParamVector) -> float:
        """The loss over the whole dataset: ``loss_grad`` over every index."""
        return self.loss_grad(w, self.full_indices(), grad=False).loss


@dataclass
class BatchSampler:
    """Deterministic epoch-shuffled mini-batch indices.

    Each epoch is a seeded permutation of the dataset, cut into consecutive
    batches (last one may be short). ``sample(k)`` depends only on
    (seed, k), so any batch can be replayed later.
    """

    seed: int
    batch_size: int = field(metadata={"range": ">= 1"})
    dataset_size: int = field(metadata={"range": ">= 1"})
    batches_per_epoch: int = field(init=False, repr=False, compare=False)
    _cache: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _key_state: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self)
        self.batch_size = min(self.batch_size, self.dataset_size)
        self.batches_per_epoch = -(-self.dataset_size // self.batch_size)
        # every step key starts with the seed: fold it into the hash once
        self._key_state = fnv_fold(FNV_OFFSET, (self.seed,))

    def sample(self, k: int) -> np.ndarray:
        epoch, slot = divmod(k, self.batches_per_epoch)
        cache = self._cache
        # a one-row dataset has one permutation, [0], so every epoch reuses
        # the first one built instead of seeding a new generator per step
        if cache is None or (cache[0] != epoch and self.dataset_size > 1):
            perm = seeded_rng(self.seed, epoch, 0xBA7C).permutation(
                self.dataset_size)
            cache = self._cache = (epoch, perm)
        return cache[1][slot * self.batch_size:(slot + 1) * self.batch_size]

    def step_key(self, k: int) -> int:
        """Stable integer identifying step k's batch stream (for records):
        ``stream_key(seed, k, 0xBA7C)``, for a Python int ``k``."""
        return stream_key_from(self._key_state, k, 0xBA7C)


class BatchObjective:
    """Loss/gradient pinned to one mini-batch.

    A line-search step must evaluate every trial on the same batch that
    produced its loss and gradient; this object is that batch. It also
    counts evaluations, which the eval-budget invariants check.
    """

    def __init__(self, problem: Problem, indices: np.ndarray, key: int = 0):
        self.indices = indices
        self.key = key
        self.n_evals = 0
        self._loss_grad = problem.loss_grad

    def eval(self, w: ParamVector) -> EvalResult:
        self.n_evals += 1
        return self._loss_grad(w, self.indices)

    def loss(self, w: ParamVector) -> float:
        # loss_grad computes the loss with the same expression whether or
        # not it also computes the gradient, so a loss probed during the
        # search and the loss recorded at the next step agree bit for bit.
        self.n_evals += 1
        return self._loss_grad(w, self.indices, grad=False).loss


def batch_for_step(problem: Problem, sampler: BatchSampler, k: int) -> BatchObjective:
    return BatchObjective(problem, sampler.sample(k), sampler.step_key(k))


# ---------------------------------------------------------------------------
# problem factories: each checks its arguments (``core.checked_arguments``)


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: data a problem's closures read is fixed
    once the problem is built."""
    a.flags.writeable = False
    return a


@checked_arguments(dim=">= 1", cond=">= 1")
def make_quadratic(dim: int, cond: float = 1.0, seed: int = 0) -> Problem:
    """Deterministic quadratic bowl 0.5 (w-w*)' A (w-w*).

    A is diagonal with eigenvalues log-spaced in [1, cond], the minimizer w*
    is seeded random, and the optimum value is exactly 0. dataset_size is 1:
    every "batch" is the full objective.
    """
    eigs = _readonly(np.logspace(0.0, math.log10(cond), dim))
    w_star = _readonly(seeded_rng(seed, 0x0A).standard_normal(dim))

    def loss_grad(w, indices, grad=True):
        r = np.asarray(w) - w_star
        er = eigs * r
        # (eigs * r) * r is eigs * r * r in its evaluation order
        loss = float(0.5 * np.add.reduce(er * r))
        if not grad:
            return EvalResult(loss, None)
        return EvalResult(loss=loss, grad=er)

    def init_params(run_seed):
        return w_star + seeded_rng(seed, run_seed, 0x0B).standard_normal(dim)

    return Problem(name=f"quadratic_d{dim}_c{cond:g}", dim=dim, dataset_size=1,
                   loss_grad=loss_grad, init_params=init_params,
                   optimum_hint=0.0,
                   extras={"w_star": w_star, "eigs": eigs})


_L2_REG = 1e-4
_ZERO, _ONE, _TWO_L2_REG = (_readonly(np.array(x))
                            for x in (0.0, 1.0, 2.0 * _L2_REG))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise, both from
    # one exp of -|z|, which never overflows; np.minimum returns a NaN z
    # itself, where -np.abs(z) would flip its sign bit
    e = np.negative(z)
    np.exp(np.minimum(z, e, out=e), out=e)
    # the numerator max(e, sign z) is the masked form's where(z >= 0, 1, e):
    # e = exp(-|z|) lies in [0, 1], so sign z = 1 wins for z > 0 (+inf
    # too), e wins over -1 for z < 0 (-inf too), and e = 1 wins over sign
    # z = +-0 at z = +-0; a NaN z gives a NaN e, which np.maximum returns,
    # being its first operand, as np.where returns e
    num = np.maximum(e, np.sign(z))
    return np.divide(num, np.add(_ONE, e, out=e), out=num)


def _logreg_from_data(X: np.ndarray, y: np.ndarray, seed: int,
                      name: str) -> Problem:
    """Regularized logistic regression on given features and labels.

    Every label must be exactly +1.0 or -1.0: the training rows are stored
    with their labels folded in, ``Xy = y[:, None] * X[tr]``, which is
    exact only because a product with +-1 flips no more than a sign
    (folding in -y would save a negation, but flip a NaN margin's sign).
    80% of the rows (seeded shuffle) form the training objective; held-out
    accuracy on the remaining 20% is the validation metric. ``extras``
    holds the training split as ``Xy`` and ``ytr``; ``ytr[:, None] * Xy``
    gives back the training rows bit for bit.
    """
    n = X.shape[0]
    perm = seeded_rng(seed, 0x15).permutation(n)
    n_train = max(1, int(round(0.8 * n)))
    tr, va = perm[:n_train], perm[n_train:]
    ytr = _readonly(y[tr])
    # X[tr] is a fresh copy, so the labels fold into it in place
    Xy = X[tr]
    Xy *= ytr[:, None]
    _readonly(Xy)
    Xva, yva = _readonly(X[va]), _readonly(y[va])
    dim = X.shape[1]

    def loss_grad(w, indices, grad=True):
        # take() gathers rows with the same bits as Xy[indices], faster;
        # a row holds y x, and (y x).w == y (x.w) bit for bit
        Xb = Xy.take(indices, axis=0)
        neg_margins = -(Xb @ w)
        # np.add.reduce(x) / n is x.mean() bit for bit, without its Python
        # wrapper
        loss = float(np.add.reduce(np.logaddexp(_ZERO, neg_margins)) / len(Xb)
                     + _L2_REG * (w @ w))
        if not grad:
            return EvalResult(loss, None)
        # d/dw mean log(1+exp(-y x.w)) = mean(-y * sigma(-y x.w) * x); the
        # label rides in Xb, and (y x) (s / -n) == x ((-y s) / n) exactly
        g = Xb.T @ (_sigmoid(neg_margins) / -len(Xb)) + _TWO_L2_REG * w
        return EvalResult(loss=loss, grad=g)

    def init_params(run_seed):
        return 0.1 * seeded_rng(seed, run_seed, 0x16).standard_normal(dim)

    val_accuracy = None
    if len(Xva):
        def val_accuracy(w):
            return float(np.mean(np.where(Xva @ w >= 0, 1.0, -1.0) == yva))

    return Problem(name=name, dim=dim, dataset_size=n_train,
                   loss_grad=loss_grad, init_params=init_params,
                   val_accuracy=val_accuracy,
                   extras={"Xy": Xy, "ytr": ytr})


@checked_arguments(n=">= 1", dim=">= 1", label_noise="[0,0.5)")
def make_logreg(n: int, dim: int, seed: int = 0,
                label_noise: float = 0.0) -> Problem:
    """Synthetic Gaussian logistic regression with optional label flips."""
    rng = seeded_rng(seed, 0x11)
    X = rng.standard_normal((n, dim))
    w_true = rng.standard_normal(dim)
    y = np.where(X @ w_true >= 0, 1.0, -1.0)
    flips = rng.random(n) < label_noise
    y[flips] *= -1.0
    prob = _logreg_from_data(
        X, y, seed, name=f"logreg_n{n}_d{dim}_noise{label_noise:g}")
    prob.extras["w_true"] = w_true
    return prob


def _mlp_from_data(X: np.ndarray, y01: np.ndarray, hidden: int, seed: int,
                   name: str) -> Problem:
    """One-hidden-layer tanh network with binary cross-entropy.

    Parameters are flattened as [W1 (in x h), b1 (h), w2 (h), b2 (1)].
    Gradients come from manual backpropagation. ``extras`` holds the
    training split as ``Xtr`` and ``ytr``.
    """
    n, in_dim = X.shape
    perm = seeded_rng(seed, 0x25).permutation(n)
    n_train = max(1, int(round(0.8 * n)))
    tr, va = perm[:n_train], perm[n_train:]
    Xtr, ytr = _readonly(X[tr]), _readonly(y01[tr])
    Xva, yva = _readonly(X[va]), _readonly(y01[va])
    n_w1 = in_dim * hidden
    dim = n_w1 + hidden + hidden + 1

    def unpack(w):
        W1 = w[:n_w1].reshape(in_dim, hidden)
        b1 = w[n_w1:n_w1 + hidden]
        w2 = w[n_w1 + hidden:n_w1 + 2 * hidden]
        b2 = w[-1, ...]  # a 0-d view, which numpy takes faster than a scalar
        return W1, b1, w2, b2

    def loss_grad(w, indices, grad=True):
        Xb, yb = Xtr.take(indices, axis=0), ytr[indices]
        W1, b1, w2, b2 = unpack(w)
        n = len(yb)
        # A = tanh(Xb @ W1 + b1), formed in the array its matmul returned;
        # z = A @ w2 + b2 gets its own, since on a short batch an in-place
        # add of two NaNs may return the other one than the allocating form
        A = Xb @ W1
        np.tanh(np.add(A, b1, out=A), out=A)
        z = np.add(A @ w2, b2)
        # BCE on logits: mean(log(1+e^z) - y z), stable for either sign
        t = np.logaddexp(_ZERO, z)
        loss = float(np.add.reduce(np.subtract(t, yb * z, out=t)) / n)
        if not grad:
            return EvalResult(loss, None)
        # each block of g, in the order [W1, b1, w2, b2], is written
        # through a view; a reduce's positional arguments are (array, axis,
        # dtype, out)
        g = np.empty(dim)
        dz = _sigmoid(z)
        np.divide(np.subtract(dz, yb, out=dz), n, out=dz)
        np.matmul(A.T, dz, out=g[n_w1 + hidden:n_w1 + 2 * hidden])
        np.add.reduce(dz, 0, None, g[-1, ...])
        # dA = (dz w2^T) * (1 - A * A), the second factor formed in A
        np.subtract(_ONE, np.multiply(A, A, out=A), out=A)
        dA = np.multiply(np.multiply(dz[:, None], w2), A, out=A)
        np.matmul(Xb.T, dA, out=g[:n_w1].reshape(in_dim, hidden))
        np.add.reduce(dA, 0, None, g[n_w1:n_w1 + hidden])
        return EvalResult(loss=loss, grad=g)

    def init_params(run_seed):
        rng = seeded_rng(seed, run_seed, 0x26)
        W1 = rng.standard_normal((in_dim, hidden)) / math.sqrt(in_dim)
        w2 = rng.standard_normal(hidden) / math.sqrt(hidden)
        return np.concatenate([W1.ravel(), np.zeros(hidden), w2, [0.0]])

    val_accuracy = None
    if len(Xva):
        def val_accuracy(w):
            W1, b1, w2, b2 = unpack(w)
            z = np.tanh(Xva @ W1 + b1) @ w2 + b2
            return float(np.mean((z >= 0) == (yva > 0.5)))

    return Problem(name=name, dim=dim, dataset_size=n_train,
                   loss_grad=loss_grad, init_params=init_params,
                   val_accuracy=val_accuracy,
                   extras={"Xtr": Xtr, "ytr": ytr})


@checked_arguments(n=">= 1", in_dim=">= 1", hidden=">= 1",
                   separation=">= 0")
def make_mlp(n: int, in_dim: int, hidden: int, seed: int = 0,
             separation: float = 2.0) -> Problem:
    """Two-cluster binary classification for a small tanh network.

    ``separation`` is the distance of each cluster center from the origin in
    units of the noise sigma; 2.0 leaves class overlap, 4.0 is effectively
    separable (a task that keeps descending for a long horizon).
    """
    rng = seeded_rng(seed, 0x21)
    center = rng.standard_normal(in_dim)
    center *= separation / np.linalg.norm(center)
    y01 = (rng.random(n) < 0.5).astype(np.float64)
    X = rng.standard_normal((n, in_dim)) + np.where(y01[:, None] > 0.5,
                                                    center, -center)
    return _mlp_from_data(X, y01, hidden, seed,
                          name=f"mlp_n{n}_in{in_dim}_h{hidden}")


@checked_arguments(rows=">= 1", cols=">= 1", rank=">= 1", noise=">= 0")
def make_matrix_factorization(rows: int, cols: int, rank: int, seed: int = 0,
                              noise: float = 0.01) -> Problem:
    """Low-rank matrix recovery: mean over observed entries of
    0.5 * (U V' - M)_ij^2, entries sampled as the dataset.

    M comes from a seeded rank-``rank`` ground truth plus Gaussian noise;
    ``extras["M"]`` holds it. Parameters are [U.ravel(), V.ravel()].

    The residual's sum over rank, U[i] . V[j], is numpy's einsum, in
    einsum's order. That order follows numpy's SIMD lanes, not the index
    order, so the losses and gradients depend on the numpy build as well
    as its version.
    """
    if rank > min(rows, cols):
        raise ConfigError("rank must be <= min(rows, cols)")
    rng = seeded_rng(seed, 0x31)
    U0 = rng.standard_normal((rows, rank)) / math.sqrt(rank)
    V0 = rng.standard_normal((cols, rank)) / math.sqrt(rank)
    M = _readonly(U0 @ V0.T + noise * rng.standard_normal((rows, cols)))
    targets = M.ravel()
    dim = (rows + cols) * rank
    # entry e = i * cols + j: row e of pos_of holds the flat positions in w
    # of U[i] and then V[j]; bin_of holds the same positions with the two
    # halves swapped, so that r * U[i] lands on V[j]'s and r * V[j] on U[i]'s
    i, j = np.divmod(np.arange(rows * cols), cols)
    k = np.arange(rank)
    u_pos = i[:, None] * rank + k
    v_pos = rows * rank + j[:, None] * rank + k
    pos_of = _readonly(np.hstack([u_pos, v_pos]))
    bin_of = _readonly(np.hstack([v_pos, u_pos]))

    def loss_grad(w, indices, grad=True):
        # w.take gathers the entries of w[...], and the C einsum returns the
        # array np.einsum would; the residual gets an array of its own, as
        # einsum's has w's dtype, which may be narrower than float64
        P = w.take(pos_of.take(indices, axis=0))
        r = _c_einsum("bk,bk->b", P[:, :rank], P[:, rank:]) - targets[indices]
        n = len(r)
        loss = float(0.5 * (np.add.reduce(r * r) / n))
        if not grad:
            return EvalResult(loss, None)
        # bincount adds each bin's weights in input order, as np.add.at
        # into zeros does, so every entry keeps its bits (where two NaNs
        # meet, either may win, as numpy leaves a NaN's sign unspecified);
        # the weights are r[:, None] * P / n, divided in place
        weights = np.multiply(r[:, None], P)
        weights /= n
        g = np.bincount(bin_of.take(indices, axis=0).ravel(),
                        weights=weights.ravel(), minlength=dim)
        return EvalResult(loss, g)

    def init_params(run_seed):
        return 0.1 * seeded_rng(seed, run_seed, 0x32).standard_normal(dim)

    return Problem(name=f"matfac_{rows}x{cols}_r{rank}", dim=dim,
                   dataset_size=rows * cols, loss_grad=loss_grad,
                   init_params=init_params,
                   optimum_hint=0.0 if noise == 0 else None,
                   extras={"M": M, "ground_truth": np.concatenate(
                       [U0.ravel(), V0.ravel()])})


def finite_diff_grad(problem: Problem, w: ParamVector, h: float) -> ParamVector:
    """Central-difference gradient of the full-data loss, one coordinate at
    a time. The verification oracle for every analytic gradient here."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    w = np.asarray(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for i in range(len(w)):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        grad[i] = (problem.full_loss(wp) - problem.full_loss(wm)) / (2.0 * h)
    return grad


def load_csv_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read rows of ``feature,...,feature,label``; a header line is skipped.

    The file needs at least one data row. Every value must be finite: a
    ``nan`` or ``inf`` raises ValueError naming the first data row
    (1-based, header excluded) that holds one.
    Labels are returned unchanged; ``problem_from_csv`` checks that they
    are {0,1} or {-1,1}.
    """
    with open(path) as f:
        first = f.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",")]
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # a file with no data rows is reported below, as one error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if not data.size:
        raise ValueError("the file holds no data rows")
    if data.shape[1] < 2:
        raise ValueError("need at least one feature column plus a label column")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"data row {bad[0] + 1} holds a non-finite value: "
                         f"{data[bad[0]].tolist()}")
    return data[:, :-1], data[:, -1]


@checked_arguments(model=("logreg", "mlp"), hidden=">= 1")
def problem_from_csv(path: str, model: str = "logreg", hidden: int = 8,
                     seed: int = 0) -> Problem:
    """Build a logreg or mlp problem, as ``model`` says, from a CSV file."""
    X, y = load_csv_dataset(path)
    labels = np.unique(y).tolist()
    # -1 and 0 together would name three classes, which both mappings
    # below would merge into two
    if not (set(labels) <= {0.0, 1.0} or set(labels) <= {-1.0, 1.0}):
        raise ValueError(f"labels must be binary (0/1 or -1/1), got {labels}")
    name = f"csv_{model}"
    if model == "logreg":
        y_pm = np.where(y > 0, 1.0, -1.0)
        return _logreg_from_data(X, y_pm, seed, name=name)
    y01 = (y > 0).astype(np.float64)
    return _mlp_from_data(X, y01, hidden, seed, name=name)
