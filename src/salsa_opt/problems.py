"""Desk-scale objectives with analytic gradients and deterministic batching.

Every problem reduces its loss by the batch mean, so gradient magnitudes are
comparable across batch sizes. All randomness flows through counter-based
generators keyed by explicit seeds; nothing reads global RNG state, which
keeps traces bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import EvalResult, ParamVector, seeded_rng, stream_key


@dataclass
class Problem:
    """An objective: per-batch loss/gradient, from which the full-data
    loss is derived.

    ``loss_grad(w, indices, grad=True)`` evaluates the mean loss and its
    gradient over the given dataset indices. With ``grad=False`` it returns
    ``EvalResult(loss, None)`` and skips the gradient; the loss must come
    from the same expression either way, so that a loss probed during a
    line search and the loss recorded at the next step agree bit for bit.
    ``init_params(seed)`` draws a starting point.
    ``val_accuracy`` is present only for classification problems (held-out
    split). Problems are immutable after construction and safe to share.
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
    batch_size: int
    dataset_size: int
    _cache: tuple = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dataset_size < 1:
            raise ValueError("dataset_size must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = min(self.batch_size, self.dataset_size)

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.dataset_size // self.batch_size)

    def _epoch_perm(self, epoch: int) -> np.ndarray:
        # a one-row dataset has one permutation, [0], so every epoch reuses
        # the first one built instead of seeding a new generator per step
        if self._cache is not None and (self._cache[0] == epoch
                                        or self.dataset_size == 1):
            return self._cache[1]
        perm = seeded_rng(self.seed, epoch, 0xBA7C).permutation(self.dataset_size)
        self._cache = (epoch, perm)
        return perm

    def sample(self, k: int) -> np.ndarray:
        epoch, slot = divmod(k, self.batches_per_epoch)
        perm = self._epoch_perm(epoch)
        return perm[slot * self.batch_size:(slot + 1) * self.batch_size]

    def step_key(self, k: int) -> int:
        """Stable integer identifying step k's batch stream (for records)."""
        return stream_key(self.seed, k, 0xBA7C)


class BatchObjective:
    """Loss/gradient pinned to one mini-batch.

    A line-search step must evaluate every trial on the same batch that
    produced its loss and gradient; this object is that batch. It also
    counts evaluations, which the eval-budget invariants check.
    """

    def __init__(self, problem: Problem, indices: np.ndarray, key: int = 0):
        self.problem = problem
        self.indices = indices
        self.key = key
        self.n_evals = 0

    def eval(self, w: ParamVector) -> EvalResult:
        self.n_evals += 1
        return self.problem.loss_grad(w, self.indices)

    def loss(self, w: ParamVector) -> float:
        # loss_grad computes the loss with the same expression whether or
        # not it also computes the gradient, so a loss probed during the
        # search and the loss recorded at the next step agree bit for bit.
        self.n_evals += 1
        return self.problem.loss_grad(w, self.indices, grad=False).loss


def batch_for_step(problem: Problem, sampler: BatchSampler, k: int) -> BatchObjective:
    return BatchObjective(problem, sampler.sample(k), sampler.step_key(k))


# ---------------------------------------------------------------------------
# problem factories


def make_quadratic(dim: int, cond: float = 1.0, seed: int = 0) -> Problem:
    """Deterministic quadratic bowl 0.5 (w-w*)' A (w-w*).

    A is diagonal with eigenvalues log-spaced in [1, cond], the minimizer w*
    is seeded random, and the optimum value is exactly 0. dataset_size is 1:
    every "batch" is the full objective.
    """
    if cond < 1.0:
        raise ValueError(f"cond must be >= 1, got {cond}")
    eigs = np.logspace(0.0, math.log10(cond), dim)
    w_star = seeded_rng(seed, 0x0A).standard_normal(dim)

    def loss_grad(w, indices, grad=True):
        r = np.asarray(w) - w_star
        loss = float(0.5 * (eigs * r * r).sum())
        if not grad:
            return EvalResult(loss, None)
        return EvalResult(loss=loss, grad=eigs * r)

    def init_params(run_seed):
        return w_star + seeded_rng(seed, run_seed, 0x0B).standard_normal(dim)

    return Problem(name=f"quadratic_d{dim}_c{cond:g}", dim=dim, dataset_size=1,
                   loss_grad=loss_grad, init_params=init_params,
                   optimum_hint=0.0,
                   extras={"w_star": w_star, "eigs": eigs})


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_L2_REG = 1e-4


def _logreg_from_data(X: np.ndarray, y: np.ndarray, seed: int,
                      name: str) -> Problem:
    """Regularized logistic regression on given features and +-1 labels.

    80% of the rows (seeded shuffle) form the training objective; held-out
    accuracy on the remaining 20% is the validation metric.
    """
    n = X.shape[0]
    perm = seeded_rng(seed, 0x15).permutation(n)
    n_train = max(1, int(round(0.8 * n)))
    tr, va = perm[:n_train], perm[n_train:]
    Xtr, ytr = X[tr], y[tr]
    Xva, yva = X[va], y[va]
    dim = X.shape[1]

    def loss_grad(w, indices, grad=True):
        Xb, yb = Xtr[indices], ytr[indices]
        margins = yb * (Xb @ w)
        loss = float(np.logaddexp(0.0, -margins).mean() + _L2_REG * (w @ w))
        if not grad:
            return EvalResult(loss, None)
        # d/dw mean log(1+exp(-y x.w)) = mean(-y * sigma(-y x.w) * x)
        coeff = -yb * _sigmoid(-margins) / len(yb)
        g = Xb.T @ coeff + 2.0 * _L2_REG * w
        return EvalResult(loss=loss, grad=g)

    def init_params(run_seed):
        return 0.1 * seeded_rng(seed, run_seed, 0x16).standard_normal(dim)

    val_accuracy = None
    if len(Xva):
        def val_accuracy(w):
            return float(np.mean(np.where(Xva @ w >= 0, 1.0, -1.0) == yva))

    return Problem(name=name, dim=dim, dataset_size=n_train,
                   loss_grad=loss_grad, init_params=init_params,
                   val_accuracy=val_accuracy)


def make_logreg(n: int, dim: int, seed: int = 0,
                label_noise: float = 0.0) -> Problem:
    """Synthetic Gaussian logistic regression with optional label flips."""
    if not 0.0 <= label_noise < 0.5:
        raise ValueError(f"label_noise must be in [0, 0.5), got {label_noise}")
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
    Gradients come from manual backpropagation.
    """
    n, in_dim = X.shape
    perm = seeded_rng(seed, 0x25).permutation(n)
    n_train = max(1, int(round(0.8 * n)))
    tr, va = perm[:n_train], perm[n_train:]
    Xtr, ytr = X[tr], y01[tr]
    Xva, yva = X[va], y01[va]
    n_w1 = in_dim * hidden
    dim = n_w1 + hidden + hidden + 1

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
        # BCE on logits: mean(log(1+e^z) - y z), stable for either sign
        loss = float((np.logaddexp(0.0, z) - yb * z).mean())
        if not grad:
            return EvalResult(loss, None)
        dz = (_sigmoid(z) - yb) / len(yb)
        gw2 = A.T @ dz
        gb2 = float(dz.sum())
        dA = np.outer(dz, w2) * (1.0 - A * A)
        gW1 = Xb.T @ dA
        gb1 = dA.sum(axis=0)
        g = np.concatenate([gW1.ravel(), gb1, gw2, [gb2]])
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
                   val_accuracy=val_accuracy)


def make_mlp(n: int, in_dim: int, hidden: int, seed: int = 0,
             separation: float = 2.0) -> Problem:
    """Two-cluster binary classification for a small tanh network.

    ``separation`` is the distance of each cluster center from the origin in
    units of the noise sigma; 2.0 leaves class overlap, 4.0 is effectively
    separable (a task that keeps descending for a long horizon).
    """
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    rng = seeded_rng(seed, 0x21)
    center = rng.standard_normal(in_dim)
    center *= separation / np.linalg.norm(center)
    y01 = (rng.random(n) < 0.5).astype(np.float64)
    X = rng.standard_normal((n, in_dim)) + np.where(y01[:, None] > 0.5,
                                                    center, -center)
    return _mlp_from_data(X, y01, hidden, seed,
                          name=f"mlp_n{n}_in{in_dim}_h{hidden}")


def make_matrix_factorization(rows: int, cols: int, rank: int, seed: int = 0,
                              noise: float = 0.01) -> Problem:
    """Low-rank matrix recovery: mean over observed entries of
    0.5 * (U V' - M)_ij^2, entries sampled as the dataset.

    M comes from a seeded rank-``rank`` ground truth plus Gaussian noise.
    Parameters are [U.ravel(), V.ravel()].
    """
    if rank > min(rows, cols):
        raise ValueError("rank must be <= min(rows, cols)")
    rng = seeded_rng(seed, 0x31)
    U0 = rng.standard_normal((rows, rank)) / math.sqrt(rank)
    V0 = rng.standard_normal((cols, rank)) / math.sqrt(rank)
    M = U0 @ V0.T + noise * rng.standard_normal((rows, cols))
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

    def init_params(run_seed):
        return 0.1 * seeded_rng(seed, run_seed, 0x32).standard_normal(
            (rows + cols) * rank)

    return Problem(name=f"matfac_{rows}x{cols}_r{rank}", dim=(rows + cols) * rank,
                   dataset_size=rows * cols, loss_grad=loss_grad,
                   init_params=init_params,
                   optimum_hint=0.0 if noise == 0 else None,
                   extras={"ground_truth": np.concatenate([U0.ravel(), V0.ravel()])})


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

    Labels may be {0,1} or {-1,1}; returned unchanged.
    """
    with open(path) as f:
        first = f.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",")]
    except ValueError:
        skip = 1
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("need at least one feature column plus a label column")
    return data[:, :-1], data[:, -1]


def problem_from_csv(path: str, kind: str = "logreg", hidden: int = 8,
                     seed: int = 0) -> Problem:
    """Build a logreg or mlp problem from a user-supplied CSV dataset."""
    X, y = load_csv_dataset(path)
    labels = set(np.unique(y))
    if not labels <= {-1.0, 0.0, 1.0}:
        raise ValueError(f"labels must be binary (0/1 or -1/1), got {sorted(labels)}")
    name = f"csv_{kind}"
    if kind == "logreg":
        y_pm = np.where(y > 0, 1.0, -1.0)
        return _logreg_from_data(X, y_pm, seed, name=name)
    if kind == "mlp":
        y01 = (y > 0).astype(np.float64)
        return _mlp_from_data(X, y01, hidden, seed, name=name)
    raise ValueError(f"kind must be 'logreg' or 'mlp', got {kind!r}")
