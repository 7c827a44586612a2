"""Update directions: plain negative gradient and the Adam direction.

The Adam moments follow the standard recurrence with bias correction of the
current moments. The search variant of the direction drops momentum (first
moment replaced by the raw gradient) so that a backtracking criterion along
it can always be satisfied; the applied update keeps momentum.

An ``AdamState`` holds its moments as two plain arrays, which each update
replaces, and fills m_hat and -(sqrt(v_hat) + eps) into two arrays of its
own, so each direction is one division. IEEE negation commutes with
division and summation, and a 0-d float64 constant, which numpy takes
faster than a Python float, is not weak under NEP 50: with the float64
gradients ``core`` requires, every value keeps the allocating formulas'
bits (a NaN alone may flip its sign bit, which no trace shows).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, ParamVector, check_fields


@dataclass(eq=False)
class AdamState:
    """First/second moment vectors, the step counter they correspond to,
    and what Adam's directions read from them.

    ``m`` and ``v`` are plain float64 arrays. The state copies the ones it
    is built from, and each ``adam_update_moments`` replaces both with new
    arrays, so an array read from or assigned to ``m`` or ``v`` is never
    written afterwards. The build checks every field (``core.check_fields``)
    and forms from them, once, the constants the updates pass to numpy
    (as ``SlsConfig.regrowth`` is formed): change a hyper-parameter with
    ``dataclasses.replace``, not by assignment. Each update (and a build
    with k >= 1) forms m_hat and the negated denominator, so a moment
    assigned after an update reaches the directions from the next update
    on. Mutable: ``adam_update_moments`` advances a state in place, so each
    run keeps its own state (or a ``copy.deepcopy`` of one). Two states
    compare equal only when they are the same object.
    """

    m: ParamVector
    v: ParamVector
    k: int = field(default=0, metadata={"range": ">= 0"})
    beta1: float = field(default=0.9, metadata={"range": "[0,1)"})
    beta2: float = field(default=0.999, metadata={"range": "[0,1)"})
    epsilon: float = field(default=1e-8, metadata={"range": "> 0"})
    _scratch: ParamVector = field(init=False, repr=False)
    _m_hat: ParamVector = field(init=False, repr=False)
    _neg_denom: ParamVector = field(init=False, repr=False)
    _consts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        self.m = m = np.array(self.m, dtype=np.float64)
        self.v = v = np.array(self.v, dtype=np.float64)
        if m.shape != v.shape:
            raise ConfigError(
                f"moment shapes differ: m {m.shape} vs v {v.shape}")
        self._scratch, self._m_hat, self._neg_denom = (
            np.empty_like(m), np.empty_like(m), np.empty_like(v))
        b1, b2 = self.beta1, self.beta2
        self._consts = tuple(np.array(x, dtype=np.float64) for x in (
            b1, 1.0 - b1, b2, 1.0 - b2, -self.epsilon, 1.0, 1.0))
        if self.k >= 1:
            _correct(self)

    @classmethod
    def zeros(cls, dim: int, **hyper) -> "AdamState":
        """Zero moments of length ``dim``; ``hyper`` overrides any of
        ``beta1``, ``beta2`` and ``epsilon``."""
        return cls(m=np.zeros(dim), v=np.zeros(dim), k=0, **hyper)

    @property
    def denom(self) -> ParamVector:
        """Adam's denominator sqrt(v_hat) + eps for the last update's
        moments, as a new array on each read; requires k >= 1."""
        return np.negative(_negated_denom(self))


def _correct(state: AdamState) -> None:
    """Form m_hat and -eps - sqrt(v_hat), -(sqrt(v_hat) + eps) bit for bit."""
    _, _, _, _, neg_eps, bc1, bc2 = state._consts
    bc1[()] = 1.0 - state.beta1 ** state.k
    bc2[()] = 1.0 - state.beta2 ** state.k
    np.divide(state.m, bc1, state._m_hat)
    d = np.divide(state.v, bc2, state._neg_denom)
    np.sqrt(d, d)
    np.subtract(neg_eps, d, d)


def _negated_denom(state: AdamState) -> ParamVector:
    if state.k < 1:
        raise ValueError("moments not yet updated: no bias correction at k=0")
    return state._neg_denom


def sgd_direction(grad: ParamVector) -> ParamVector:
    """Steepest-descent direction: the negated gradient."""
    return -np.asarray(grad)


def adam_update_moments(state: AdamState, grad: ParamVector) -> AdamState:
    """Fold one gradient into the moments; returns ``state``.

    m <- beta1 m + (1 - beta1) g and v <- beta2 v + ((1 - beta2) g) g, each
    a new array, then m_hat and the negated denominator for step k + 1.
    """
    g, t = np.asarray(grad), state._scratch
    if g.shape != t.shape:
        raise ValueError(f"gradient shape {g.shape} vs moments {t.shape}")
    b1, one_b1, b2, one_b2, _, _, _ = state._consts
    m = np.multiply(state.m, b1)
    state.m = np.add(m, np.multiply(g, one_b1, t), m)
    np.multiply(g, one_b2, t)
    v = np.multiply(state.v, b2)
    state.v = np.add(v, np.multiply(t, g, t), v)
    state.k += 1
    _correct(state)
    return state


def adam_direction(state: AdamState, grad: ParamVector,
                   use_momentum: bool) -> ParamVector:
    """Preconditioned direction -m_hat / (sqrt(v_hat) + eps), as a new array.

    With ``use_momentum=False`` the first moment is replaced by the raw
    gradient (its bias correction is then trivial); this is the direction
    the line-search criterion is checked along. Either is x / -D, which is
    -x / D bit for bit. Requires moments already updated with this step's
    gradient (state.k >= 1).
    """
    neg_denom = _negated_denom(state)
    return np.divide(state._m_hat if use_momentum else grad, neg_denom)


def preconditioned_grad_norm(state: AdamState, grad: ParamVector) -> float:
    """Gradient-norm term matched to Adam's scaling: sum_i g_i^2/(sqrt(v_hat_i)+eps).

    ``0.0 -`` negates the sum over -D back, +0.0 for an all-zero gradient."""
    neg_denom, t = _negated_denom(state), state._scratch
    np.multiply(grad, grad, t)
    np.divide(t, neg_denom, t)
    return 0.0 - float(np.add.reduce(t))
