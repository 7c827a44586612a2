"""Update directions: plain negative gradient and the Adam direction.

The Adam moments follow the standard recurrence with bias correction of the
current moments. The search variant of the direction drops momentum (first
moment replaced by the raw gradient) so that a backtracking criterion along
it can always be satisfied; the applied update keeps momentum.

An ``AdamState`` owns its arrays and is advanced in place: each update
writes the moments, m_hat and the negated denominator -(sqrt(v_hat) + eps)
into the state's own buffers, so each direction is one division. IEEE
negation commutes with division and summation, so every value keeps the
allocating formulas' bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, ParamVector, check_fields


class _MomentRow:
    """``AdamState.m`` or ``.v``: a row of the state's stacked moment buffer.

    Read as a fresh view on every access, so that no copy of a state
    (``copy.deepcopy``, pickling) holds a row apart from the buffer its
    updates write; assigning writes into the row. The generated
    ``__init__`` assigns the caller's array before ``__post_init__``
    stacks the moments, so until then the value is kept as given.
    """

    def __init__(self, row: int):
        self.row = row

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, state, owner=None):
        if state is None:
            # no class-level value, so the dataclass field has no default
            raise AttributeError(self.name)
        return state._mv[self.row]

    def __set__(self, state, value):
        if "_mv" in vars(state):
            state._mv[self.row] = value
        else:
            vars(state)[self.name] = value


@dataclass(eq=False)
class AdamState:
    """First/second moment vectors, the step counter they correspond to,
    and what Adam's directions read from them.

    ``m`` and ``v`` are the two rows of one ``(2, dim)`` buffer, so that
    ``adam_update_moments`` advances both recurrences with one ufunc call
    per operation; each attribute reads its row of that buffer. The state
    copies the ``m`` and ``v`` it is built from and never writes the
    caller's arrays. Every field is checked when the state is built
    (``core.check_fields``), and the update's per-row factors are formed
    from ``beta1`` and ``beta2`` then, so they stay fixed for the state's
    life. Each update (and a build with k >= 1) forms m_hat and the
    denominator, so a moment assigned after an update reaches the
    directions from the next update on. Mutable: ``adam_update_moments``
    advances a state in place. Two states compare equal only when they are
    the same object.
    """

    m: ParamVector = _MomentRow(0)
    v: ParamVector = _MomentRow(1)
    k: int = field(default=0, metadata={"range": ">= 0"})
    beta1: float = field(default=0.9, metadata={"range": "[0,1)"})
    beta2: float = field(default=0.999, metadata={"range": "[0,1)"})
    epsilon: float = field(default=1e-8, metadata={"range": "> 0"})
    _mv: np.ndarray = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)
    _decay: np.ndarray = field(init=False, repr=False)
    _gain: np.ndarray = field(init=False, repr=False)
    _corr: np.ndarray = field(init=False, repr=False)
    _hat: np.ndarray = field(init=False, repr=False)
    _denom: ParamVector = field(init=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        given = vars(self)
        m = np.asarray(given.pop("m"), dtype=np.float64)
        v = np.asarray(given.pop("v"), dtype=np.float64)
        if m.shape != v.shape:
            raise ConfigError(
                f"moment shapes differ: m {m.shape} vs v {v.shape}")
        self._mv = np.array((m, v))
        self._scratch = np.empty_like(self._mv)
        # the factors of each row's recurrence, filled out to the buffer's
        # shape: a ufunc over equal shapes skips the cost of broadcasting
        betas, ones = np.array((self.beta1, self.beta2)), np.ones_like(m)
        self._decay = np.multiply.outer(betas, ones)
        self._gain = np.multiply.outer(1.0 - betas, ones)
        self._corr = np.empty((2,) + (1,) * m.ndim)
        self._hat = np.empty_like(self._mv)
        self._denom = np.empty_like(v)
        if self.k >= 1:
            _correct(self)

    @classmethod
    def zeros(cls, dim: int, **hyper) -> "AdamState":
        """Zero moments of length ``dim``; ``hyper`` overrides any of
        ``beta1``, ``beta2`` and ``epsilon``, the rest keep the field
        defaults above."""
        return cls(m=np.zeros(dim), v=np.zeros(dim), k=0, **hyper)

    @property
    def denom(self) -> ParamVector:
        """Adam's denominator sqrt(v_hat) + eps for the last update's
        moments, filled on each read into the same buffer. Requires moments
        already updated with a gradient (k >= 1)."""
        return np.negative(_negated_denom(self), self._denom)


def _correct(state: AdamState) -> None:
    """Form m_hat and -eps - sqrt(v_hat), -(sqrt(v_hat) + eps) bit for bit."""
    corr = state._corr.ravel()  # a view, so the writes fill _corr
    corr[0] = 1.0 - state.beta1 ** state.k
    corr[1] = 1.0 - state.beta2 ** state.k
    d = np.divide(state._mv, state._corr, state._hat)[1]
    np.sqrt(d, d)
    np.subtract(-state.epsilon, d, d)


def _negated_denom(state: AdamState) -> ParamVector:
    if state.k < 1:
        raise ValueError("moments not yet updated: no bias correction at k=0")
    return state._hat[1]


def sgd_direction(grad: ParamVector) -> ParamVector:
    """Steepest-descent direction: the negated gradient."""
    return -np.asarray(grad)


def adam_update_moments(state: AdamState, grad: ParamVector) -> AdamState:
    """Fold one gradient into the moments in place; returns ``state``.

    m <- beta1 m + (1 - beta1) g and v <- beta2 v + ((1 - beta2) g) g, then
    m_hat and the negated denominator for step k + 1. Both rows of the
    moment buffer advance together, each element by the same operations in
    the same order as the two recurrences written out.
    """
    g = np.asarray(grad)
    mv, t = state._mv, state._scratch
    if g.shape != mv.shape[1:]:
        raise ValueError(f"gradient shape {g.shape} vs moments {mv.shape[1:]}")
    np.multiply(mv, state._decay, mv)
    np.multiply(g, state._gain, t)
    t_v = t[1]
    np.multiply(t_v, g, t_v)
    np.add(mv, t, mv)
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
    return np.divide(state._hat[0] if use_momentum else grad,
                     _negated_denom(state))


def preconditioned_grad_norm(state: AdamState, grad: ParamVector) -> float:
    """Gradient-norm term matched to Adam's scaling: sum_i g_i^2/(sqrt(v_hat_i)+eps).

    ``0.0 -`` negates the sum over -D back, +0.0 for an all-zero gradient."""
    t = state._scratch[0]
    np.multiply(grad, grad, t)
    np.divide(t, _negated_denom(state), t)
    return 0.0 - float(np.add.reduce(t))
