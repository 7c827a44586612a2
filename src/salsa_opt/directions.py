"""Update directions: plain negative gradient and the Adam direction.

The Adam moments follow the standard recurrence with bias correction of the
current moments. The search variant of the direction drops momentum (first
moment replaced by the raw gradient) so that a backtracking criterion along
it can always be satisfied; the applied update keeps momentum.

An ``AdamState`` owns its arrays and is advanced in place: each update
writes the moments and the denominator sqrt(v_hat) + eps into the state's
own buffers, with the same ufuncs in the same order as the allocating
formulas, so the values are bit for bit those formulas' values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParamVector


@dataclass(eq=False)
class AdamState:
    """First/second moment vectors, the step counter they correspond to,
    and Adam's denominator for them.

    Mutable: ``adam_update_moments`` advances a state in place. The state
    copies the ``m`` and ``v`` it is built from and never writes the
    caller's arrays. Two states compare equal only when they are the same
    object.
    """

    m: ParamVector
    v: ParamVector
    k: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _denom: ParamVector = field(init=False, repr=False)
    _scratch: ParamVector = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0,1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0,1), got {self.beta2}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        self.m = np.array(self.m, dtype=np.float64)
        self.v = np.array(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape:
            raise ValueError(
                f"moment shapes differ: m {self.m.shape} vs v {self.v.shape}")
        self._denom = np.empty_like(self.v)
        self._scratch = np.empty_like(self.v)
        if self.k >= 1:
            self._refresh_denom()

    @classmethod
    def zeros(cls, dim: int, **hyper) -> "AdamState":
        """Zero moments of length ``dim``; ``hyper`` overrides any of
        ``beta1``, ``beta2`` and ``epsilon``, the rest keep the field
        defaults above."""
        return cls(m=np.zeros(dim), v=np.zeros(dim), k=0, **hyper)

    def _refresh_denom(self) -> None:
        d = self._denom
        np.divide(self.v, 1.0 - self.beta2 ** self.k, out=d)
        np.sqrt(d, out=d)
        np.add(d, self.epsilon, out=d)

    @property
    def denom(self) -> ParamVector:
        """Adam's denominator sqrt(v_hat) + eps for the current moments.

        Filled when the state is built with k >= 1 and refreshed by every
        ``adam_update_moments``; the same buffer is returned each time, so
        it holds the current moments' value only until the next update.
        Requires moments already updated with a gradient (k >= 1).
        """
        if self.k < 1:
            raise ValueError(
                "moments not yet updated; bias correction undefined at k=0")
        return self._denom


def sgd_direction(grad: ParamVector) -> ParamVector:
    """Steepest-descent direction: the negated gradient."""
    return -np.asarray(grad)


def adam_update_moments(state: AdamState, grad: ParamVector) -> AdamState:
    """Fold one gradient into the moments in place; returns ``state``.

    m <- beta1 m + (1 - beta1) g and v <- beta2 v + ((1 - beta2) g) g, then
    the denominator for step k + 1.
    """
    g = np.asarray(grad)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} vs moments {state.m.shape}")
    m, v, t = state.m, state.v, state._scratch
    np.multiply(m, state.beta1, out=m)
    np.multiply(g, 1.0 - state.beta1, out=t)
    np.add(m, t, out=m)
    np.multiply(v, state.beta2, out=v)
    np.multiply(g, 1.0 - state.beta2, out=t)
    np.multiply(t, g, out=t)
    np.add(v, t, out=v)
    state.k += 1
    state._refresh_denom()
    return state


def adam_direction(state: AdamState, grad: ParamVector,
                   use_momentum: bool) -> ParamVector:
    """Preconditioned direction -m_hat / (sqrt(v_hat) + eps), as a new array.

    With ``use_momentum=False`` the first moment is replaced by the raw
    gradient (its bias correction is then trivial); this is the direction
    the line-search criterion is checked along. Requires moments already
    updated with this step's gradient (state.k >= 1).
    """
    denom = state.denom  # checks k >= 1 before m_hat divides by 1 - beta1**k
    if use_momentum:
        d = np.divide(state.m, 1.0 - state.beta1 ** state.k)
        np.negative(d, out=d)
    else:
        d = np.negative(grad)
    return np.divide(d, denom, out=d)


def preconditioned_grad_norm(state: AdamState, grad: ParamVector) -> float:
    """Gradient-norm term matched to Adam's scaling: sum_i g_i^2/(sqrt(v_hat_i)+eps)."""
    denom = state.denom
    g = np.asarray(grad)
    t = state._scratch
    np.multiply(g, g, out=t)
    np.divide(t, denom, out=t)
    return float(t.sum())
