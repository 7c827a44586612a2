"""Update directions: plain negative gradient and the Adam direction.

The Adam moments follow the standard recurrence with bias correction of the
current moments. The search variant of the direction drops momentum (first
moment replaced by the raw gradient) so that a backtracking criterion along
it can always be satisfied; the applied update keeps momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParamVector


class _lock_free_cached_property:
    """``functools.cached_property`` without its lock: before Python 3.12
    the lock is taken on every first read and costs about 1 µs, as much as
    computing a 50-element denominator, which a step that reads it only
    once would pay for nothing. The value stored in the instance dict
    shadows this non-data descriptor from then on."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass
class AdamState:
    """First/second moment vectors and the step counter they correspond to."""

    m: ParamVector
    v: ParamVector
    k: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0,1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0,1), got {self.beta2}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")

    @classmethod
    def zeros(cls, dim: int, **hyper) -> "AdamState":
        """Zero moments of length ``dim``; ``hyper`` overrides any of
        ``beta1``, ``beta2`` and ``epsilon``, the rest keep the field
        defaults above."""
        return cls(m=np.zeros(dim), v=np.zeros(dim), k=0, **hyper)

    @_lock_free_cached_property
    def denom(self) -> ParamVector:
        """Adam's denominator sqrt(v_hat) + eps, computed once per state.

        Caching is sound only because a state's moments are never changed
        in place: ``adam_update_moments`` returns a new state, which
        computes its own. Requires moments already updated with a gradient
        (k >= 1); a failed check caches nothing.
        """
        if self.k < 1:
            raise ValueError(
                "moments not yet updated; bias correction undefined at k=0")
        return np.sqrt(self.v / (1.0 - self.beta2 ** self.k)) + self.epsilon


def sgd_direction(grad: ParamVector) -> ParamVector:
    """Steepest-descent direction: the negated gradient."""
    return -np.asarray(grad)


def adam_update_moments(state: AdamState, grad: ParamVector) -> AdamState:
    """Fold one gradient into the moments; returns the advanced state."""
    g = np.asarray(grad)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} vs moments {state.m.shape}")
    return AdamState(
        m=state.beta1 * state.m + (1.0 - state.beta1) * g,
        v=state.beta2 * state.v + (1.0 - state.beta2) * g * g,
        k=state.k + 1,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
    )


def adam_direction(state: AdamState, grad: ParamVector,
                   use_momentum: bool) -> ParamVector:
    """Preconditioned direction -m_hat / (sqrt(v_hat) + eps).

    With ``use_momentum=False`` the first moment is replaced by the raw
    gradient (its bias correction is then trivial); this is the direction
    the line-search criterion is checked along. Requires moments already
    updated with this step's gradient (state.k >= 1).
    """
    denom = state.denom  # checks k >= 1 before m_hat divides by 1 - beta1**k
    if use_momentum:
        m_hat = state.m / (1.0 - state.beta1 ** state.k)
    else:
        m_hat = np.asarray(grad)
    return -m_hat / denom


def preconditioned_grad_norm(state: AdamState, grad: ParamVector) -> float:
    """Gradient-norm term matched to Adam's scaling: sum_i g_i^2/(sqrt(v_hat_i)+eps)."""
    g = np.asarray(grad)
    return float(np.sum(g * g / state.denom))
