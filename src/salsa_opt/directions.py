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


def _v_hat(state: AdamState) -> ParamVector:
    return state.v / (1.0 - state.beta2 ** state.k)


def adam_direction(state: AdamState, grad: ParamVector,
                   use_momentum: bool) -> ParamVector:
    """Preconditioned direction -m_hat / (sqrt(v_hat) + eps).

    With ``use_momentum=False`` the first moment is replaced by the raw
    gradient (its bias correction is then trivial); this is the direction
    the line-search criterion is checked along. Requires moments already
    updated with this step's gradient (state.k >= 1).
    """
    if state.k < 1:
        raise ValueError("moments not yet updated; bias correction undefined at k=0")
    if use_momentum:
        m_hat = state.m / (1.0 - state.beta1 ** state.k)
    else:
        m_hat = np.asarray(grad)
    return -m_hat / (np.sqrt(_v_hat(state)) + state.epsilon)


def preconditioned_grad_norm(state: AdamState, grad: ParamVector) -> float:
    """Gradient-norm term matched to Adam's scaling: sum_i g_i^2/(sqrt(v_hat_i)+eps)."""
    if state.k < 1:
        raise ValueError("moments not yet updated; bias correction undefined at k=0")
    g = np.asarray(grad)
    return float(np.sum(g * g / (np.sqrt(_v_hat(state)) + state.epsilon)))
