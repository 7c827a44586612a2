"""Search-frequency controller.

Running a line search every step costs an extra forward pass per update.
When the step size is barely moving that is wasted work, so two EMAs of the
accepted step size (decay 0.9 and 0.99) estimate its rate of change; their
ratio maps to an interval L in [1, 10] and a search runs only every L-th
step. On plateaus the ratio is ~1 and L saturates at 10.

``FrequencyController`` owns one ``FreqState`` and advances it in place:
``record_search`` folds each accepted step size into the EMAs and sets L
with ``compute_interval``, the pure formula from the EMAs to L. L starts
at 1, so every step searches until the first ``record_search``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BETA_FAST = 0.9
BETA_SLOW = 0.99
L_MIN = 1
L_MAX = 10


@dataclass
class FreqState:
    """Step-size EMAs, current interval L, and steps since the last search.

    A separate object rather than fields of the controller because
    perfbench/tracer.py reads the interval as ``controller.state.L``.
    """

    ema_fast: float = 0.0
    ema_slow: float = 0.0
    L: int = 1
    since_search: int = 0
    seeded: bool = False


def compute_interval(state: FreqState) -> int:
    """Interval until the next search: round(1/(rbar-1)) clamped to [1,10].

    rbar is the fast/slow EMA ratio, inverted when below one so growth and
    decay are treated alike. rbar == 1 exactly means no movement, the limit
    of the formula, so L is pinned at the maximum.
    """
    r = state.ema_fast / state.ema_slow
    rbar = r if r >= 1.0 else 1.0 / r
    if rbar == 1.0:
        return L_MAX
    # round half away from zero, per "closest integer" (argument is > 0)
    raw = math.floor(1.0 / (rbar - 1.0) + 0.5)
    return min(L_MAX, max(L_MIN, raw))


class FrequencyController:
    """The search scheduler used by run loops; advances ``state`` in place.

    ``record_search`` after every completed line search (feeds the EMAs and
    recomputes L), ``record_skip`` on steps without one. A scheduled search
    that gets skipped by the tiny-gradient guard or gives up counts as a
    skip; the counter saturates at L-1 so the search is retried on the next
    step.
    """

    def __init__(self):
        self.state = FreqState()

    def should_search(self) -> bool:
        """True when this step must run a search."""
        st = self.state
        return st.since_search + 1 >= st.L

    def record_search(self, eta: float) -> None:
        """Fold a freshly accepted step size into both EMAs (seeding them
        on the first call), recompute L and reset the counter."""
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta}")
        st = self.state
        if not st.seeded:
            st.ema_fast = st.ema_slow = eta
            st.seeded = True
        else:
            st.ema_fast = BETA_FAST * st.ema_fast + (1.0 - BETA_FAST) * eta
            st.ema_slow = BETA_SLOW * st.ema_slow + (1.0 - BETA_SLOW) * eta
        st.L = compute_interval(st)
        st.since_search = 0

    def record_skip(self) -> None:
        st = self.state
        st.since_search = min(st.since_search + 1, st.L - 1)
