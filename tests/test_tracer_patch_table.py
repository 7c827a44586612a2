"""The step-cost benchmark's tracer patches salsa_opt names from outside.

``perfbench/tracer.py`` swaps each ``(module, attribute)`` in its
``FUNCTION_PATCHES`` for a timing wrapper, looking the name up in the
module that calls it. A refactor that drops one of those bindings breaks
only the benchmark, so this test reads the table and checks it here. The
tracer also reads a few values off what the patched functions return and
the objects they get; those are checked here too.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from salsa_opt import core, harness, line_search, salsa
from salsa_opt.frequency import L_MAX, L_MIN
from salsa_opt.line_search import SlsConfig, SlsState
from salsa_opt.problems import make_quadratic
from salsa_opt.salsa import SalsaConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in TRACER.FUNCTION_PATCHES],
    ids=[f"{module}.{attr}" for module, attr, _ in TRACER.FUNCTION_PATCHES])
def test_every_patched_function_is_bound(module, attr):
    owner = importlib.import_module(f"salsa_opt.{module}")
    assert callable(getattr(owner, attr, None)), f"{module}.{attr} is gone"


def test_every_patched_method_is_bound():
    for attr, _ in TRACER.METHOD_PATCHES:
        assert callable(getattr(core.TrainingTrace, attr, None)), attr


@pytest.mark.parametrize("fn", [line_search.backtrack, salsa.salsa_backtrack],
                         ids=["backtrack", "salsa_backtrack"])
def test_search_config_is_the_last_positional_argument(fn):
    # the tracer reads max_backtracks off args[-1] to count acceptances
    params = list(inspect.signature(fn).parameters.values())
    assert params[-1].name == "cfg"
    assert params[-1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def _counted_bowl():
    """0.5 * w @ w, and the list of points it was evaluated at."""
    points = []

    def objective(w):
        points.append(w)
        return 0.5 * float(w @ w)
    return objective, points


# From w = 1 along d = -1 the step sizes a search accepts lie below 2, so
# a search that starts at 8 must shrink several times first.
W, D, LOSS0, ETA_START = np.array([1.0]), np.array([-1.0]), 0.5, 8.0


def test_backtrack_result_carries_the_shrink_count():
    # the tracer counts an accepted search from ``result.backtracks``; an
    # AttributeError there would escape the benchmark's run_once, which
    # catches only ValueError and ArithmeticError
    objective, points = _counted_bowl()
    result = line_search.backtrack(objective, W, D, ETA_START, LOSS0, 1.0,
                                   SlsConfig())
    assert result.backtracks == len(points) - 1 > 0


def test_salsa_backtrack_second_value_is_the_shrink_count():
    # the tracer reads ``result[1]``
    objective, points = _counted_bowl()
    result = salsa.salsa_backtrack(objective, W, D, ETA_START, LOSS0,
                                   SlsState(eta=1.0), 1.0, SalsaConfig())
    assert result[1] == len(points) - 1 > 0


def test_a_runs_frequency_controller_exposes_its_interval(monkeypatch):
    # the tracer subclasses harness.FrequencyController and reads
    # ``state.L`` each time a run asks it whether to search
    intervals = []

    class Recording(harness.FrequencyController):
        def should_search(self):
            intervals.append(self.state.L)
            return super().should_search()

    monkeypatch.setattr(harness, "FrequencyController", Recording)
    result = harness.run_single(make_quadratic(dim=3, cond=10, seed=1),
                                {"kind": "sgd_salsa"}, seed=0, epochs=30,
                                batch_size=1, frequency_controller=True)
    assert len(intervals) == len(result.trace.records)
    assert all(isinstance(L, int) and L_MIN <= L <= L_MAX
               for L in intervals)
