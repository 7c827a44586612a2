"""The step-cost benchmark's tracer patches salsa_opt names from outside.

``perfbench/tracer.py`` swaps each ``(module, attribute)`` in its
``FUNCTION_PATCHES`` for a timing wrapper, looking the name up in the
module that calls it. A refactor that drops one of those bindings breaks
only the benchmark, so this test reads the table and checks it here.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from salsa_opt import core, line_search, salsa

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
