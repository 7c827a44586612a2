"""Every demo script runs to completion from a fresh working directory and
prints what it printed when ``demos/expected/<name>.txt`` was recorded.

The recorded numbers hold the rounding of the build that
``tests/golden/pins.json`` records, as the golden traces do: another numpy
version, OpenBLAS core or SIMD dispatch may move them (see
``tests/test_golden_traces.py`` for what was measured). After a deliberate
change to a demo's output, rewrite it with ``PYTHONPATH=src python
tests/pins.py``, the one command for every pinned byte.
"""

import pytest

import pins


def test_demos_found():
    assert pins.DEMOS


@pytest.mark.parametrize("demo", pins.DEMOS)
def test_demo_exits_zero(demo):
    pins.check(f"demos/expected/{demo}.txt")
