"""The one shared fixture; the shared helpers are in ``helpers.py``."""

import pytest

from helpers import make_centered_quadratic


@pytest.fixture
def quadratic_1d():
    return make_centered_quadratic(dim=1)
