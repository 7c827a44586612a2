"""Helpers shared by the tier-1 tests: tiny deterministic problems wired up
as batch objectives, and the step-cost benchmark's tracer loaded from its
file.

They live here, not in ``conftest.py``: in a session that also collects
``perfbench/tests``, the module name ``conftest`` is that suite's, so
``python -m pytest tests perfbench/tests`` runs both suites in one session.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from salsa_opt.core import EvalResult
from salsa_opt.problems import BatchObjective, Problem


def make_centered_quadratic(dim=1, eigs=None):
    """f(w) = 0.5 w' diag(eigs) w with minimum at the origin."""
    eigs = np.ones(dim) if eigs is None else np.asarray(eigs, dtype=float)

    def loss_grad(w, indices, grad=True):
        w = np.asarray(w)
        loss = float(0.5 * np.sum(eigs * w * w))
        return EvalResult(loss=loss, grad=eigs * w if grad else None)

    return Problem(name="centered_quadratic", dim=dim, dataset_size=1,
                   loss_grad=loss_grad,
                   init_params=lambda seed: np.ones(dim),
                   optimum_hint=0.0)


def make_linear(dim=2, slope=1.0):
    """f(w) = slope * sum(w); constant gradient, no curvature."""

    def loss_grad(w, indices, grad=True):
        w = np.asarray(w)
        return EvalResult(loss=float(slope * np.sum(w)),
                          grad=np.full(dim, slope) if grad else None)

    return Problem(name="linear", dim=dim, dataset_size=1,
                   loss_grad=loss_grad,
                   init_params=lambda seed: np.zeros(dim))


def full_batch(problem):
    """BatchObjective over the whole (single-item) dataset."""
    return BatchObjective(problem, np.arange(problem.dataset_size), key=0)


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
