"""Shared fixtures: tiny deterministic problems wired up as batch objectives."""

import numpy as np
import pytest

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
                   full_loss=lambda w: loss_grad(w, None).loss,
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
                   full_loss=lambda w: loss_grad(w, None).loss,
                   init_params=lambda seed: np.zeros(dim))


def full_batch(problem):
    """BatchObjective over the whole (single-item) dataset."""
    return BatchObjective(problem, np.arange(problem.dataset_size), key=0)


@pytest.fixture
def quadratic_1d():
    return make_centered_quadratic(dim=1)
