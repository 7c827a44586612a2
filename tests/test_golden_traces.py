"""Golden optimizer runs: every kind, pinned to sha256 digests and CSVs.

Each case in ``pins.GOLDEN_CASES`` runs ``run_single`` end to end once.
Its digest hashes what the run exposes: the CSV trace, the smoothed h/s
series, the final parameters and the number of ``loss_grad`` calls. Its
CSV trace is checked in as ``tests/golden/<case>.csv``, so that a moved
digest comes with the first trace line that moved. A refactor of the
search code must leave all of it bit-identical.

The pinned floats hold the rounding of one build: numpy 2.4.6 with its
wheel's OpenBLAS 0.3.31 choosing its ``SkylakeX`` kernels, and numpy's
AVX-512 dispatch. ``tests/golden/pins.json`` records that build, and a
failure names it beside the build the test ran on. Measured with
per-process settings on one x86-64 machine: the goldens of every problem
move under ``OPENBLAS_CORETYPE=Haswell`` (35 of 37 cases) or ``Prescott``
(all 37), because BLAS dot products and matvecs round differently. Under
numpy's baseline dispatch (``NPY_DISABLE_CPU_FEATURES``) the 25 MLP cases
move, as numpy's ``exp``, ``log`` and ``tanh`` loops do; the quadratic and
matrix-factorization cases do not. ARM, macOS Accelerate and other
OpenBLAS versions are unverified.

After a deliberate change to the traces, rewrite every pinned byte with
the one command ``PYTHONPATH=src python tests/pins.py``; it prints each
pin as ``same`` or ``moved``, and a moved CSV's first moved line.
"""

import pytest

import pins


@pytest.mark.parametrize("case_id", pins.GOLDEN_IDS)
def test_golden_run_digest(case_id):
    pins.check(f"golden/{case_id}")


@pytest.mark.parametrize("case_id", pins.GOLDEN_IDS)
def test_golden_run_csv(case_id):
    pins.check(f"tests/golden/{case_id}.csv")
