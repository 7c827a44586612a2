"""Process set-up shared by the benchmark and its set-up probe.

Import this module before anything that loads numpy: it pins the BLAS and
OpenMP pools to one thread, then puts the checkout's ``src`` first on the
import path so that the program measured is the one built from this tree,
never an installed copy.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/salsa_opt`` package to measure."""


def pin_threads() -> None:
    """Pin every native thread pool to one thread (the measured loop is one
    closed-loop client; a 64-thread OpenBLAS pool would only add noise)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``salsa_opt`` from this checkout's ``src`` and return it."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    if not (SRC / "salsa_opt" / "__init__.py").is_file():
        raise MissingProgram(f"no salsa_opt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import salsa_opt
    if Path(salsa_opt.__file__).resolve().parent != SRC / "salsa_opt":
        raise MissingProgram(f"salsa_opt resolved to {salsa_opt.__file__}, "
                             f"not the copy under {SRC}")
    return salsa_opt
