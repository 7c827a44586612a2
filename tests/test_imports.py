"""The package runs on numpy alone: importing it, its CLI, and ranking a
comparison table load no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CODE = """
import sys
import salsa_opt, salsa_opt.cli
from salsa_opt import compare

losses = {(p, o): loss for p, row in
          (("p0", (1.0, 1.0, 2.0)), ("p1", (3.0, 0.5, 0.5)))
          for o, loss in zip(("a", "b", "c"), row)}
ranks = compare(losses).average_rank
assert ranks == {"a": 2.25, "b": 1.5, "c": 2.25}, ranks
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_compare_load_no_scipy():
    # a fresh interpreter: this test process may have loaded scipy already
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CODE],
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n"
