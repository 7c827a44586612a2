"""Importing the package stays cheap: scipy.stats loads only when
``harness.compare`` ranks a table."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter: this test process may have loaded scipy already
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, salsa_opt, salsa_opt.cli; "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"
