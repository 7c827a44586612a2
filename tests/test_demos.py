"""Every demo script runs to completion from a fresh working directory and
prints what it printed when ``demos/expected/<name>.txt`` was recorded.

The recorded numbers come from this numpy build (2.4.6), as the golden
traces do; another build may round differently and move them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def test_each_demo_has_its_expected_output():
    expected = sorted((ROOT / "demos" / "expected").glob("*.txt"))
    assert [p.stem for p in expected] == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    # the demos import salsa_opt from the checkout; TMPDIR keeps the files
    # a demo writes under tempfile inside this test's directory
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
    assert proc.stdout == expected
