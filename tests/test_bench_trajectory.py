"""The benchmark's trajectory: ``BENCH_<workload>.json`` at the repo root.

Each file is a JSON list with one entry per ``perfbench/run.py`` run: the
result line the run printed, with the first line it printed (its
``trace_sha256``, machine and run counts) under ``info``, plus the
revision it ran (``rev``), its ``seed``, ``seconds`` and ``trace``
arguments, the ``pair`` of parent/change runs it belongs to
(``"<parent>..<change> #<n>"``) and the revision that ran ``first`` in
that pair. Perf changes append their pairs; nothing rewrites an entry.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_each_file_names_a_benchmark_workload():
    assert FILES
    for path in FILES:
        assert path.stem.removeprefix("BENCH_") in WORKLOADS, path.name


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_every_entry_names_its_run_and_is_correct(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    for n, entry in enumerate(entries):
        where = f"{path.name}[{n}]"
        assert isinstance(entry["rev"], str) and entry["rev"], where
        assert isinstance(entry["seed"], int), where
        # a pair is "<parent>..<change> #<n>": each run, and the one that
        # ran first, is one of its two revisions
        revs = entry["pair"].split(" #")[0].split("..")
        assert entry["rev"] in revs and entry["first"] in revs, where
        assert entry["trace"] in (0, 1), where
        assert entry["seconds"] > 0, where
        assert entry["correct"] is True, where
        assert entry["info"]["workload"] == path.stem.removeprefix(
            "BENCH_"), where
        assert entry["info"]["seed"] == entry["seed"], where
