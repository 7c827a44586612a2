"""Every pinned byte of the repo: what makes it, where it is stored, and
the one check and the one command that read and rewrite it.

A pin is a value that a refactor must leave bit-identical. There are two
sorts, told apart by their names:

- a *file pin*, named by its path from the repo root, is stored as that
  file: each golden case's CSV trace (``tests/golden/<case>.csv``) and each
  demo's output (``demos/expected/<demo>.txt``);
- a *digest pin* is stored as a sha256 in ``tests/golden/pins.json``: each
  golden case's run (``golden/<case>``), the JSON of ``run_experiment``
  for each kind (``run-json/<kind>-epochs<n>``) and the JSON of a study
  command (``study-json/<command>-<kind>``).

Each pin has one producer, which the tests and the command share; a
golden case's digest and CSV come from one run. ``check(name)`` is the
only comparison. ``pins.json`` also records the build its values were
written on, because the pinned floats hold the rounding of one numpy and
OpenBLAS build; a failure names that build and the one it ran on.

After a deliberate change to pinned bytes, rewrite them in place with

    PYTHONPATH=src python tests/pins.py

It prints ``<pin> same`` or ``<pin> moved`` for each pin, and under a
moved pin its first moved line, or its stored and new digest. ``git diff``
shows what it rewrote, and ``git checkout -- tests/golden demos/expected``
undoes it.
"""

import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

from salsa_opt.cli import main as cli_main
from salsa_opt.harness import run_experiment, run_single
from salsa_opt.problems import (make_matrix_factorization, make_mlp,
                                make_quadratic)

ROOT = Path(__file__).resolve().parents[1]
STORE = "tests/golden/pins.json"
# the folders that hold the file pins, and the digest store
FILE_DIRS = ("tests/golden/", "demos/expected/")

# --- golden cases: every kind, run end to end by ``run_single`` ---

PROBLEMS = {
    # rank 3 is the first rank whose einsum sum is not in index order
    "matfac": lambda: make_matrix_factorization(rows=8, cols=6, rank=3,
                                                seed=3),
    "mlp": lambda: make_mlp(n=96, in_dim=4, hidden=6, seed=1),
    "quadratic": lambda: make_quadratic(dim=4, cond=10.0, seed=0),
}

# Blown-up first step on the quadratic: the search cannot reach a
# sufficient decrease within a budget of 2 shrinks.
_HUGE = {"eta_init": 1e6, "eta_max": 1e6, "max_backtracks": 2}
# Steps above 0.2 overshoot the quadratic and the third candidate lands
# below eta_min, so each give-up takes eta_min, above its last candidate.
_CLAMP = {"eta_init": 10.0, "eta_min": 3.0, "delta": 0.25, "max_backtracks": 2}
# Every gradient norm sits under the guard: no step searches.
_GUARD = {"grad_eps": 1e3, "eta_init": 8.0}

# (id, problem, optimizer, frequency controller, epochs, batch size)
GOLDEN_CASES = [
    (f"{kind}-fc{int(fc)}", "mlp", {"kind": kind, **extra}, fc, 3, 8)
    for kind, extra in (("sgd", {"lr": 0.5}),
                        ("adam", {"peak_lr": 0.05,
                                  "schedule": "cosine_warmup"}),
                        ("sgd_sls", {}), ("adam_sls", {}),
                        ("sgd_salsa", {}), ("adam_salsa", {}))
    for fc in (False, True)
] + [
    ("sgd-cosine", "mlp",
     {"kind": "sgd", "peak_lr": 0.5, "schedule": "cosine_warmup"}, False, 3, 8),
] + [
    # sgd_salsa-nondecrease's run lands where sgd_salsa-fc0's does, at the
    # same cost: the non-decrease test holds at each accepted point
    (f"{kind}-nondecrease", "mlp",
     {"kind": kind, "enforce_nondecrease": True}, False, 3, 8)
    for kind in ("sgd_salsa", "adam_salsa")
] + [
    (f"{kind}-eta8-fc{int(fc)}", "mlp", {"kind": kind, "eta_init": 8.0}, fc, 3, 8)
    for kind in ("sgd_sls", "sgd_salsa")
    for fc in (False, True)
] + [
    (f"{kind}-giveup", "quadratic", {"kind": kind, **_HUGE}, False, 12, 1)
    for kind in ("sgd_sls", "adam_sls", "sgd_salsa", "adam_salsa")
] + [
    (f"{kind}-clamp", "quadratic", {"kind": kind, **_CLAMP}, False, 12, 1)
    for kind in ("sgd_sls", "adam_sls", "sgd_salsa", "adam_salsa")
] + [
    (f"{kind}-guard", "mlp", {"kind": kind, **_GUARD}, False, 1, 8)
    for kind in ("sgd_sls", "adam_sls", "sgd_salsa", "adam_salsa")
] + [
    ("sgd_salsa-giveup-nondecrease", "quadratic",
     {"kind": "sgd_salsa", "enforce_nondecrease": True, **_HUGE}, False, 12, 1),
    ("adam_salsa-giveup-nondecrease", "quadratic",
     {"kind": "adam_salsa", "enforce_nondecrease": True, **_HUGE}, False, 12, 1),
    ("sgd_salsa-guard-nondecrease", "mlp",
     {"kind": "sgd_salsa", "enforce_nondecrease": True, **_GUARD}, False, 1, 8),
    ("adam_salsa-guard-nondecrease", "mlp",
     {"kind": "adam_salsa", "enforce_nondecrease": True, **_GUARD}, False, 1, 8),
] + [
    (f"{kind}-matfac", "matfac", {"kind": kind}, False, 2, 8)
    for kind in ("adam_sls", "sgd_salsa")
]
GOLDEN_IDS = [case[0] for case in GOLDEN_CASES]


@functools.cache
def _golden_run(case_id):
    """One run of a golden case: its CSV trace, and the bytes whose sha256
    is its digest, over the trace CSV, the h/s series, the final parameters
    and the number of ``loss_grad`` calls."""
    _, problem_key, optimizer, fc, epochs, batch_size = \
        GOLDEN_CASES[GOLDEN_IDS.index(case_id)]
    problem = PROBLEMS[problem_key]()
    calls = [0]
    inner = problem.loss_grad

    def counting_loss_grad(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    problem = dataclasses.replace(problem, loss_grad=counting_loss_grad)
    result = run_single(problem, optimizer, 3, epochs, batch_size,
                        frequency_controller=fc)
    csv = result.trace.to_csv().encode()
    # the h/s series as runs reported them before the records held them:
    # one value per record for a SaLSa kind, none for the others
    records = result.trace.records
    smoothed = optimizer["kind"].endswith("salsa")
    hashed = b"".join([
        csv,
        repr([r.h for r in records] if smoothed else []).encode(),
        repr([r.s for r in records] if smoothed else []).encode(),
        result.final_params.tobytes(),
        str(calls[0]).encode(),
    ])
    return {f"golden/{case_id}": hashed,
            f"tests/golden/{case_id}.csv": csv}


# --- run_experiment's JSON: one config per kind, ints given for floats,
# every schedule and Adam key, lr and peak_lr, keys out of their fields'
# order; each pins its runs' JSON, traces and metadata together ---

RUN_JSON = {
    "sgd": ({"lr": 1, "kind": "sgd", "schedule": "cosine_warmup",
             "warm_frac": 0.75}, False),
    "adam": ({"kind": "adam", "beta1": 0, "peak_lr": 1, "warm_frac": 0,
              "schedule": "flat", "beta2": 0.5, "epsilon": 1}, True),
    "sgd_sls": ({"kind": "sgd_sls", "c": 0.5, "delta": 0.5, "b": 2,
                 "grad_eps": 0, "max_backtracks": 5, "eta_init": 2,
                 "eta_min": 1e-6, "eta_max": 4}, False),
    "adam_sls": ({"eta_max": 5, "kind": "adam_sls", "beta2": 0.9,
                  "epsilon": 1e-6, "beta1": 0.5}, False),
    "sgd_salsa": ({"kind": "sgd_salsa", "beta3": 0.5, "c": 0.25,
                   "enforce_nondecrease": True, "eta_init": 1}, True),
    "adam_salsa": ({"kind": "adam_salsa"}, True),
}
RUN_JSON_EPOCHS = (0, 2)


@functools.cache
def _run_json(kind, epochs):
    optimizer, controller = RUN_JSON[kind]
    results = run_experiment(
        problem={"seed": 2, "kind": "logreg", "n": 16, "dim": 3,
                 "label_noise": 0},
        optimizer=optimizer, seeds=[0, 1], epochs=epochs, batch_size=4,
        frequency_controller=controller)
    text = "".join(result.trace.to_json() for result in results)
    return {f"run-json/{kind}-epochs{epochs}": text.encode()}


# --- the JSON each study command writes for a small config ---

STUDY_PROBLEM = {"kind": "logreg", "n": 64, "dim": 3, "seed": 0,
                 "label_noise": 0.1}
STUDIES = {
    "scaling-sgd_sls": ("scaling", {
        "optimizer": {"kind": "sgd_sls"}, "batch_sizes": [4, 8],
        "seeds": [0, 1], "epochs": 1}),
    "scaling-adam_salsa": ("scaling", {
        "optimizer": {"kind": "adam_salsa"}, "batch_sizes": [4, 8],
        "seeds": [0, 1], "epochs": 2}),
    "freq-ablation-sgd_salsa": ("freq-ablation", {
        "optimizer": {"kind": "sgd_salsa"}, "seeds": [0, 1], "epochs": 2,
        "batch_size": 8}),
    "freq-ablation-adam_sls": ("freq-ablation", {
        "optimizer": {"kind": "adam_sls"}, "seeds": [0, 1], "epochs": 1,
        "batch_size": 4}),
}


@functools.cache
def _study_json(study):
    command, config = STUDIES[study]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out.json"
        cfg.write_text(json.dumps({"problem": STUDY_PROBLEM, **config}))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            status = cli_main([command, "--config", str(cfg), "--out",
                               str(out), "--format", "json"])
        if status != 0:
            raise RuntimeError(f"salsa-opt {command} exited {status}")
        return {f"study-json/{study}": out.read_bytes()}


# --- what each demo prints, run from a fresh working directory ---

DEMOS = [path.stem for path in sorted((ROOT / "demos").glob("*.py"))]


@functools.cache
def _demo_output(stem):
    with tempfile.TemporaryDirectory() as tmp:
        # the demos import salsa_opt from the checkout; TMPDIR keeps the
        # files a demo writes under tempfile inside the working directory
        pythonpath = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": tmp}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / f"{stem}.py")], cwd=tmp,
            env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"demos/{stem}.py exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return {f"demos/expected/{stem}.txt": proc.stdout.encode()}


def _producers():
    """Each pin's name and its producer, in the order the command runs
    them. A producer returns {pin name: bytes} for every pin it makes; a
    digest pin's value is the sha256 of its bytes."""
    producers = {}
    for case in GOLDEN_IDS:
        producers[f"golden/{case}"] = producers[f"tests/golden/{case}.csv"] = \
            functools.partial(_golden_run, case)
    for epochs in RUN_JSON_EPOCHS:
        for kind in RUN_JSON:
            producers[f"run-json/{kind}-epochs{epochs}"] = \
                functools.partial(_run_json, kind, epochs)
    for study in STUDIES:
        producers[f"study-json/{study}"] = \
            functools.partial(_study_json, study)
    for stem in DEMOS:
        producers[f"demos/expected/{stem}.txt"] = \
            functools.partial(_demo_output, stem)
    return producers


PRODUCERS = _producers()
PINS = list(PRODUCERS)


def is_file_pin(name):
    return name.startswith(FILE_DIRS)


def produce(name):
    """The bytes pin ``name``'s producer makes."""
    return PRODUCERS[name]()[name]


def _fresh(name):
    """Pin ``name``'s value as it would be stored: a file's bytes, or the
    sha256 hex digest of its bytes."""
    made = produce(name)
    return made if is_file_pin(name) else hashlib.sha256(made).hexdigest()


def read_store(root=ROOT):
    return json.loads((root / STORE).read_text())


def write_store(store, root=ROOT):
    (root / STORE).write_text(json.dumps(store, indent=2) + "\n")


def _stored(name, root):
    """Pin ``name``'s stored value, or None if it has none."""
    if is_file_pin(name):
        path = root / name
        return path.read_bytes() if path.exists() else None
    return read_store(root)["digests"].get(name)


def current_build():
    """The numpy version, OpenBLAS core and enabled SIMD targets that this
    process computes with: what the pinned floats depend on."""
    features = _multiarray_umath.__cpu_features__
    targets = (_multiarray_umath.__cpu_baseline__
               + _multiarray_umath.__cpu_dispatch__)
    return {"numpy": np.__version__, "openblas": _openblas_core(),
            "simd": " ".join(t for t in targets if features.get(t))}


def _openblas_core():
    """The core OpenBLAS chose for this process, from the library that
    numpy's wheel bundles; ``unknown`` for a numpy built otherwise."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def describe(build):
    return (f"numpy {build['numpy']}, OpenBLAS {build['openblas']}, "
            f"SIMD {build['simd']}")


def _difference(name, stored, fresh):
    """None if ``fresh`` equals ``stored``; else what moved: a file's first
    moved line, or the stored and the new digest."""
    if stored == fresh:
        return None
    if stored is None:
        return "no stored value"
    if not is_file_pin(name):
        return f"stored: {stored}\nrun:    {fresh}"
    end = ["<end of file>"]
    lines = zip(fresh.decode().splitlines(True) + end,
                stored.decode().splitlines(True) + end)
    for n, (got, want) in enumerate(lines, 1):
        if got != want:
            return (f"line {n} moved\n"
                    f"stored: {want.rstrip()}\nrun:    {got.rstrip()}")


def _indent(text):
    return "".join(f"  {line}\n" for line in text.splitlines())


def check(name, root=ROOT):
    """Raise AssertionError if pin ``name`` moved, naming the build its
    stored value was written on, the build it ran on and what moved."""
    __tracebackhide__ = True  # pytest reports the failure at the caller
    moved = _difference(name, _stored(name, root), _fresh(name))
    if moved is not None:
        raise AssertionError(
            f"{name} moved\n"
            f"  stored on: {describe(read_store(root)['build'])}\n"
            f"  run on:    {describe(current_build())}\n" + _indent(moved))


def rerecord(names=PINS, root=ROOT):
    """Regenerate each pin in ``names`` into the store under ``root``, and
    print whether it is the same or moved; a moved pin is rewritten, and
    ``pins.json`` records the build it was written on."""
    digests = read_store(root)["digests"]
    moved_any = False
    for name in names:
        fresh = _fresh(name)
        moved = _difference(name, _stored(name, root), fresh)
        print(name, "same" if moved is None else "moved")
        if moved is None:
            continue
        print(_indent(moved), end="")
        moved_any = True
        if is_file_pin(name):
            (root / name).write_bytes(fresh)
        else:
            digests[name] = fresh
    if moved_any:
        write_store({"build": current_build(),
                     "digests": {n: digests[n] for n in PINS if n in digests}},
                    root)


def main(argv):
    if argv:
        sys.exit("usage: PYTHONPATH=src python tests/pins.py (no arguments)")
    rerecord()


if __name__ == "__main__":
    main(sys.argv[1:])
