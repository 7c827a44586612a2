"""Golden optimizer runs: every kind, pinned to sha256 digests.

Each case runs ``run_single`` end to end and hashes what the run exposes:
the CSV trace, the smoothed h/s series, the final parameters and the number
of ``loss_grad`` calls. A refactor of the search code must leave all of it
bit-identical. The digests depend on the floating-point results of this
numpy build (2.4.6); a numpy upgrade that changes rounding in the problem
kernels may move them without any change to the optimizers.

Each case's CSV trace is also checked in as ``tests/golden/<case>.csv``, so
that a moved digest comes with the first trace line that moved. After a
deliberate change to the traces, rewrite those files from the checkout
with

    PYTHONPATH=src python tests/test_golden_traces.py

It prints one line, ``<case> csv|digest <new sha256>``, for each case
whose CSV or digest differs from the checked-in one, and nothing for the
others; copy each new digest into ``GOLDEN``.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from salsa_opt.harness import run_single
from salsa_opt.problems import make_mlp, make_quadratic

PROBLEMS = {
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
CASES = [
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
]

GOLDEN = {
    "sgd-fc0":
        "a6a5440d02f15f29c9cdc76ce55a0a1938d6e2591ba449cdec0dfeee8b9dae9e",
    "sgd-fc1":
        "a6a5440d02f15f29c9cdc76ce55a0a1938d6e2591ba449cdec0dfeee8b9dae9e",
    "sgd-cosine":
        "5c461009346a42cac3447166b891bc81eaba5c8cbf3636103d0fa7368434ea56",
    "adam-fc0":
        "1f2ef9eda2aa1732cee05d4a66ce3ddb3536bf71d6ec905ba918ea2178029740",
    "adam-fc1":
        "1f2ef9eda2aa1732cee05d4a66ce3ddb3536bf71d6ec905ba918ea2178029740",
    "sgd_sls-fc0":
        "eaf1b70be9c76ce0c889b5e93b35f7c28f8423cb4456c638711809586c80d79e",
    "sgd_sls-fc1":
        "3912196447e2de124933d7a95aa41bd4965131501119aead5448b1de440c8741",
    "adam_sls-fc0":
        "a0298990f0a1bd7398746086d4fb6631cd355d76117ea2a2e802d74121874721",
    "adam_sls-fc1":
        "abbf9d003c13744e36f0807dddc731043fd8af6fc323ff8bf34bfa56d2626678",
    "sgd_salsa-fc0":
        "9edfbc185794db65424c2d0c023223bd126b831b59168691def88c7b9b5a8e7b",
    "sgd_salsa-fc1":
        "e3919975757a8ca6a993881630fc60e9d3fd040fb0a92d5b935d06faa47c14cd",
    "adam_salsa-fc0":
        "d6c8f78e1b4048d176ec986adabbbb6bebaa5b8f08190727bc4c541f193bfc74",
    "adam_salsa-fc1":
        "2523a69c318eca0d4bc0186517fc1cf27d967e67d51d241431dd9b1fddd162f7",
    "sgd_salsa-nondecrease":
        "4facec265ff29b7b1dcdd896cb286309770d460428f5fa25c837ee2c3f50df6d",
    "adam_salsa-nondecrease":
        "5c455dd1c8ea666bc90ecc635a0eae28c5d97e660e72a646c9cbdf3acd20bd7d",
    "sgd_sls-eta8-fc0":
        "8e14afbf103e9616c204bc98755e3647db9ffc45aac75de2a20c073381c3b435",
    "sgd_sls-eta8-fc1":
        "a667a3d076af912305a76536e06276126f27eb859f38ed2d88f2976451e1f9f7",
    "sgd_salsa-eta8-fc0":
        "ae94ce0d2be281f0b8226463512d7c26105222501d3da93fe14f9f1cffe1cc1a",
    "sgd_salsa-eta8-fc1":
        "c69bb190062a4e3d57cb50ef5ec8f17edd098178f48e943ce5dabc029633ff9e",
    "sgd_sls-giveup":
        "eee628dd53175223f6f32b284678ab6314970a3e53ca1c8cf862444257dfddbc",
    "adam_sls-giveup":
        "204ac28b7ddb335a377ea3a079526c479e5d89314f748d1d86893792422eb3a8",
    "sgd_salsa-giveup":
        "e804dd9fe6a1ba31c7992ec57523a4f22f2fbe2f2d3f25fc7915b815036746ba",
    "adam_salsa-giveup":
        "308a21c075b69f2500eeec7979a2da2e43d9601fa274e27495fd26a6a9953723",
    "sgd_sls-clamp":
        "f8b1386644e00af43cd4cee02d21bbda4c6d1c8a19b84cd934718939f32efb05",
    "adam_sls-clamp":
        "d0eebe88bd130bff1f0e0a7046666c49fd28038ee4176d7cb17a314f468eea64",
    "sgd_salsa-clamp":
        "624b54a823eb2f79784b9e00148774e7ca3c23cafd9256e9d82cd67643e5b11f",
    "adam_salsa-clamp":
        "1acd786ad92b6e72e27f7172dca879615b0a83cee80331045d45a29d4eef3f72",
    "sgd_sls-guard":
        "66d7ca21bdd78f85d6392e58889a3010c7c1b4d2e57506014dcbcf5dcb57238a",
    "adam_sls-guard":
        "eea05735a040bd33e91866de2a2d420974d36316d7ea4808d36425516f73a88c",
    "sgd_salsa-guard":
        "a3ae88f6959b1e2d9d7ff1691128a8c35c0352a11f060d316797b6173b0f027d",
    "adam_salsa-guard":
        "cf173452701f046955d95d1b59cf7182dd262086301a9e4984b77f07e0c32779",
    "sgd_salsa-giveup-nondecrease":
        "e804dd9fe6a1ba31c7992ec57523a4f22f2fbe2f2d3f25fc7915b815036746ba",
    "adam_salsa-giveup-nondecrease":
        "308a21c075b69f2500eeec7979a2da2e43d9601fa274e27495fd26a6a9953723",
    "sgd_salsa-guard-nondecrease":
        "bc295f1e372c7030e82ab22566985ef31ca4e0f6759e7cda766c727590928d44",
    "adam_salsa-guard-nondecrease":
        "f0956b60c70864ee112477e45c768498bf3d15ae0cdfc845f6caff4501e85d18",
}


def run_digest(problem_key, optimizer, fc, epochs, batch_size, seed=3):
    """sha256 over the trace CSV, the h/s series, the final parameters and
    the evaluation count of one run."""
    problem = PROBLEMS[problem_key]()
    calls = [0]
    inner = problem.loss_grad

    def counting_loss_grad(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    problem = dataclasses.replace(problem, loss_grad=counting_loss_grad)
    result = run_single(problem, optimizer, seed, epochs, batch_size,
                        frequency_controller=fc)
    # the h/s series as runs reported them before the records held them:
    # one value per record for a SaLSa kind, none for the others
    records = result.trace.records
    smoothed = optimizer["kind"].endswith("salsa")
    digest = hashlib.sha256()
    digest.update(result.trace.to_csv().encode())
    digest.update(repr([r.h for r in records] if smoothed else []).encode())
    digest.update(repr([r.s for r in records] if smoothed else []).encode())
    digest.update(result.final_params.tobytes())
    digest.update(str(calls[0]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case_id,problem_key,optimizer,fc,epochs,batch_size",
                         CASES, ids=[c[0] for c in CASES])
def test_golden_run_digest(case_id, problem_key, optimizer, fc, epochs,
                           batch_size):
    assert run_digest(problem_key, optimizer, fc, epochs, batch_size) == \
        GOLDEN[case_id]


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def case_csv(problem_key, optimizer, fc, epochs, batch_size, seed=3):
    """The CSV trace of one case's run."""
    return run_single(PROBLEMS[problem_key](), optimizer, seed, epochs,
                      batch_size, frequency_controller=fc).trace.to_csv()


def write_golden_csvs():
    """Write ``golden/<case>.csv`` for every case, from this checkout, and
    print what moved: the new sha256 of each CSV that differs from the
    checked-in file, and each run digest that differs from ``GOLDEN``."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case_id, *case in CASES:
        path = GOLDEN_DIR / f"{case_id}.csv"
        csv = case_csv(*case)
        if not path.exists() or path.read_text() != csv:
            path.write_text(csv, newline="\n")
            print(case_id, "csv", hashlib.sha256(csv.encode()).hexdigest())
        digest = run_digest(*case)
        if digest != GOLDEN.get(case_id):
            print(case_id, "digest", digest)


@pytest.mark.parametrize("case_id,problem_key,optimizer,fc,epochs,batch_size",
                         CASES, ids=[c[0] for c in CASES])
def test_golden_run_csv(case_id, problem_key, optimizer, fc, epochs,
                        batch_size):
    got = case_csv(problem_key, optimizer, fc, epochs, batch_size)
    want = (GOLDEN_DIR / f"{case_id}.csv").read_text()
    end = ["<end of trace>"]
    lines = zip(got.splitlines(True) + end, want.splitlines(True) + end)
    for n, (g, w) in enumerate(lines, 1):
        assert g == w, (f"{case_id}: trace line {n} moved\n"
                        f"  golden: {w.rstrip()}\n  run:    {g.rstrip()}")


if __name__ == "__main__":
    write_golden_csvs()
