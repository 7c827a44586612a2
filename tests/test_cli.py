"""Command-line surface: configs in, CSV/JSON out, exit codes."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from salsa_opt import harness
from salsa_opt.cli import main
from salsa_opt.core import TrainingTrace
from salsa_opt.harness import batch_scaling_experiment, build_problem, \
    compare, final_smoothed_loss, frequency_ablation, run_experiment

RUN_CONFIG = {
    "problem": {"kind": "quadratic", "dim": 3, "cond": 10, "seed": 1},
    "optimizer": {"kind": "sgd_sls"},
    "seeds": [0, 1],
    "epochs": 20,
    "batch_size": 1,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunCommand:
    def test_writes_per_seed_files(self, tmp_path):
        cfg = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for seed in (0, 1):
            text = (tmp_path / f"trace_seed{seed}.csv").read_text()
            assert text.startswith("k,eta,loss,")

    def test_repeat_invocations_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, RUN_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--seed", "3",
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--seed", "3",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_single_file(self, tmp_path):
        cfg = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "one.csv"
        assert main(["run", "--config", cfg, "--seed", "7",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_step_size_underflow_is_a_give_up(self, tmp_path):
        # the third candidate, 1e-200 * 1e-200, is 0.0; it used to pass the
        # smoothed test and end the run in a traceback
        cfg = write_config(tmp_path, {
            **RUN_CONFIG, "seeds": [0], "epochs": 5,
            "problem": {"kind": "quadratic", "dim": 4, "cond": 10.0,
                        "seed": 0},
            "optimizer": {"kind": "sgd_salsa", "delta": 1e-200,
                          "max_backtracks": 3}})
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        records = TrainingTrace.from_csv(out.read_text()).records
        assert len(records) == 5 and records[0].eta == 1e-10

    def test_a_diverged_seed_exits_3_with_every_trace_written(self, tmp_path,
                                                            capsys):
        # fixed sgd at lr 5 overflows this quadratic from any start, at
        # step 92 from seed 0; it used to exit 0 with 107 non-finite
        # losses in seed 0's trace. Each seed's line follows its file's.
        cfg = write_config(tmp_path, {
            **RUN_CONFIG, "seeds": [0, 3], "epochs": 200,
            "problem": {"kind": "quadratic", "dim": 4, "cond": 10,
                        "seed": 0},
            "optimizer": {"kind": "sgd", "lr": 5}})
        out = tmp_path / "trace.csv"
        with np.errstate(all="ignore"):
            code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        traces = {seed: TrainingTrace.from_csv(
            (tmp_path / f"trace_seed{seed}.csv").read_text())
            for seed in (0, 3)}
        assert len(traces[0].records) == 93
        assert err == [f"wrote {tmp_path / 'trace_seed0.csv'}",
                       "seed 0: diverged at 92",
                       f"wrote {tmp_path / 'trace_seed3.csv'}",
                       f"seed 3: diverged at {traces[3].records[-1].k}"]

    def test_a_diverged_run_to_stdout_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **RUN_CONFIG, "seeds": [0], "epochs": 200,
            "problem": {"kind": "quadratic", "dim": 4, "cond": 10,
                        "seed": 0},
            "optimizer": {"kind": "sgd", "lr": 5}})
        with np.errstate(all="ignore"):
            assert main(["run", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == "seed 0: diverged at 92\n"
        assert len(TrainingTrace.from_csv(captured.out).records) == 93

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "t.json"
        assert main(["run", "--config", cfg, "--seed", "0", "--out", str(out),
                     "--format", "json"]) == 0
        trace = TrainingTrace.from_json(out.read_text())
        assert trace.metadata["seed"] == 0
        assert len(trace.records) == 20

    def test_stdout_single_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,eta,loss,")

    def test_several_seeds_without_out_rejected(self, tmp_path, capsys,
                                                monkeypatch):
        # the seeds used to run before the missing --out was reported; with
        # no run_single to call, the check must come before any run
        monkeypatch.setattr(harness, "run_single", None)
        cfg = write_config(tmp_path, RUN_CONFIG)
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: multiple seeds need --out\n"
        assert captured.out == ""

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        # wrote r_seed3.csv twice and exited 0
        cfg = write_config(tmp_path, {**RUN_CONFIG, "seeds": [3, 3]})
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: seeds must not repeat a value, got [3, 3]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {**RUN_CONFIG,
                                      "optimizer": {"kind": "nope"}})
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_csv_with_three_label_values_exit_code(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("".join(f"{i}.0,{label}\n"
                                for i, label in enumerate([1, 0, -1, 1, 0])))
        cfg = write_config(tmp_path, {
            **RUN_CONFIG, "seeds": [0],
            "problem": {"kind": "csv", "path": str(data),
                        "model": "logreg"}})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad csv parameters: labels must be")
        assert "[-1.0, 0.0, 1.0]" in err

    def test_csv_with_non_finite_features_exit_code(self, tmp_path, capsys):
        # accepted, a nan or inf feature gives NaN losses with 100
        # backtracks per step, and the run still exits 0
        data = tmp_path / "nonfinite.csv"
        data.write_text("f0,f1,label\n1.0,2.0,1\n0.5,nan,0\n-1.0,0.3,1\n"
                        "inf,1.0,0\n0.2,-0.4,1\n")
        cfg = write_config(tmp_path, {
            **RUN_CONFIG, "seeds": [0], "batch_size": 2,
            "optimizer": {"kind": "sgd_sls"},
            "problem": {"kind": "csv", "path": str(data),
                        "model": "logreg"}})
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: bad csv parameters: data row 2 holds a non-finite value")
        assert captured.out == ""

    def test_header_only_csv_is_one_error_line(self, tmp_path):
        # a fresh interpreter, so that a warning numpy prints reaches the
        # stderr this test reads
        data = tmp_path / "header.csv"
        data.write_text("f0,f1,label\n")
        cfg = write_config(tmp_path, {
            **RUN_CONFIG, "seeds": [0],
            "problem": {"kind": "csv", "path": str(data),
                        "model": "logreg"}})
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "salsa_opt.cli", "run", "--config", cfg],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == \
            "error: bad csv parameters: the file holds no data rows\n"
        assert proc.stdout == ""

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestRunConfigErrors:
    """Bad values in a run config end as exit 2 and one ``error:`` line,
    before any step is taken."""

    @pytest.mark.parametrize("overrides, message", [
        ({"optimizer": {"kind": "sgd_sls", "eta_min": -2, "eta_init": -1,
                        "eta_max": 1}}, "eta_min must be > 0, got -2"),
        ({"optimizer": {"kind": "sgd_sls", "max_backtracks": 2.5}},
         "max_backtracks must be an integer, got 2.5"),
        ({"optimizer": {"kind": "adam_salsa", "max_backtracks": True}},
         "max_backtracks must be an integer, got True"),
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
        ({"seeds": [1.5]}, "seeds must be integers, got 1.5"),
        ({"seeds": [0, False]}, "seeds must be integers, got False"),
        ({"seeds": 3}, "seeds must be a non-empty list of integers, got 3"),
        ({"optimizer": {"kind": "sgd_sls", "c": "0.3"}},
         "c must be a real number, got '0.3'"),
        ({"frequency_controller": "false"},
         "frequency_controller must be true or false, got 'false'"),
    ], ids=["negative-eta_min", "fractional-max_backtracks",
            "bool-max_backtracks", "fractional-epochs", "bool-epochs",
            "fractional-batch_size", "fractional-seed", "bool-seed",
            "scalar-seeds", "string-c", "string-frequency_controller"])
    def test_exit_2_with_an_error_line(self, tmp_path, capsys, overrides,
                                       message):
        cfg = write_config(tmp_path, {**RUN_CONFIG, **overrides})
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.glob("trace*")) == []


class TestCompareCommand:
    def test_table_output(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2, "cond": 5, "seed": 1}],
            "optimizers": [{"kind": "sgd_sls"}, {"kind": "adam_salsa"}],
            "seeds": [0],
            "epochs": 20,
            "batch_size": 1,
        })
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("problem,")
        assert lines[-1].startswith("average_rank,")

    def test_a_diverged_run_exits_3_with_the_table_written(self, tmp_path,
                                                           capsys):
        # it used to exit 0 with the diverged cell 5.13410625000935e+305
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 4, "cond": 10,
                          "seed": 0}],
            "optimizers": [{"kind": "sgd", "lr": 5}, {"kind": "sgd_sls"}],
            "seeds": [0], "epochs": 200, "batch_size": 1})
        out = tmp_path / "table.csv"
        with np.errstate(all="ignore"), pytest.warns(UserWarning,
                                                     match="NaN loss"):
            code = main(["compare", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"wrote {out}\n"
            "quadratic_d4_c10 sgd seed 0: diverged at 92\n")
        lines = out.read_text().splitlines()
        assert lines[0] == "problem,sgd,sgd_sls"
        assert lines[1].startswith("quadratic_d4_c10,nan,")
        assert lines[-1] == "average_rank,2.0,1.0"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2, "cond": 5, "seed": 1}],
            "optimizers": [{"kind": "sgd_sls"}],
            "seeds": [0],
            "epochs": 2,
            "batch_size": 1,
            "junk": 3,
        })
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown compare config fields: ['junk']" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_out_in_config_rejected(self, tmp_path, capsys):
        # the table goes where --out says; an "out" key used to be
        # accepted and ignored, the table printed to stdout
        out = tmp_path / "cmp.csv"
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2, "cond": 5, "seed": 1}],
            "optimizers": [{"kind": "sgd_sls"}],
            "seeds": [0], "epochs": 2, "batch_size": 1, "out": str(out)})
        assert main(["compare", "--config", cfg]) == 2
        assert capsys.readouterr() == (
            "", "error: unknown compare config fields: ['out']\n")
        assert not out.exists()

    def test_each_problem_built_once(self, tmp_path, monkeypatch):
        # every pair used to build its problem again, reading a csv
        # problem's file again: 8 builds for 2 problems x 3 optimizers
        builds = []
        for kind in ("quadratic", "logreg"):
            factory = harness._PROBLEM_BUILDERS[kind]
            # wraps keeps the factory's signature, which the key check reads
            monkeypatch.setitem(
                harness._PROBLEM_BUILDERS, kind, functools.wraps(factory)(
                    lambda _f=factory, _k=kind, **p:
                    builds.append(_k) or _f(**p)))
        config = {
            "problems": [{"kind": "logreg", "n": 100, "dim": 3, "seed": 0},
                         {"kind": "quadratic", "dim": 3, "cond": 10}],
            "optimizers": [{"kind": "sgd_sls"}, {"kind": "adam_salsa"},
                           {"kind": "sgd", "lr": 0.1}],
            "seeds": [0, 1], "epochs": 2, "batch_size": 8}
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        assert builds == ["logreg", "quadratic"]
        # the table of the pairs run one experiment each
        shared = {k: config[k] for k in ("seeds", "epochs", "batch_size")}
        table = compare({
            (build_problem(prob).name, opt["kind"]): float(np.mean([
                final_smoothed_loss(r.trace)
                for r in run_experiment(harness.ExperimentConfig(
                    problem=prob, optimizer=opt, **shared))]))
            for prob in config["problems"] for opt in config["optimizers"]})
        assert out.read_text() == table.to_csv()


    @pytest.mark.parametrize("problems, optimizers", [
        ([{"kind": "quadratic", "dim": 3, "cond": 10}],
         [{"kind": "sgd_sls"}, {"kind": "sgd_sls", "c": 0.5}]),
        ([{"kind": "quadratic", "dim": 3, "cond": 10, "seed": 1},
          {"kind": "quadratic", "dim": 3, "cond": 10, "seed": 2}],
         [{"kind": "sgd_sls"}]),
    ], ids=["two-configs-of-one-kind", "problems-differing-in-seed"])
    def test_repeated_label_rejected_before_any_run(
            self, tmp_path, capsys, monkeypatch, problems, optimizers):
        # the table labels a pair by problem name and optimizer kind; two
        # pairs with one label used to run and print as one cell
        runs = []
        run_single = harness.run_single
        monkeypatch.setattr(harness, "run_single", lambda *args, **kwargs:
                            runs.append(args) or run_single(*args, **kwargs))
        cfg = write_config(tmp_path, {
            "problems": problems, "optimizers": optimizers, "seeds": [0],
            "epochs": 20, "batch_size": 1})
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: compare config repeats " \
            "the pair (quadratic_d3_c10, sgd_sls)\n"
        assert runs == []
        assert not out.exists()


class TestScalingCommand:
    def test_ratio_table(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "logreg", "n": 200, "dim": 4, "seed": 0,
                        "label_noise": 0.1},
            "batch_sizes": [4, 8],
            "seeds": [0],
            "epochs": 1,
        })
        out = tmp_path / "scaling.csv"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith("batch_size,mean_mid_eta")

    def test_a_diverged_run_exits_3_with_the_report_written(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "quadratic", "dim": 4, "cond": 10, "seed": 0},
            "optimizer": {"kind": "sgd", "lr": 5},
            "batch_sizes": [1], "seeds": [0], "epochs": 200})
        out = tmp_path / "scaling.csv"
        with np.errstate(all="ignore"):
            code = main(["scaling", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"wrote {out}\n"
            "quadratic_d4_c10 sgd batch 1 seed 0: diverged at 92\n")
        assert out.read_text() == \
            "batch_size,mean_mid_eta,ratio_vs_prev\n1,nan,\n"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # batch_size is a freq-ablation argument, not a scaling one
        cfg = write_config(tmp_path, {
            "problem": {"kind": "logreg", "n": 200, "dim": 4, "seed": 0,
                        "label_noise": 0.1},
            "batch_size": 8,
            "junk": 3,
        })
        out = tmp_path / "scaling.csv"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown scaling config fields: ['batch_size', 'junk']" in \
            capsys.readouterr().err
        assert not out.exists()


class TestFreqAblationCommand:
    def test_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "logreg", "n": 200, "dim": 4, "seed": 0,
                        "label_noise": 0.1},
            "seeds": [0, 1],
            "epochs": 1,
            "batch_size": 16,
        })
        out = tmp_path / "abl.json"
        assert main(["freq-ablation", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["searched_fraction_off"] == 1.0

    def test_a_diverged_run_exits_3_with_the_report_written(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "matrix_factorization", "rows": 8, "cols": 6,
                        "rank": 2, "seed": 3},
            "optimizer": {"kind": "sgd_sls", "eta_init": 8},
            "seeds": [0], "epochs": 2, "batch_size": 1})
        with np.errstate(all="ignore"):
            assert main(["freq-ablation", "--config", cfg,
                         "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.err == \
            "matfac_8x6_r2 sgd_sls controller on seed 0: diverged at 25\n"
        payload = json.loads(captured.out)
        assert math.isnan(payload["final_loss_on"][0])
        assert math.isnan(payload["searched_fraction_on"])
        assert payload["searched_fraction_off"] == 1.0
        assert "not_ok" not in payload

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "logreg", "n": 200, "dim": 4, "seed": 0,
                        "label_noise": 0.1},
            "batch_sizes": [4, 8],
        })
        out = tmp_path / "abl.csv"
        assert main(["freq-ablation", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown freq-ablation config fields: ['batch_sizes']" in \
            capsys.readouterr().err
        assert not out.exists()


class TestStudyDefaults:
    @pytest.mark.parametrize("command, study", [
        ("scaling", batch_scaling_experiment),
        ("freq-ablation", frequency_ablation),
    ])
    def test_problem_only_config_runs_study_defaults(self, tmp_path, command,
                                                     study):
        spec = {"kind": "logreg", "n": 64, "dim": 3, "seed": 0,
                "label_noise": 0.1}
        cfg = write_config(tmp_path, {"problem": spec})
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        assert out.read_bytes() == \
            study(build_problem(spec)).to_json().encode()


class TestStudyBytes:
    # sha256 of the JSON each study command writes for a small config; a
    # refactor of the runs or reductions behind a study must keep them
    PROBLEM = {"kind": "logreg", "n": 64, "dim": 3, "seed": 0,
               "label_noise": 0.1}

    @pytest.mark.parametrize("command, config, digest", [
        ("scaling", {"optimizer": {"kind": "sgd_sls"}, "batch_sizes": [4, 8],
                     "seeds": [0, 1], "epochs": 1},
         "cdae070ec881b500f994fc3869cb80dd4aeabd5be49cddb221ec262fa03f0e97"),
        ("scaling", {"optimizer": {"kind": "adam_salsa"},
                     "batch_sizes": [4, 8], "seeds": [0, 1], "epochs": 2},
         "80e62454ce59c600a6c66da367f18cfd26461caa89c1d7379cb9f4771ffb1c53"),
        ("freq-ablation", {"optimizer": {"kind": "sgd_salsa"},
                           "seeds": [0, 1], "epochs": 2, "batch_size": 8},
         "22f32732e8d6e7dceb99cfe124f07be61e0f195a24432854fd5dae8680d4f922"),
        ("freq-ablation", {"optimizer": {"kind": "adam_sls"},
                           "seeds": [0, 1], "epochs": 1, "batch_size": 4},
         "6e8014f4f43569d6dc71de2e21272b7315c37e0ba8458509be34d368934d38bc"),
    ], ids=["scaling-sgd_sls", "scaling-adam_salsa", "freq-ablation-sgd_salsa",
            "freq-ablation-adam_sls"])
    def test_json_bytes_are_pinned(self, tmp_path, command, config, digest):
        cfg = write_config(tmp_path, {"problem": self.PROBLEM, **config})
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        text = out.read_bytes()
        if config["optimizer"]["kind"] == "sgd_sls":
            # a run without smoothing reports an empty h and s per run
            empty = b'{"4:0":[],"4:1":[],"8:0":[],"8:1":[]}'
            assert b'"h_series":' + empty in text
            assert b'"s_series":' + empty in text
        assert hashlib.sha256(text).hexdigest() == digest


class TestCheckGradCommand:
    def test_all_problems_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problems": [
                {"kind": "quadratic", "dim": 3, "cond": 10, "seed": 0},
                {"kind": "logreg", "n": 100, "dim": 4, "seed": 0,
                 "label_noise": 0.1},
            ],
            "points": 3,
        })
        assert main(["check-grad", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 2

    def test_fails_with_tight_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "mlp", "n": 80, "in_dim": 4, "hidden": 3,
                          "seed": 0}],
            "points": 2,
        })
        assert main(["check-grad", "--config", cfg, "--tol", "1e-16"]) == 1

    def test_a_nan_error_fails(self, tmp_path, capsys):
        # the finite-difference losses overflow to inf, so the relative
        # error is inf / inf: a NaN must count as the worst error
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 4, "cond": 1e308}],
            "points": 2,
        })
        with np.errstate(over="ignore"):
            assert main(["check-grad", "--config", cfg]) == 1
        assert capsys.readouterr().out == \
            "quadratic_d4_c1e+308: max rel err nan [FAIL]\n"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 3}],
            "pionts": 1,
            "junk": 3,
        })
        assert main(["check-grad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "unknown check-grad config fields: ['junk', 'pionts']" in \
            captured.err
        assert captured.out == ""

    def test_missing_problem_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"points": 1})
        assert main(["check-grad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: missing check-grad config fields: ['problems']\n"
        assert captured.out == ""

    def test_non_integer_points_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2}],
            "points": "3",
        })
        assert main(["check-grad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "points must be an integer, got '3'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("points, message", [
        pytest.param(True, "points must be an integer, got True", id="True"),
        pytest.param(0, "points must be >= 1, got 0", id="0"),
        pytest.param(-2, "points must be >= 1, got -2", id="-2"),
    ])
    def test_bad_points_is_a_config_error(self, tmp_path, capsys, points,
                                          message):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2}],
            "points": points,
        })
        assert main(["check-grad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("h, message", [
        pytest.param(0, "h must be > 0, got 0", id="0"),
        pytest.param(-1e-5, "h must be > 0, got -1e-05", id="-1e-05"),
        pytest.param("x", "h must be a real number, got 'x'", id="x"),
        pytest.param(True, "h must be a real number, got True", id="True"),
        pytest.param(float("nan"), "h must be a real number, got nan",
                     id="nan"),
        pytest.param(float("inf"), "h must be a real number, got inf",
                     id="inf"),
    ])
    def test_bad_h_is_a_config_error(self, tmp_path, capsys, h, message):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2}],
            "points": 1,
            "h": h,
        })
        assert main(["check-grad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}\n" == captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol, message", [
        pytest.param("nan", "tol must be a real number, got nan", id="nan"),
        pytest.param("-1", "tol must be > 0, got -1.0", id="-1"),
        pytest.param("inf", "tol must be a real number, got inf", id="inf"),
    ])
    def test_bad_tol_is_a_config_error(self, tmp_path, capsys, tol, message):
        # a tolerance no gradient can meet, or every gradient meets, would
        # report a verdict on the gradients that says nothing about them
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2}],
            "points": 1,
        })
        assert main(["check-grad", "--config", cfg, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}\n" == captured.err
        assert captured.out == ""

    def test_integer_h_is_accepted(self, tmp_path, capsys):
        # central differences are exact on a quadratic at any step
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2}],
            "points": 1,
            "h": 1,
        })
        assert main(["check-grad", "--config", cfg]) == 0
        assert "[ok]" in capsys.readouterr().out
