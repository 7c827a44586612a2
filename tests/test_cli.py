"""Command-line surface: configs in, CSV/JSON out, exit codes."""

import json

import pytest

from salsa_opt.cli import main
from salsa_opt.core import TrainingTrace
from salsa_opt.harness import batch_scaling_experiment, build_problem, \
    frequency_ablation

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

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {**RUN_CONFIG,
                                      "optimizer": {"kind": "nope"}})
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 2


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "quadratic", "dim": 3},
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
        assert "check-grad config needs 'problem' or 'problems'" in \
            captured.err
        assert captured.out == ""

    def test_non_integer_points_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problems": [{"kind": "quadratic", "dim": 2}],
            "points": "3",
        })
        assert main(["check-grad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "check-grad 'points' must be an integer, got '3'" in \
            captured.err
        assert captured.out == ""
