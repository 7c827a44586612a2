"""Experiment runner: determinism, summaries, comparison, replay checks."""

import dataclasses
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins
from salsa_opt import harness, line_search, salsa
from salsa_opt.baselines import ScheduleConfig, schedule_lr
from salsa_opt.cli import main
from salsa_opt.core import EvalResult, TrainingTrace, StepRecord
from salsa_opt.directions import AdamState
from salsa_opt.harness import (LINE_SEARCH_KINDS, ConfigError,
                               batch_scaling_experiment,
                               build_problem, compare, compare_optimizers,
                               emit, final_smoothed_loss,
                               frequency_ablation, replay_verify,
                               run_experiment, run_single)
from salsa_opt.line_search import SlsConfig
from salsa_opt.problems import Problem, make_logreg, \
    make_matrix_factorization, make_mlp, make_quadratic
from salsa_opt.salsa import SalsaConfig

QUAD_SPEC = {"kind": "quadratic", "dim": 3, "cond": 10, "seed": 1}


def quick_config(**overrides):
    """run_experiment's keyword arguments for a short sgd_sls run."""
    base = dict(problem=QUAD_SPEC,
                optimizer={"kind": "sgd_sls"}, seeds=[0], epochs=30,
                batch_size=1)
    base.update(overrides)
    return base


class TestConfig:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(**quick_config(seeds=[]))

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.0), ("epochs", True), ("epochs", "3"),
        ("batch_size", 1.5), ("batch_size", False),
        ("seeds", [0, 1.0]), ("seeds", [True]), ("seeds", 0),
    ])
    def test_non_integer_run_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            run_experiment(**quick_config(**{field: value}))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_bool_frequency_controller_rejected(self, value):
        # the string "false" is truthy: it used to switch the controller on
        with pytest.raises(ConfigError, match="frequency_controller must be "
                                              "true or false"):
            run_experiment(**quick_config(frequency_controller=value))

    def test_run_single_rejects_nondecrease_with_zero_eta_min(self):
        with pytest.raises(ConfigError, match="eta_min must be > 0"):
            run_single(make_mlp(96, 4, 6, seed=1),
                       {"kind": "adam_salsa", "enforce_nondecrease": True,
                        "eta_min": 0.0}, 3, 3, 8)

    def test_run_single_rejects_an_unknown_kind(self):
        with pytest.raises(ConfigError, match="optimizer kind must be one of"):
            run_single(make_quadratic(dim=2, cond=5, seed=1),
                       {"kind": "nope", "lr": 0.1}, seed=0, epochs=1,
                       batch_size=1)

    # unchecked, these ran no step, ran one epoch, ended in a TypeError or
    # an AttributeError, and switched the controller on
    @pytest.mark.parametrize("setting, message", [
        ({"epochs": -1}, "epochs must be >= 0, got -1"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"optimizer": "sgd_sls"},
         "optimizer must be an object, got 'sgd_sls'"),
        ({"frequency_controller": "yes"},
         "frequency_controller must be true or false, got 'yes'"),
    ], ids=["negative-epochs", "bool-epochs", "fractional-epochs",
            "string-optimizer", "string-frequency_controller"])
    def test_run_single_checks_its_settings(self, setting, message):
        run = {"optimizer": {"kind": "sgd_sls"}, "seed": 0, "epochs": 1,
               "batch_size": 1, "frequency_controller": False, **setting}
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_single(make_quadratic(dim=4, cond=10), **run)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(**quick_config(optimizer={"kind": "lbfgs"}))

    def test_unknown_problem_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_problem({"kind": "rosenbrock"})

    def test_unknown_problem_param_rejected(self):
        with pytest.raises(ConfigError):
            build_problem({"kind": "quadratic", "dim": 2, "curvature": 3})

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**quick_config(epochs=1), "turbo": True}))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: unknown run config fields: ['turbo']\n"

    def test_unknown_optimizer_param_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(**quick_config(
                optimizer={"kind": "sgd_sls", "momentum": 0.9}, epochs=1))

    @pytest.mark.parametrize("optimizer", [
        {"kind": "sgd", "lr": 0.1}, {"kind": "sgd_sls"}, {"kind": "sgd_salsa"}
    ], ids=lambda o: o["kind"])
    def test_adam_keys_rejected_on_sgd_kinds(self, optimizer):
        with pytest.raises(ConfigError, match=r"unknown \w+ optimizer config "
                                              r"fields: \['beta1'\]"):
            run_experiment(**quick_config(
                optimizer={**optimizer, "beta1": 0.5}, epochs=1))

    def test_lr_with_peak_lr_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            run_experiment(**quick_config(
                optimizer={"kind": "sgd", "lr": 0.1, "peak_lr": 0.01},
                epochs=1))


class TestRunExperiment:
    def test_zero_epochs_gives_initial_record_only(self):
        traces = [r.trace for r in run_experiment(**quick_config(epochs=0))]
        assert len(traces) == 1
        assert len(traces[0].records) == 1
        rec = traces[0].records[0]
        assert rec.k == 0 and not rec.searched

    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("kind", ["sgd_salsa", "adam_salsa"])
    def test_salsa_logs_one_h_and_s_per_record(self, kind, epochs):
        # a zero-epoch run used to record one step but log no h or s
        result = run_single(make_quadratic(3), {"kind": kind}, 0, epochs, 1)
        assert len(result.trace.records) == 1
        rec = result.trace.records[0]
        if epochs == 0:
            assert math.isnan(rec.h) and math.isnan(rec.s)
        else:
            assert math.isfinite(rec.h) and math.isfinite(rec.s)

    def test_identical_configs_give_identical_traces(self):
        a = run_experiment(**quick_config(seeds=[3, 4]))
        b = run_experiment(**quick_config(seeds=[3, 4]))
        for ta, tb in ((ra.trace, rb.trace) for ra, rb in zip(a, b)):
            assert ta.records == tb.records
            assert ta.to_csv() == tb.to_csv()
            assert ta.to_json() == tb.to_json()

    @pytest.mark.parametrize("problem, optimizer", [
        ({"kind": "quadratic", "dim": 2}, {"kind": "sgd", "lr": 1}),
        ({"kind": "quadratic", "dim": 2, "cond": 10}, {"kind": "sgd_sls"}),
        ({"kind": "quadratic", "dim": 2},
         {"kind": "adam_salsa", "eta_max": 10, "beta1": 0}),
        # keys of the schedule, search and Adam fields interleaved: the
        # metadata keeps the config's order, not one grouped by field class
        ({"kind": "quadratic", "dim": 2},
         {"kind": "adam", "beta1": 0, "schedule": "flat", "lr": 1}),
        ({"kind": "quadratic", "dim": 2},
         {"kind": "adam_sls", "beta2": 0, "c": 0.5, "eta_init": 1}),
    ], ids=["sgd-lr", "problem-cond", "adam_salsa-eta_max-beta1",
            "adam-beta1-schedule-lr", "adam_sls-beta2-c-eta_init"])
    def test_int_and_float_values_give_the_same_json(self, problem,
                                                     optimizer):
        # a number written as 1 or 1.0 is the same float to every field,
        # so the trace's config metadata must not tell them apart
        def as_floats(config):
            return {k: float(v) if isinstance(v, int) and k != "dim" else v
                    for k, v in config.items()}

        traces = [run_experiment(**quick_config(problem=p, optimizer=o,
                                              epochs=1))[0].trace
                  for p, o in ((problem, optimizer),
                               (as_floats(problem), as_floats(optimizer)))]
        assert traces[0].to_csv() == traces[1].to_csv()
        assert traces[0].to_json() == traces[1].to_json()
        assert list(traces[0].metadata["config"]["optimizer"]) == \
            list(optimizer)

    def test_one_trace_per_seed_in_order(self):
        results = run_experiment(**quick_config(seeds=[5, 1, 9], epochs=2))
        assert [r.trace.metadata["seed"] for r in results] == [5, 1, 9]

    def test_quadratic_salsa_adam_reaches_tiny_loss(self):
        cfg = quick_config(problem={"kind": "quadratic", "dim": 5, "cond": 10,
                                    "seed": 11},
                           optimizer={"kind": "adam_salsa"},
                           seeds=[0, 1, 2, 3, 4], epochs=3500)
        for result in run_experiment(**cfg):
            assert final_smoothed_loss(result.trace) <= 1e-6

    def test_all_optimizer_kinds_run(self):
        for kind in ("sgd", "adam", "sgd_sls", "adam_sls", "sgd_salsa",
                     "adam_salsa"):
            opt = {"kind": kind, "lr": 0.05} if kind in ("sgd", "adam") \
                else {"kind": kind}
            results = run_experiment(**quick_config(optimizer=opt, epochs=5))
            assert len(results[0].trace.records) == 5

    def test_adam_salsa_run_builds_one_adam_state(self, monkeypatch):
        # the moments are advanced in place, not rebuilt on every step
        built = []
        post_init = AdamState.__post_init__

        def counting_post_init(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(AdamState, "__post_init__", counting_post_init)
        result = run_single(make_quadratic(dim=3, cond=10, seed=1),
                            {"kind": "adam_salsa"}, seed=0, epochs=25,
                            batch_size=1)
        assert len(result.trace.records) == 25
        assert len(built) == 1

    # one config per kind in pins.RUN_JSON; each pins the sha256 of its
    # runs' JSON, traces and metadata together
    @pytest.mark.parametrize("kind", pins.RUN_JSON)
    @pytest.mark.parametrize("epochs", pins.RUN_JSON_EPOCHS)
    def test_json_bytes_are_pinned(self, kind, epochs):
        pins.check(f"run-json/{kind}-epochs{epochs}")

    def test_fixed_rate_schedule_default_is_schedule_configs(self):
        # a config with only peak_lr runs ScheduleConfig's own default shape
        result = run_single(make_quadratic(dim=2, cond=5, seed=1),
                            {"kind": "sgd", "peak_lr": 0.3}, seed=0,
                            epochs=40, batch_size=1)
        schedule = ScheduleConfig(peak_lr=0.3, total_steps=40)
        assert [r.eta for r in result.trace.records] == \
            [schedule_lr(schedule, k) for k in range(40)]


class TestFinalSmoothedLoss:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            final_smoothed_loss(TrainingTrace(metadata={}))

    def test_single_record(self):
        trace = TrainingTrace(metadata={})
        trace.append(StepRecord(0, 1.0, 0.7, 1.0, False, 0, 0))
        assert final_smoothed_loss(trace) == 0.7

    def test_matches_reference_ema(self):
        trace = TrainingTrace(metadata={})
        losses = [1.0, 0.5, 0.25, 0.125]
        for k, loss in enumerate(losses):
            trace.append(StepRecord(k, 1.0, loss, 1.0, False, 0, 0))
        expected = losses[0]
        for x in losses[1:]:
            expected = 0.99 * expected + 0.01 * x
        assert final_smoothed_loss(trace) == pytest.approx(expected, rel=1e-12)


class TestCompare:
    def test_single_candidate_rank_one(self):
        table = compare({("p1", "adam_salsa"): 0.5, ("p2", "adam_salsa"): 0.1})
        assert table.average_rank == {"adam_salsa": 1.0}

    def test_log_average_is_geometric_mean(self):
        table = compare({("p1", "a"): 0.01, ("p2", "a"): 1.0})
        assert table.log_mean["a"] == pytest.approx(0.1, rel=1e-12)

    def test_ranks_match_hand_computed_table(self):
        losses = {("p1", "a"): 0.1, ("p1", "b"): 0.2, ("p1", "c"): 0.3,
                  ("p2", "a"): 0.9, ("p2", "b"): 0.2, ("p2", "c"): 0.5}
        table = compare(losses)
        # p1 ranks: a=1 b=2 c=3 ; p2 ranks: a=3 b=1 c=2
        assert table.average_rank == {"a": 2.0, "b": 1.5, "c": 2.5}

    def test_ties_averaged(self):
        table = compare({("p1", "a"): 0.2, ("p1", "b"): 0.2})
        assert table.average_rank == {"a": 1.5, "b": 1.5}
        # ties share the mean of their places (scipy's method="average"):
        # p1 b=1 d=2 a=c=3.5 ; p2 d=1 a=b=c=3 ; p3 c=d=1.5 a=b=3.5
        table = self._table({"p1": [0.3, 0.1, 0.3, 0.2],
                             "p2": [0.5, 0.5, 0.5, 0.1],
                             "p3": [0.4, 0.4, 0.2, 0.2]}, "abcd")
        assert table.average_rank == {"a": 10 / 3, "b": 2.5, "c": 8 / 3,
                                      "d": 1.5}

    def test_rows_and_columns_keep_first_seen_key_order(self):
        table = compare({("p2", "b"): 0.1, ("p1", "a"): 0.2,
                         ("p2", "a"): 0.3, ("p1", "b"): 0.4})
        assert table.problems == ["p2", "p1"]
        assert table.optimizers == ["b", "a"]
        assert table.to_csv().splitlines()[:3] == [
            "problem,b,a", "p2,0.1,0.3", "p1,0.4,0.2"]

    def test_rank_invariant_under_monotone_transform(self):
        base = {("p1", "a"): 0.1, ("p1", "b"): 0.7, ("p2", "a"): 0.4,
                ("p2", "b"): 0.2}
        t1 = compare(base)
        t2 = compare({cell: np.exp(v) for cell, v in base.items()})
        assert t1.average_rank == t2.average_rank

    def test_nonpositive_loss_falls_back_with_warning(self):
        with pytest.warns(UserWarning):
            table = compare({("p1", "a"): -0.5, ("p2", "a"): 1.0})
        assert table.log_mean["a"] == table.arithmetic_mean["a"] == \
            pytest.approx(0.25)

    def test_average_rank_matches_scipy_rankdata(self):
        # scipy is a test extra: the package ranks in numpy alone
        stats = pytest.importorskip("scipy.stats")
        pool = st.sampled_from([-math.inf, -0.0, 0.0, 0.25, 0.5, 1.0,
                                math.inf, math.nan])

        @settings(max_examples=300, derandomize=True, database=None,
                  deadline=None)
        @given(st.integers(1, 8).flatmap(lambda n: st.lists(
            st.lists(pool, min_size=n, max_size=n), min_size=1, max_size=4)))
        def check(rows):
            optimizers = [f"o{i}" for i in range(len(rows[0]))]
            table = self._table({f"p{j}": row for j, row in enumerate(rows)},
                                optimizers)
            expected = np.mean([stats.rankdata(
                np.where(np.isnan(row), np.inf, row), method="average")
                for row in rows], axis=0)
            assert [table.average_rank[o].hex() for o in optimizers] == \
                [float(r).hex() for r in expected]

        check()

    def _table(self, rows, optimizers):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return compare({(p, o): v for p, row in rows.items()
                            for o, v in zip(optimizers, row)})

    def test_tied_table_bytes(self):
        # recorded with scipy's rankdata, before compare ranked in numpy
        table = self._table({"p1": [0.3, 0.1, 0.3, 0.2],
                             "p2": [0.5, 0.5, 0.5, 0.1],
                             "p3": [0.4, 0.4, 0.2, 0.2]}, "abcd")
        assert table.to_csv() == (
            "problem,a,b,c,d\n"
            "p1,0.3,0.1,0.3,0.2\n"
            "p2,0.5,0.5,0.5,0.1\n"
            "p3,0.4,0.4,0.2,0.2\n"
            "arithmetic_mean,0.4000000000000001,0.3333333333333333,"
            "0.3333333333333333,0.16666666666666666\n"
            "log_mean,0.3914867641168864,0.2714417616594907,"
            "0.31072325059538586,0.15874010519681997\n"
            "average_rank,3.3333333333333335,2.5,2.6666666666666665,1.5\n")
        assert table.to_json() == (
            '{"arithmetic_mean":{"a":0.4000000000000001,'
            '"b":0.3333333333333333,"c":0.3333333333333333,'
            '"d":0.16666666666666666},'
            '"average_rank":{"a":3.3333333333333335,"b":2.5,'
            '"c":2.6666666666666665,"d":1.5},'
            '"log_mean":{"a":0.3914867641168864,"b":0.2714417616594907,'
            '"c":0.31072325059538586,"d":0.15874010519681997},'
            '"losses":{"p1":{"a":0.3,"b":0.1,"c":0.3,"d":0.2},'
            '"p2":{"a":0.5,"b":0.5,"c":0.5,"d":0.1},'
            '"p3":{"a":0.4,"b":0.4,"c":0.2,"d":0.2}},'
            '"optimizers":["a","b","c","d"],"problems":["p1","p2","p3"]}\n')

    def test_nan_table_bytes(self):
        # recorded with scipy's rankdata, before compare ranked in numpy
        table = self._table({"p1": [0.25, math.nan, 0.125],
                             "p2": [math.nan, math.nan, 0.5],
                             "p3": [0.75, 0.75, 0.375]}, "abc")
        assert table.to_csv() == (
            "problem,a,b,c\n"
            "p1,0.25,nan,0.125\n"
            "p2,nan,nan,0.5\n"
            "p3,0.75,0.75,0.375\n"
            "arithmetic_mean,nan,nan,0.3333333333333333\n"
            "log_mean,nan,nan,0.28617856063833297\n"
            "average_rank,2.3333333333333335,2.6666666666666665,1.0\n")
        assert table.to_json() == (
            '{"arithmetic_mean":{"a":NaN,"b":NaN,"c":0.3333333333333333},'
            '"average_rank":{"a":2.3333333333333335,"b":2.6666666666666665,'
            '"c":1.0},'
            '"log_mean":{"a":NaN,"b":NaN,"c":0.28617856063833297},'
            '"losses":{"p1":{"a":0.25,"b":NaN,"c":0.125},'
            '"p2":{"a":NaN,"b":NaN,"c":0.5},'
            '"p3":{"a":0.75,"b":0.75,"c":0.375}},'
            '"optimizers":["a","b","c"],"problems":["p1","p2","p3"]}\n')

    def test_nan_loss_ranks_last_with_warning(self):
        with pytest.warns(UserWarning, match="NaN loss on p1"):
            table = compare({("p1", "a"): 0.1, ("p2", "a"): 0.3,
                             ("p1", "b"): math.nan, ("p2", "b"): 0.2})
        assert table.average_rank == {"a": 1.5, "b": 1.5}
        assert table.arithmetic_mean["a"] == pytest.approx(0.2)
        assert math.isnan(table.arithmetic_mean["b"])
        assert math.isnan(table.log_mean["b"])

    def test_incomplete_problem_coverage_rejected(self):
        with pytest.raises(ConfigError):
            compare({("p1", "a"): 0.1, ("p2", "b"): 0.2})

    def test_csv_has_summary_rows(self):
        table = compare({("p1", "a"): 0.1, ("p1", "b"): 0.2})
        lines = table.to_csv().splitlines()
        assert lines[0] == "problem,a,b"
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["p1", "arithmetic_mean", "log_mean", "average_rank"]


class TestCompareOptimizers:
    def test_cell_is_mean_of_per_seed_final_losses(self):
        spec = {"kind": "logreg", "n": 200, "dim": 5, "seed": 1,
                "label_noise": 0.1}
        prob = build_problem(spec)
        table = compare_optimizers([spec], [{"kind": "sgd_sls"}], [0, 1],
                                   epochs=2, batch_size=16)
        losses = [final_smoothed_loss(run_single(
            prob, {"kind": "sgd_sls"}, seed, epochs=2, batch_size=16).trace)
            for seed in (0, 1)]
        assert table.losses == {(prob.name, "sgd_sls"):
                                float(np.mean(losses))}
        assert table.not_ok == []

    def test_diverged_run_reports_nan_ranked_last(self):
        # the diverged cell used to be its finite smoothed loss,
        # 5.13410625000935e+305, ranked by that number; not_ok names the
        # run, so neither numpy nor compare warns of it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = compare_optimizers(
                [{"kind": "quadratic", "dim": 4, "cond": 10, "seed": 0}],
                [{"kind": "sgd", "lr": 5}, {"kind": "sgd_sls"}], [0], 200, 1)
        assert caught == []
        assert math.isnan(table.losses[("quadratic_d4_c10", "sgd")])
        assert math.isfinite(table.losses[("quadratic_d4_c10", "sgd_sls")])
        assert table.average_rank == {"sgd": 2.0, "sgd_sls": 1.0}
        assert table.not_ok == ["quadratic_d4_c10 sgd seed 0: diverged at 92"]
        assert "diverged" not in table.to_csv() + table.to_json()


class TestScalingExperiment:
    def test_full_batch_deterministic_ratio_exactly_one(self):
        # dataset of one: every batch size clamps to the same full batch
        prob = make_quadratic(dim=3, cond=5, seed=2)
        report = batch_scaling_experiment(prob, batch_sizes=(4, 8, 16, 32),
                                          seeds=(0, 1), epochs=60)
        for _, _, ratio in report.ratios:
            assert ratio == 1.0

    @pytest.mark.parametrize("argument", ["batch_sizes", "seeds"])
    def test_repeated_value_rejected(self, argument):
        # (8, 8) with seeds (0, 0) averaged every run into mean_mid_eta but
        # kept one h_series key
        prob = make_logreg(n=64, dim=3, seed=1, label_noise=0.1)
        args = {"batch_sizes": (8, 16), "seeds": (0,), argument: (8, 8)}
        with pytest.raises(ConfigError, match=rf"{argument} must not repeat "
                                              rf"a value, got \(8, 8\)"):
            batch_scaling_experiment(prob, epochs=1, **args)

    def test_an_empty_optimizer_is_rejected(self):
        # {} used to run the default adam_salsa: mean_mid_eta {1: 1.0014}
        with pytest.raises(ConfigError) as raised:
            batch_scaling_experiment(make_quadratic(3), optimizer={},
                                     batch_sizes=(1,), seeds=(0,), epochs=2)
        assert str(raised.value) == \
            "optimizer kind must be a string, got None"

    def test_reports_h_and_s_series(self):
        prob = make_logreg(n=256, dim=5, seed=1, label_noise=0.1)
        report = batch_scaling_experiment(prob, batch_sizes=(8, 16),
                                          seeds=(0,), epochs=1)
        assert (8, 0) in report.h_series and (16, 0) in report.s_series
        assert len(report.h_series[(8, 0)]) > 0
        assert report.not_ok == []

    def test_diverged_run_reports_nan(self):
        # the diverged run's mid-window mean used to be reported, 5.0
        with np.errstate(all="ignore"):
            report = batch_scaling_experiment(
                make_quadratic(4, cond=10, seed=0),
                optimizer={"kind": "sgd", "lr": 5}, batch_sizes=(1,),
                seeds=(0,), epochs=200)
        assert math.isnan(report.mean_mid_eta[1])
        assert report.not_ok == [
            "quadratic_d4_c10 sgd batch 1 seed 0: diverged at 92"]
        assert report.to_csv() == "batch_size,mean_mid_eta,ratio_vs_prev\n" \
            "1,nan,\n"
        assert "not_ok" not in report.to_json()


class TestFrequencyAblation:
    def test_fractions_and_pairing(self):
        prob = make_logreg(n=512, dim=8, seed=0, label_noise=0.1)
        report = frequency_ablation(prob, seeds=(0, 1, 2), epochs=2,
                                    batch_size=16)
        assert report.searched_fraction_off == 1.0
        assert report.searched_fraction_on < 0.5
        assert len(report.final_loss_on) == 3
        assert report.not_ok == []

    def test_an_empty_optimizer_is_rejected(self):
        # {} used to run the default adam_salsa, as None does
        with pytest.raises(ConfigError) as raised:
            frequency_ablation(make_quadratic(3), seeds=(0,), optimizer={},
                               epochs=2, batch_size=1)
        assert str(raised.value) == \
            "frequency_ablation optimizer kind must be a string, got None"

    def test_diverged_run_reports_nan(self):
        # the controller-on run used to report its final loss,
        # 5.6739593735347886e+268, and its searched fraction, 0.1538...
        with np.errstate(all="ignore"):
            report = frequency_ablation(
                make_matrix_factorization(8, 6, 2, seed=3), seeds=(0,),
                optimizer={"kind": "sgd_sls", "eta_init": 8}, epochs=2,
                batch_size=1)
        assert math.isnan(report.final_loss_on[0])
        assert math.isnan(report.searched_fraction_on)
        assert math.isnan(report.mean_delta)
        assert report.not_ok == [
            "matfac_8x6_r2 sgd_sls controller on seed 0: diverged at 25"]
        # the controller-off run is ok and keeps its numbers
        off = run_single(make_matrix_factorization(8, 6, 2, seed=3),
                         {"kind": "sgd_sls", "eta_init": 8}, 0, 2, 1)
        assert off.status == "ok"
        assert report.final_loss_off == [final_smoothed_loss(off.trace)]
        assert report.searched_fraction_off == 1.0
        assert "not_ok" not in report.to_json()
        assert "diverged" not in report.to_csv()


class TestEmit:
    def test_round_trip_json(self, tmp_path):
        trace = run_experiment(**quick_config(epochs=3))[0].trace
        path = tmp_path / "t.json"
        emit(trace, "json", str(path))
        back = TrainingTrace.from_json(path.read_text())
        assert back.records == trace.records

    def test_golden_csv_bytes(self, tmp_path):
        trace = TrainingTrace(metadata={})
        trace.append(StepRecord(0, 1.5, 0.25, 4.0, True, 1, 7))
        trace.append(StepRecord(1, 0.75, 0.125, 1.0, True, 0, 8))
        trace.append(StepRecord(2, 0.75, 0.0625, 1e-20, False, 0, 9))
        path = tmp_path / "t.csv"
        emit(trace, "csv", str(path))
        golden = (
            "k,eta,loss,grad_norm_sq,searched,backtracks,batch_seed\n"
            "0,1.5,0.25,4.0,true,1,7\n"
            "1,0.75,0.125,1.0,true,0,8\n"
            "2,0.75,0.0625,1e-20,false,0,9\n"
        )
        assert path.read_text() == golden

    def test_bad_format_rejected(self, tmp_path):
        trace = TrainingTrace(metadata={})
        with pytest.raises(ConfigError):
            emit(trace, "xml", str(tmp_path / "t.xml"))

    def test_io_error_includes_path(self):
        trace = TrainingTrace(metadata={})
        with pytest.raises(OSError, match="no/such/dir"):
            emit(trace, "csv", "/no/such/dir/t.csv")


class TestGiveUp:
    """One give-up rule for every search: the step takes eta_min,
    unevaluated, and commits nothing."""

    @pytest.mark.parametrize("kind", ["sgd_salsa", "adam_salsa"])
    def test_step_size_underflow_is_a_give_up(self, kind):
        # the third candidate is 0.0, which the smoothed test reads as
        # 0 >= 0; it used to be accepted and the step raised
        records = run_single(make_quadratic(dim=4, cond=10.0, seed=0),
                             {"kind": kind, "delta": 1e-200,
                              "max_backtracks": 3}, 0, 5, 1).trace.records
        assert records[0].gave_up and records[0].eta == 1e-10
        assert all(r.eta > 0 for r in records)

    @pytest.mark.parametrize("kind", LINE_SEARCH_KINDS)
    def test_one_give_up_does_not_collapse_the_run(self, kind):
        # a blown-up first step gives up once; the run used to take the
        # unverified last candidate there (loss 2.54 -> 8576), and a SaLSa
        # run then committed its decrease into h and gave up on every step
        prob = make_quadratic(dim=4, cond=10, seed=0)
        records = run_single(prob, {"kind": kind, "eta_init": 1e6,
                                    "eta_max": 1e6}, 0, 30, 1).trace.records
        gave_up = [r for r in records if r.gave_up]
        assert len(gave_up) <= 1
        assert all(r.eta == SlsConfig.eta_min for r in gave_up)
        assert records[-1].loss < records[0].loss

    @pytest.mark.parametrize("kind", ["sgd_salsa", "adam_salsa"])
    def test_give_up_leaves_later_steps_checkable(self, kind):
        # the first search gives up; it used to commit the failed trial's
        # decrease into h, every later search gave up too, and replay
        # reported ok with 0 of the 20 searched steps checked
        prob = make_quadratic(dim=4, cond=10, seed=0)
        opt = {"kind": kind, "max_backtracks": 1, "eta_init": 2.0,
               "eta_max": 2.0, "delta": 0.5}
        trace = run_single(prob, opt, seed=0, epochs=20, batch_size=1).trace
        report = replay_verify(prob, opt, 0, 20, 1, trace)
        assert report.ok
        assert report.n_searched == 20 and report.n_checked >= 18


MATFAC = make_matrix_factorization(8, 6, 2, seed=3)


class TestDivergence:
    """A run stops on its first record with a non-finite loss or gradient
    norm and reports ``diverged at k``; each of these runs used to go on
    to the end, with NaN and inf losses and no status."""

    def test_fixed_sgd_stops_where_the_gradient_norm_overflows(self):
        # 200 records at the parent, 107 of them with non-finite losses
        with np.errstate(all="ignore"):
            result = run_single(make_quadratic(dim=4, cond=10, seed=0),
                                {"kind": "sgd", "lr": 5}, 0, 200, 1)
        records = result.trace.records
        assert result.status == "diverged at 92" and len(records) == 93
        assert math.isinf(records[-1].grad_norm_sq)
        assert all(math.isfinite(r.loss) and math.isfinite(r.grad_norm_sq)
                   for r in records[:-1])

    @pytest.mark.parametrize("frequency_controller, status", [
        (True, "diverged at 25"), (False, "ok")], ids=["on", "off"])
    def test_frequency_skipped_steps_stop_at_the_first_overflow(
            self, frequency_controller, status):
        # skipped steps reapply the last step size unchecked: 65 of 96
        # losses were non-finite with the controller on, and replay
        # reported ok after checking 4 of the 69 searched steps
        opt = {"kind": "sgd_sls", "eta_init": 8}
        with np.errstate(all="ignore"):
            result = run_single(MATFAC, opt, 0, 2, 1, frequency_controller)
            report = replay_verify(MATFAC, opt, 0, 2, 1, result.trace,
                                   frequency_controller)
        assert result.status == status
        assert report.n_steps == len(result.trace.records) == \
            (26 if frequency_controller else 96)
        assert report.ok

    def test_a_give_up_run_with_the_controller_stops(self):
        # 25 non-finite losses with the controller on
        opt = {"kind": "sgd_sls", "eta_init": 1e6, "eta_max": 1e6,
               "max_backtracks": 2}
        with np.errstate(all="ignore"):
            result = run_single(MATFAC, opt, 5, 2, 1,
                                frequency_controller=True)
        assert result.status == "diverged at 68"
        assert len(result.trace.records) == 69

    def test_a_zero_epoch_run_with_a_non_finite_start_diverged(self):
        # its one record is the start point's, at which the loss
        # overflows
        with np.errstate(all="ignore"):
            result = run_single(make_quadratic(dim=4, cond=1e308, seed=0),
                                {"kind": "sgd_sls"}, 0, 0, 1)
        assert result.status == "diverged at 0"

    def test_non_finite_final_parameters_diverged(self):
        # the last step overflows the parameters; no record holds a
        # loss at them
        with np.errstate(all="ignore"):
            result = run_single(make_quadratic(dim=2, cond=1, seed=0),
                                {"kind": "sgd", "lr": 1e308}, 0, 1, 1)
        assert math.isfinite(result.trace.records[-1].loss)
        assert not np.isfinite(result.final_params).all()
        assert result.status == "diverged at 0"


class TestEntryPointArguments:
    """``run_single`` and ``replay_verify`` check every argument before
    the first evaluation; a wrong type used to end in AttributeError."""

    @staticmethod
    def counting(problem):
        calls = []

        def loss_grad(w, indices, grad=True):
            calls.append(grad)
            return problem.loss_grad(w, indices, grad=grad)
        return dataclasses.replace(problem, loss_grad=loss_grad), calls

    def test_run_single_rejects_a_problem_that_is_not_one(self):
        with pytest.raises(ConfigError,
                           match="problem must be a Problem, got 'x'"):
            run_single("x", {"kind": "sgd_sls"}, 0, 1, 1)

    @pytest.mark.parametrize("args, message", [
        (({"kind": "sgd_sls"}, "0", 1, 1), "seed must be an integer"),
        (("sgd_sls", 0, 1, 1), "optimizer must be an object"),
        (({"kind": "sgd_sls"}, 0, -1, 1), "epochs must be >= 0"),
        (({"kind": "sgd_sls"}, 0, 1, 0), "batch_size must be >= 1"),
    ], ids=["seed", "optimizer", "epochs", "batch_size"])
    def test_run_single_checks_before_any_evaluation(self, args, message):
        problem, calls = self.counting(make_quadratic(3, 10.0))
        with pytest.raises(ConfigError, match=message):
            run_single(problem, *args)
        assert calls == []

    def test_replay_verify_rejects_a_trace_before_the_rerun(self):
        # it used to rerun the whole configuration first
        problem, calls = self.counting(make_quadratic(3, 10.0))
        with pytest.raises(ConfigError,
                           match="trace must be a TrainingTrace, got 'x'"):
            replay_verify(problem, {"kind": "sgd_sls"}, 0, 5, 1, trace="x")
        assert calls == []

    def test_the_checks_keep_the_int_and_float_rules(self):
        # numpy integers run as the ints they hold
        problem = make_quadratic(3, 10.0)
        a = run_single(problem, {"kind": "sgd_sls"}, np.int64(2),
                       np.int64(3), np.int64(1))
        b = run_single(problem, {"kind": "sgd_sls"}, 2, 3, 1)
        assert a.trace.to_csv() == b.trace.to_csv()


class TestReplayVerify:
    @pytest.mark.parametrize("kind", ["sgd_sls", "adam_sls", "sgd_salsa",
                                      "adam_salsa"])
    def test_clean_runs_verify(self, kind):
        prob = make_logreg(n=300, dim=6, seed=2, label_noise=0.1)
        opt = {"kind": kind}
        result = run_single(prob, opt, seed=1, epochs=4, batch_size=16)
        report = replay_verify(prob, opt, 1, 4, 16, result.trace)
        assert report.ok
        assert report.n_checked > 0
        assert report.n_searched >= report.n_checked

    @pytest.mark.parametrize("kind, problem, epochs, batch_size", [
        ("sgd_sls", make_quadratic(dim=6, cond=50, seed=7), 60, 1),
        ("adam_salsa", make_logreg(n=300, dim=6, seed=2, label_noise=0.1),
         4, 16),
    ], ids=["sgd_sls", "adam_salsa"])
    def test_verifier_follows_changed_defaults(self, kind, problem, epochs,
                                               batch_size, monkeypatch):
        # a default-config run and its replay must read the same defaults,
        # so moving a dataclass default cannot desynchronise the verifier
        @dataclass(frozen=True)
        class LaxSls(SlsConfig):
            c: float = 0.01
            max_backtracks: int = 3

        @dataclass(frozen=True)
        class LaxSalsa(SalsaConfig):
            c: float = 0.02
            beta3: float = 0.9
            max_backtracks: int = 3

        @dataclass
        class FastAdam(AdamState):
            beta1: float = 0.5
            beta2: float = 0.9
            epsilon: float = 1e-3

        monkeypatch.setattr(harness, "SlsConfig", LaxSls)
        monkeypatch.setattr(harness, "SalsaConfig", LaxSalsa)
        monkeypatch.setattr(harness, "AdamState", FastAdam)
        opt = {"kind": kind}
        result = run_single(problem, opt, seed=1, epochs=epochs,
                            batch_size=batch_size)
        report = replay_verify(problem, opt, 1, epochs, batch_size,
                               result.trace)
        assert report.ok, report.violations[:3]
        assert report.n_checked > 0

    def test_tampered_trace_detected(self):
        prob = make_quadratic(dim=2, cond=5, seed=1)
        opt = {"kind": "sgd_sls"}
        result = run_single(prob, opt, seed=0, epochs=10, batch_size=1)
        result.trace.records[3].eta *= 2.0
        with pytest.raises(ValueError, match="replay"):
            replay_verify(prob, opt, 0, 10, 1, result.trace)

    def test_nan_losses_replay(self):
        # NaN != NaN, so a diverged run must still match its own rerun; a
        # run stops on its first NaN record, which here row 3 gives
        def loss_grad(w, indices, grad=True):
            loss = float("nan") if 3 in indices else 0.5 * float(w @ w)
            return EvalResult(loss, w.copy() if grad else None)

        prob = Problem(name="nan_row", dim=2, dataset_size=4,
                       loss_grad=loss_grad,
                       init_params=lambda seed: np.ones(2))
        opt = {"kind": "sgd_sls", "max_backtracks": 2}
        result = run_single(prob, opt, seed=0, epochs=3, batch_size=1)
        last = result.trace.records[-1]
        assert math.isnan(last.loss) and last.gave_up
        assert result.status == f"diverged at {last.k}"
        # as read back from a file, with NaN objects of its own
        loaded = TrainingTrace.from_csv(result.trace.to_csv())
        assert loaded.records != result.trace.records
        report = replay_verify(prob, opt, 0, 3, 1, loaded)
        assert report.n_steps == last.k + 1
        assert report.ok

    def test_nondecrease_mode_replays_exactly(self):
        # the extra shrink re-commits h at the applied eta, so the replayed
        # recurrence must still match and the criterion must still hold
        prob = make_quadratic(dim=6, cond=50, seed=7)
        opt = {"kind": "sgd_salsa", "enforce_nondecrease": True}
        result = run_single(prob, opt, seed=0, epochs=500, batch_size=1)
        report = replay_verify(prob, opt, 0, 500, 1, result.trace)
        assert report.ok
        assert report.n_checked > 0

    def test_giveup_steps_keep_replay_in_sync(self):
        # a tiny backtrack budget forces give-ups; those steps commit
        # nothing, so later accepted steps must verify cleanly
        prob = make_logreg(n=400, dim=12, seed=4, label_noise=0.2)
        opt = {"kind": "adam_salsa", "max_backtracks": 2}
        result = run_single(prob, opt, seed=1, epochs=6, batch_size=8)
        giveups = sum(r.searched and r.backtracks >= 2
                      for r in result.trace.records)
        assert giveups > 0, "configuration produced no give-ups"
        report = replay_verify(prob, opt, 1, 6, 8, result.trace)
        assert report.ok
        assert report.n_checked < report.n_searched

    @pytest.mark.parametrize("kind, n_checked", [("sgd_sls", 19),
                                                 ("adam_sls", 18)])
    def test_step_accepted_on_its_last_candidate_is_checked(self, kind,
                                                           n_checked):
        # with one shrink allowed, a step accepted on its second candidate
        # has as many backtracks as a give-up; replay used to skip it
        prob = make_quadratic(dim=4, cond=10, seed=0)
        opt = {"kind": kind, "max_backtracks": 1, "eta_init": 2.0,
               "eta_max": 2.0, "delta": 0.5}
        trace = run_single(prob, opt, seed=0, epochs=20, batch_size=1).trace
        report = replay_verify(prob, opt, 0, 20, 1, trace)
        assert report.ok
        assert (report.n_searched, report.n_checked) == (20, n_checked)
        records = trace.records
        assert n_checked == 20 - sum(r.gave_up for r in records)
        assert any(r.backtracks == 1 and not r.gave_up for r in records)

    @pytest.mark.parametrize("kind, n_violations", [
        ("sgd_sls", 5), ("adam_sls", 4), ("sgd_salsa", 5), ("adam_salsa", 5)])
    def test_a_broken_acceptance_test_is_flagged(self, kind, n_violations,
                                                 monkeypatch):
        # the engine accepts every finite candidate, so from eta 8 every
        # step overshoots the bowl; replay's own criterion must say so
        monkeypatch.setattr(line_search, "armijo_holds", lambda *a: True)
        monkeypatch.setattr(salsa, "salsa_criterion", lambda *a: True)
        prob = make_quadratic(dim=4, cond=10, seed=0)
        opt = {"kind": kind, "eta_init": 8.0}
        trace = run_single(prob, opt, seed=3, epochs=5, batch_size=1).trace
        report = replay_verify(prob, opt, 3, 5, 1, trace)
        assert not report.ok
        assert report.max_violation > 0
        assert (report.n_searched, len(report.violations)) == \
            (5, n_violations)

    def test_frequency_gated_run_verifies(self):
        prob = make_logreg(n=300, dim=6, seed=2, label_noise=0.1)
        opt = {"kind": "adam_salsa"}
        result = run_single(prob, opt, seed=0, epochs=4, batch_size=16,
                            frequency_controller=True)
        report = replay_verify(prob, opt, 0, 4, 16, result.trace,
                               frequency_controller=True)
        assert report.ok
        n_searched = sum(r.searched for r in result.trace.records)
        assert n_searched < len(result.trace.records)

    def test_fixed_rate_kind_rejected_before_any_evaluation(self):
        prob = make_logreg(n=200, dim=4)
        calls = []

        def counting_loss_grad(*args, **kwargs):
            calls.append(1)
            return prob.loss_grad(*args, **kwargs)

        counted = dataclasses.replace(prob, loss_grad=counting_loss_grad)
        # the cosine schedule's warmup needs the run's step count
        for opt in ({"kind": "sgd", "lr": 0.1},
                    {"kind": "adam", "lr": 0.1, "schedule": "cosine_warmup"}):
            trace = run_single(prob, opt, seed=0, epochs=3,
                               batch_size=8).trace
            with pytest.raises(ConfigError, match="line-search runs"):
                replay_verify(counted, opt, 0, 3, 8, trace)
        assert calls == []

    def test_optimizer_without_kind_rejected_before_any_evaluation(self):
        prob = make_logreg(n=200, dim=4)
        trace = run_single(prob, {"kind": "sgd_sls"}, seed=0, epochs=3,
                           batch_size=8).trace
        calls = []

        def counting_loss_grad(*args, **kwargs):
            calls.append(1)
            return prob.loss_grad(*args, **kwargs)

        counted = dataclasses.replace(prob, loss_grad=counting_loss_grad)
        # the dict is read by the runner, which names the missing kind
        with pytest.raises(ConfigError,
                           match="optimizer kind must be a string, got None"):
            replay_verify(counted, {"c": 0.5}, 0, 3, 8, trace)
        assert calls == []

    @pytest.mark.parametrize("optimizer, epochs, message", [
        ({"kind": "sgd_sls"}, -1, "epochs must be >= 0, got -1"),
        ("sgd_sls", 1, "optimizer must be an object, got 'sgd_sls'"),
    ], ids=["negative-epochs", "string-optimizer"])
    def test_run_settings_are_checked(self, optimizer, epochs, message):
        # a run of -1 epochs recorded no step, and its empty trace replayed
        # as ok
        prob = make_quadratic(dim=4, cond=10)
        with pytest.raises(ConfigError, match=re.escape(message)):
            replay_verify(prob, optimizer, 0, epochs, 1,
                          TrainingTrace(metadata={}))

    def test_rerun_must_make_one_gradient_evaluation_per_step(
            self, monkeypatch):
        # replay takes each step's base point from the gradient evaluations
        # of its rerun, so a step that makes two cannot be replayed
        prob = make_quadratic(dim=3, cond=10, seed=1)
        opt = {"kind": "sgd_sls"}
        trace = run_single(prob, opt, seed=0, epochs=5, batch_size=1).trace
        step = harness.sls_step

        def twice_evaluated_step(batch, w, state, cfg):
            batch.eval(w)
            return step(batch, w, state, cfg)

        monkeypatch.setattr(harness, "sls_step", twice_evaluated_step)
        with pytest.raises(ValueError, match="the rerun made 10 gradient "
                                             "evaluations for 5 steps"):
            replay_verify(prob, opt, 0, 5, 1, trace)

    def test_zero_epoch_run_replays_its_one_record(self):
        prob = make_logreg(n=200, dim=4)
        opt = {"kind": "adam_salsa"}
        trace = run_single(prob, opt, seed=0, epochs=0, batch_size=8).trace
        points = []

        def recording_loss_grad(w, indices, grad=True):
            points.append(w)
            return prob.loss_grad(w, indices, grad=grad)

        counted = dataclasses.replace(prob, loss_grad=recording_loss_grad)
        report = replay_verify(counted, opt, 0, 0, 8, trace)
        assert (report.n_steps, report.n_searched, report.n_checked,
                report.violations, report.ok) == (1, 0, 0, [], True)
        # the rerun's base evaluation and the replay's, both at the start
        assert len(points) == 2
        assert all(p.tobytes() == prob.init_params(0).tobytes()
                   for p in points)
