"""Experiment runner: determinism, summaries, comparison, replay checks."""

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salsa_opt import harness, line_search, salsa
from salsa_opt.baselines import ScheduleConfig, schedule_lr
from salsa_opt.core import TrainingTrace, StepRecord
from salsa_opt.directions import AdamState
from salsa_opt.harness import (ConfigError, ExperimentConfig, RunSummary,
                               batch_scaling_experiment, build_problem,
                               compare, emit, final_smoothed_loss,
                               frequency_ablation, replay_verify,
                               run_experiment, run_single, summarize)
from salsa_opt.line_search import SlsConfig
from salsa_opt.problems import make_logreg, make_matrix_factorization, \
    make_mlp, make_quadratic
from salsa_opt.salsa import SalsaConfig

QUAD_SPEC = {"kind": "quadratic", "dim": 3, "cond": 10, "seed": 1}


def quick_config(**overrides):
    base = dict(problem=QUAD_SPEC,
                optimizer={"kind": "sgd_sls"}, seeds=[0], epochs=30,
                batch_size=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(seeds=[])

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.0), ("epochs", True), ("epochs", "3"),
        ("batch_size", 1.5), ("batch_size", False),
        ("seeds", [0, 1.0]), ("seeds", [True]), ("seeds", 0),
    ])
    def test_non_integer_run_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            quick_config(**{field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_bool_frequency_controller_rejected(self, value):
        # the string "false" is truthy: it used to switch the controller on
        with pytest.raises(ConfigError, match="frequency_controller must be "
                                              "true or false"):
            quick_config(frequency_controller=value)

    def test_run_single_rejects_nondecrease_with_zero_eta_min(self):
        with pytest.raises(ConfigError, match="enforce_nondecrease needs "
                                              "eta_min > 0"):
            run_single(make_mlp(96, 4, 6, seed=1),
                       {"kind": "adam_salsa", "enforce_nondecrease": True,
                        "eta_min": 0.0}, 3, 3, 8)

    def test_run_single_rejects_an_unknown_kind(self):
        with pytest.raises(ConfigError, match="optimizer kind must be one of"):
            run_single(make_quadratic(dim=2, cond=5, seed=1),
                       {"kind": "nope", "lr": 0.1}, seed=0, epochs=1,
                       batch_size=1)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(optimizer={"kind": "lbfgs"})

    def test_unknown_problem_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_problem({"kind": "rosenbrock"})

    def test_unknown_problem_param_rejected(self):
        with pytest.raises(ConfigError):
            build_problem({"kind": "quadratic", "dim": 2, "curvature": 3})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({
                "problem": QUAD_SPEC, "optimizer": {"kind": "sgd_sls"},
                "seeds": [0], "epochs": 1, "batch_size": 1, "turbo": True})

    def test_unknown_optimizer_param_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(quick_config(
                optimizer={"kind": "sgd_sls", "momentum": 0.9}, epochs=1))

    @pytest.mark.parametrize("optimizer", [
        {"kind": "sgd", "lr": 0.1}, {"kind": "sgd_sls"}, {"kind": "sgd_salsa"}
    ], ids=lambda o: o["kind"])
    def test_adam_keys_rejected_on_sgd_kinds(self, optimizer):
        with pytest.raises(ConfigError, match=r"unknown \w+ optimizer config "
                                              r"fields: \['beta1'\]"):
            run_experiment(quick_config(
                optimizer={**optimizer, "beta1": 0.5}, epochs=1))

    def test_lr_with_peak_lr_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            run_experiment(quick_config(
                optimizer={"kind": "sgd", "lr": 0.1, "peak_lr": 0.01},
                epochs=1))


class TestRunExperiment:
    def test_zero_epochs_gives_initial_record_only(self):
        traces = run_experiment(quick_config(epochs=0))
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
        a = run_experiment(quick_config(seeds=[3, 4]))
        b = run_experiment(quick_config(seeds=[3, 4]))
        for ta, tb in zip(a, b):
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

        traces = [run_experiment(quick_config(problem=p, optimizer=o,
                                              epochs=1))[0]
                  for p, o in ((problem, optimizer),
                               (as_floats(problem), as_floats(optimizer)))]
        assert traces[0].to_csv() == traces[1].to_csv()
        assert traces[0].to_json() == traces[1].to_json()
        assert list(traces[0].metadata["config"]["optimizer"]) == \
            list(optimizer)

    def test_one_trace_per_seed_in_order(self):
        traces = run_experiment(quick_config(seeds=[5, 1, 9], epochs=2))
        assert [t.metadata["seed"] for t in traces] == [5, 1, 9]

    def test_quadratic_salsa_adam_reaches_tiny_loss(self):
        cfg = quick_config(problem={"kind": "quadratic", "dim": 5, "cond": 10,
                                    "seed": 11},
                           optimizer={"kind": "adam_salsa"},
                           seeds=[0, 1, 2, 3, 4], epochs=3500)
        for trace in run_experiment(cfg):
            assert final_smoothed_loss(trace) <= 1e-6

    def test_all_optimizer_kinds_run(self):
        for kind in ("sgd", "adam", "sgd_sls", "adam_sls", "sgd_salsa",
                     "adam_salsa"):
            opt = {"kind": kind, "lr": 0.05} if kind in ("sgd", "adam") \
                else {"kind": kind}
            traces = run_experiment(quick_config(optimizer=opt, epochs=5))
            assert len(traces[0].records) == 5

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
    def _summary(self, opt, prob, loss):
        return RunSummary(optimizer=opt, problem=prob, final_losses=[loss],
                          mean_final_loss=loss)

    def test_single_candidate_rank_one(self):
        table = compare([self._summary("adam_salsa", "p1", 0.5),
                         self._summary("adam_salsa", "p2", 0.1)])
        assert table.average_rank == {"adam_salsa": 1.0}

    def test_log_average_is_geometric_mean(self):
        table = compare([self._summary("a", "p1", 0.01),
                         self._summary("a", "p2", 1.0)])
        assert table.log_mean["a"] == pytest.approx(0.1, rel=1e-12)

    def test_ranks_match_hand_computed_table(self):
        losses = {("a", "p1"): 0.1, ("b", "p1"): 0.2, ("c", "p1"): 0.3,
                  ("a", "p2"): 0.9, ("b", "p2"): 0.2, ("c", "p2"): 0.5}
        table = compare([self._summary(o, p, v)
                         for (o, p), v in losses.items()])
        # p1 ranks: a=1 b=2 c=3 ; p2 ranks: a=3 b=1 c=2
        assert table.average_rank == {"a": 2.0, "b": 1.5, "c": 2.5}

    def test_ties_averaged(self):
        table = compare([self._summary("a", "p1", 0.2),
                         self._summary("b", "p1", 0.2)])
        assert table.average_rank == {"a": 1.5, "b": 1.5}
        # ties share the mean of their places (scipy's method="average"):
        # p1 b=1 d=2 a=c=3.5 ; p2 d=1 a=b=c=3 ; p3 c=d=1.5 a=b=3.5
        rows = {"p1": [0.3, 0.1, 0.3, 0.2], "p2": [0.5, 0.5, 0.5, 0.1],
                "p3": [0.4, 0.4, 0.2, 0.2]}
        table = compare([self._summary(o, p, v) for p, row in rows.items()
                         for o, v in zip("abcd", row)])
        assert table.average_rank == {"a": 10 / 3, "b": 2.5, "c": 8 / 3,
                                      "d": 1.5}

    def test_repeated_pair_rejected(self):
        # two summaries of one (problem, optimizer) pair would share one
        # cell, and the later one would silently replace the earlier
        with pytest.raises(ConfigError, match=r"repeat \(p1, a\)"):
            compare([self._summary("a", "p1", 0.1),
                     self._summary("b", "p1", 0.2),
                     self._summary("a", "p1", 0.3)])

    def test_rank_invariant_under_monotone_transform(self):
        base = {("a", "p1"): 0.1, ("b", "p1"): 0.7, ("a", "p2"): 0.4,
                ("b", "p2"): 0.2}
        t1 = compare([self._summary(o, p, v) for (o, p), v in base.items()])
        t2 = compare([self._summary(o, p, np.exp(v))
                      for (o, p), v in base.items()])
        assert t1.average_rank == t2.average_rank

    def test_nonpositive_loss_falls_back_with_warning(self):
        with pytest.warns(UserWarning):
            table = compare([self._summary("a", "p1", -0.5),
                             self._summary("a", "p2", 1.0)])
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = compare([
                    self._summary(o, f"p{j}", v) for j, row in enumerate(rows)
                    for o, v in zip(optimizers, row)])
            expected = np.mean([stats.rankdata(
                np.where(np.isnan(row), np.inf, row), method="average")
                for row in rows], axis=0)
            assert [table.average_rank[o].hex() for o in optimizers] == \
                [float(r).hex() for r in expected]

        check()

    def _table(self, rows, optimizers):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return compare([self._summary(o, p, v) for p, row in rows.items()
                            for o, v in zip(optimizers, row)])

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
            table = compare([self._summary("a", "p1", 0.1),
                             self._summary("a", "p2", 0.3),
                             self._summary("b", "p1", math.nan),
                             self._summary("b", "p2", 0.2)])
        assert table.average_rank == {"a": 1.5, "b": 1.5}
        assert table.arithmetic_mean["a"] == pytest.approx(0.2)
        assert math.isnan(table.arithmetic_mean["b"])
        assert math.isnan(table.log_mean["b"])

    def test_incomplete_problem_coverage_rejected(self):
        with pytest.raises(ConfigError):
            compare([self._summary("a", "p1", 0.1),
                     self._summary("b", "p2", 0.2)])

    def test_csv_has_summary_rows(self):
        table = compare([self._summary("a", "p1", 0.1),
                         self._summary("b", "p1", 0.2)])
        lines = table.to_csv().splitlines()
        assert lines[0] == "problem,a,b"
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["p1", "arithmetic_mean", "log_mean", "average_rank"]


class TestSummarize:
    def test_final_losses_one_per_seed(self):
        prob = make_logreg(n=200, dim=5, seed=1, label_noise=0.1)
        results = [run_single(prob, {"kind": "sgd_sls"}, seed, epochs=2,
                              batch_size=16) for seed in (0, 1)]
        summary = summarize("sgd_sls", prob.name,
                            [r.trace for r in results])
        assert len(summary.final_losses) == 2


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

    def test_reports_h_and_s_series(self):
        prob = make_logreg(n=256, dim=5, seed=1, label_noise=0.1)
        report = batch_scaling_experiment(prob, batch_sizes=(8, 16),
                                          seeds=(0,), epochs=1)
        assert (8, 0) in report.h_series and (16, 0) in report.s_series
        assert len(report.h_series[(8, 0)]) > 0


class TestFrequencyAblation:
    def test_fractions_and_pairing(self):
        prob = make_logreg(n=512, dim=8, seed=0, label_noise=0.1)
        report = frequency_ablation(prob, seeds=(0, 1, 2), epochs=2,
                                    batch_size=16)
        assert report.searched_fraction_off == 1.0
        assert report.searched_fraction_on < 0.5
        assert len(report.final_loss_on) == 3


class TestEmit:
    def test_round_trip_json(self, tmp_path):
        trace = run_experiment(quick_config(epochs=3))[0]
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
        # NaN != NaN, so a diverged run must still match its own rerun
        prob = make_matrix_factorization(8, 6, 2, seed=3)
        opt = {"kind": "sgd_sls", "eta_init": 8.0}
        with np.errstate(all="ignore"):
            result = run_single(prob, opt, seed=5, epochs=2, batch_size=1,
                                frequency_controller=True)
            assert sum(math.isnan(r.loss) for r in result.trace.records) == 40
            report = replay_verify(prob, opt, 5, 2, 1, result.trace,
                                   frequency_controller=True)
        assert report.n_steps == 96
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
        # a tiny backtrack budget forces give-ups; those steps still commit
        # the smoothed state, so later accepted steps must verify cleanly
        prob = make_logreg(n=400, dim=12, seed=4, label_noise=0.2)
        opt = {"kind": "adam_salsa", "max_backtracks": 2}
        result = run_single(prob, opt, seed=1, epochs=6, batch_size=8)
        giveups = sum(r.searched and r.backtracks >= 2
                      for r in result.trace.records)
        assert giveups > 0, "configuration produced no give-ups"
        report = replay_verify(prob, opt, 1, 6, 8, result.trace)
        assert report.ok
        assert report.n_checked < report.n_searched

    @pytest.mark.parametrize("kind, n_checked", [("sgd_sls", 18),
                                                 ("adam_sls", 19)])
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
