"""The config boundary: every field of every config checked from its
annotation and declared range, over the whole command-line surface.

A config value of the wrong type ends as exit 2 with one ``error:`` line
and no output; a value of the right type either runs, with the output the
value gives once stored as its field's type (an int given for a float runs
as that float), or ends the same way as a wrong type when out of range.

It also holds the key rule's cases: an unknown or missing key in each
command's config, each problem kind's dict and each optimizer kind's dict,
each named before any evaluation. Two guards keep the check whole: every
config field and every parameter of a checked function (the factories,
the studies, the run entry points and check-grad's ``gradient_errors``)
has an annotation the check knows, and no ``except`` clause in the
package names ``TypeError``.
"""

import ast
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import re
import tempfile
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salsa_opt import harness
from salsa_opt.baselines import ScheduleConfig
from salsa_opt.cli import gradient_errors, main
from salsa_opt.core import ConfigError, check_value
from salsa_opt.directions import AdamState
from salsa_opt.harness import (LINE_SEARCH_KINDS, OPTIMIZER_KINDS,
                               batch_scaling_experiment, compare_optimizers,
                               frequency_ablation, replay_verify,
                               run_experiment, run_single)
from salsa_opt.line_search import SlsConfig
from salsa_opt.problems import (BatchSampler, make_logreg,
                                make_matrix_factorization, make_mlp,
                                make_quadratic, problem_from_csv)
from salsa_opt.salsa import SalsaConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "salsa_opt"
CONFIG_CLASSES = [SlsConfig, SalsaConfig, ScheduleConfig, AdamState,
                  BatchSampler, harness._Optimizer]
FACTORIES = {"quadratic": make_quadratic, "logreg": make_logreg,
             "mlp": make_mlp,
             "matrix_factorization": make_matrix_factorization,
             "csv": problem_from_csv}
CHECKED_FUNCTIONS = [*FACTORIES.values(), compare_optimizers,
                     batch_scaling_experiment, frequency_ablation,
                     run_experiment, run_single, replay_verify,
                     gradient_errors]


def _declared(owner):
    """(name, annotation) of each init field of a config class or each
    parameter of a checked function."""
    hints = typing.get_type_hints(owner)
    if isinstance(owner, type):
        return [(f.name, hints[f.name]) for f in dataclasses.fields(owner)
                if f.init]
    return [(name, hints[name])
            for name in inspect.signature(owner).parameters]


class TestCoverageGuard:
    """A field or parameter whose annotation the checks have no rule for
    fails here instead of slipping through unchecked."""

    @pytest.mark.parametrize("owner, name, hint", [
        (owner, name, hint)
        for owner in CONFIG_CLASSES + CHECKED_FUNCTIONS
        for name, hint in _declared(owner)
    ], ids=lambda v: getattr(v, "__name__", None) if callable(v) else
        v if isinstance(v, str) else None)
    def test_every_annotation_has_a_rule(self, owner, name, hint):
        # an object() is a value of no known type: a known rule rejects
        # it with ConfigError, an unknown annotation raises TypeError
        with pytest.raises(ConfigError, match=name):
            check_value(name, object(), hint)

    @pytest.mark.parametrize("hint", [typing.Any, list, tuple, dict | int,
                                      typing.Callable, "float"])
    def test_an_unknown_annotation_is_a_type_error(self, hint):
        with pytest.raises(TypeError):
            check_value("x", 1, hint)

    @pytest.mark.parametrize("fn", CHECKED_FUNCTIONS,
                             ids=lambda fn: fn.__name__)
    def test_checked_functions_take_every_parameter_by_name(self, fn):
        # checked_arguments calls fn(**checked): the same call as by
        # position only when no parameter is positional-only or variadic
        kinds = {p.kind for p in inspect.signature(fn).parameters.values()}
        assert kinds <= {inspect.Parameter.POSITIONAL_OR_KEYWORD,
                         inspect.Parameter.KEYWORD_ONLY}

    def test_ranges_sit_on_declared_fields_only(self):
        for cls in CONFIG_CLASSES:
            for f in dataclasses.fields(cls):
                if "range" in f.metadata:
                    assert f.init, (cls, f.name)


class TestCheckValue:
    def test_an_int_for_a_float_is_stored_as_a_float(self):
        value = check_value("lr", 1, float)
        assert value == 1.0 and type(value) is float
        assert type(SlsConfig(eta_max=5).eta_max) is float

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        cfg = SlsConfig(c=np.float32(0.25), max_backtracks=np.int64(3))
        assert type(cfg.c) is float and cfg.c == 0.25
        assert type(cfg.max_backtracks) is int and cfg.max_backtracks == 3

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       10 ** 400])
    def test_a_float_is_finite(self, value):
        with pytest.raises(ConfigError, match="must be a real number"):
            check_value("eta_max", value, float)

    def test_infinite_eta_max_is_rejected(self):
        # no field opts in to infinity: an unclamped search is not offered
        with pytest.raises(ConfigError,
                           match="eta_max must be a real number, got inf"):
            SlsConfig(eta_max=math.inf)

    @pytest.mark.parametrize("bounds, inside, outside", [
        ("(0,1)", [0.5], [0, 1]),
        ("[0,1)", [0, 0.5], [1, -0.1]),
        ("[0,0.5)", [0, 0.25], [0.5]),
        ("> 0", [1e-300], [0]),
        (">= 1", [1, 2], [0.99]),
    ])
    def test_declared_ranges(self, bounds, inside, outside):
        for value in inside:
            assert check_value("x", value, float, bounds) == value
        for value in outside:
            with pytest.raises(ConfigError,
                               match=f"x must be .*{re.escape(bounds)}"):
                check_value("x", value, float, bounds)

    def test_a_list_is_checked_element_by_element(self):
        assert check_value("s", (1, np.int64(2)), list[int]) == [1, 2]
        assert check_value("s", [1, 2], tuple[int, ...], ">= 1") == (1, 2)
        with pytest.raises(ConfigError, match="s must be integers, got 1.5"):
            check_value("s", [1, 1.5], list[int])
        with pytest.raises(ConfigError, match="s must be >= 1, got 0"):
            check_value("s", [1, 0], list[int], ">= 1")
        with pytest.raises(ConfigError,
                           match="s must be a non-empty list of integers"):
            check_value("s", [], list[int])

    def test_choices(self):
        assert check_value("shape", "flat", str, ("flat",)) == "flat"
        with pytest.raises(ConfigError, match=r"shape must be one of "
                                              r"\('flat',\), got 'x'"):
            check_value("shape", "x", str, ("flat",))


class TestFrozenConfigs:
    """A built search or schedule config cannot drift from its checks."""

    CHANGES = [(SlsConfig(), "c", 5.0, "c must be in (0,1), got 5.0"),
               (SalsaConfig(), "beta3", 1.0, "beta3 must be in (0,1)"),
               (ScheduleConfig(peak_lr=0.1, total_steps=10), "warm_frac",
                1.0, "warm_frac must be in [0,1)")]

    @pytest.mark.parametrize("config, name, value, message", CHANGES,
                             ids=["SlsConfig", "SalsaConfig",
                                  "ScheduleConfig"])
    def test_assignment_raises_and_replace_checks_again(self, config, name,
                                                        value, message):
        # an assignment used to skip the range check
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(config, **{name: value})

    def test_replace_forms_the_per_step_constants_again(self):
        # assigning b used to leave regrowth at 2**(1/500)
        cfg = dataclasses.replace(SlsConfig(), b=1.0, grad_eps=0.5)
        assert (cfg.regrowth, cfg.grad_eps_sq) == (2.0, 0.25)


class TestRegressions:
    def test_int_and_float_lr_write_the_same_trace_bytes(self):
        problem = make_quadratic(4, 10)
        as_int = run_single(problem, {"kind": "sgd", "lr": 1}, 0, 3, 1)
        as_float = run_single(problem, {"kind": "sgd", "lr": 1.0}, 0, 3, 1)
        assert as_int.trace.to_csv() == as_float.trace.to_csv()
        assert as_int.trace.to_csv().splitlines()[1].split(",")[1] == "1.0"

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_freq_ablation_needs_a_line_search_kind(self, kind):
        problem = make_logreg(64, 3, seed=0, label_noise=0.1)
        with pytest.raises(ConfigError, match=re.escape(
                str(LINE_SEARCH_KINDS))):
            frequency_ablation(problem, seeds=(0,), epochs=1,
                               optimizer={"kind": kind, "lr": 0.1})

    def test_run_single_still_takes_the_controller_flag_on_fixed_kinds(self):
        problem = make_quadratic(2, 5, seed=1)
        on = run_single(problem, {"kind": "sgd", "lr": 0.1}, 0, 3, 1,
                        frequency_controller=True)
        off = run_single(problem, {"kind": "sgd", "lr": 0.1}, 0, 3, 1)
        assert on.trace.to_csv() == off.trace.to_csv()


# ---------------------------------------------------------------------------
# the whole command-line surface

CSV_DATA = "".join(f"{i % 7 - 3},{(i * 3) % 5 - 2},{i % 2}\n"
                   for i in range(30))
PROBLEM_BASES = {
    "quadratic": {"kind": "quadratic", "dim": 3, "cond": 10.0, "seed": 1},
    "logreg": {"kind": "logreg", "n": 40, "dim": 3, "seed": 0,
               "label_noise": 0.1},
    "mlp": {"kind": "mlp", "n": 40, "in_dim": 3, "hidden": 4, "seed": 0,
            "separation": 2.0},
    "matrix_factorization": {"kind": "matrix_factorization", "rows": 5,
                             "cols": 4, "rank": 2, "seed": 0, "noise": 0.01},
    "csv": {"kind": "csv", "path": "data.csv", "model": "logreg",
            "hidden": 3, "seed": 0},
}
QUAD = PROBLEM_BASES["quadratic"]
LOGREG = PROBLEM_BASES["logreg"]
RUN = {"problem": QUAD, "optimizer": {"kind": "sgd_sls"}, "seeds": [0],
       "epochs": 2, "batch_size": 8}
COMPARE = {"problems": [QUAD], "optimizers": [{"kind": "sgd_sls"}],
           "seeds": [0], "epochs": 2, "batch_size": 1}
SCALING = {"problem": LOGREG, "optimizer": {"kind": "adam_salsa"},
           "batch_sizes": [8, 16], "seeds": [0], "epochs": 1}
ABLATION = {"problem": LOGREG, "optimizer": {"kind": "sgd_salsa"},
            "seeds": [0], "epochs": 1, "batch_size": 16}
CHECK_GRAD = {"problems": [QUAD], "points": 1, "h": 1e-5}
# the arguments after --config
ARGS = {"run": ["--out", "out.csv"], "compare": ["--out", "out.csv"],
        "scaling": ["--out", "out.csv"], "freq-ablation": ["--out", "out.csv"],
        "check-grad": []}
BASES = {"run": RUN, "compare": COMPARE, "scaling": SCALING,
         "freq-ablation": ABLATION, "check-grad": CHECK_GRAD}


def invoke(command: str, config) -> tuple[int, str, str, dict]:
    """Run one command in-process in a fresh directory; returns the exit
    code, stdout, stderr and the files it wrote, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_text(CSV_DATA)
        (tmp / "cfg.json").write_text(json.dumps(config))
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--config", "cfg.json",
                             *ARGS[command]])
        finally:
            os.chdir(cwd)
        written = {p.name: p.read_bytes() for p in tmp.iterdir()
                   if p.name not in ("cfg.json", "data.csv")}
    return code, out.getvalue(), err.getvalue(), written


def _kind(hint) -> tuple[str, bool]:
    """The kind of value an annotation takes, and whether None is one."""
    args = typing.get_args(hint)
    if type(None) in args:
        return _kind(next(a for a in args if a is not type(None)))[0], True
    if typing.get_origin(hint) in (list, tuple):
        return f"list_{args[0].__name__}", False
    return hint.__name__, False


def _sites():
    """(command, base config, path to the field, kind, None allowed) for
    every field a config file can set."""
    out = []

    def add(command, base, path, hint):
        out.append((command, base, path, *_kind(hint)))

    for name, hint in _declared(run_experiment):
        add("run", RUN, (name,), hint)
    for kind in OPTIMIZER_KINDS:
        fixed = kind not in LINE_SEARCH_KINDS
        opt = {"kind": kind, **({"lr": 0.1} if fixed else {})}
        base = {**RUN, "optimizer": opt}
        add("run", base, ("optimizer", "kind"), str)
        if fixed:
            names = {"lr": float, "warm_frac": float, "schedule": str}
        else:
            cls = SalsaConfig if kind.endswith("salsa") else SlsConfig
            names = dict(_declared(cls))
        if kind.startswith("adam"):
            names.update({k: v for k, v in _declared(AdamState)
                          if k in ("beta1", "beta2", "epsilon")})
        for name, hint in names.items():
            add("run", base, ("optimizer", name), hint)
    for kind, factory in FACTORIES.items():
        base = {**RUN, "problem": PROBLEM_BASES[kind]}
        add("run", base, ("problem", "kind"), str)
        for name, hint in _declared(factory):
            add("run", base, ("problem", name), hint)
    for command, study in (("compare", compare_optimizers),
                           ("scaling", batch_scaling_experiment),
                           ("freq-ablation", frequency_ablation)):
        for name, hint in _declared(study):
            add(command, BASES[command], (name,),
                dict if name == "problem" else hint)
    for name, hint in _declared(gradient_errors):
        add("check-grad", CHECK_GRAD, (name,), hint)
    return out


SITES = _sites()
WRONG = ["x", True, False, None, math.nan, math.inf, -math.inf, -1, -0.5, 0,
         [1], {}]


def _with(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _has_kind(kind: str, value) -> bool:
    """Whether ``value`` is a value of the kind, its range aside."""
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "float":
        return isinstance(value, (int, float)) and math.isfinite(value)
    scalar = {"int": int, "str": str, "dict": dict, "bool": bool}
    if kind in scalar:
        return isinstance(value, scalar[kind])
    item = scalar[kind.removeprefix("list_")]
    return isinstance(value, list) and bool(value) and all(
        isinstance(x, item) and not isinstance(x, bool) for x in value)


def assert_rejected(code, out, err, written):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == "" and written == {}


def test_the_sites_cover_every_command_and_kind():
    commands = {site[0] for site in SITES}
    assert commands == set(ARGS)
    assert {site[3] for site in SITES} >= {
        "int", "float", "bool", "str", "dict", "list_int", "list_dict"}
    assert len(SITES) > 90


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(site=st.sampled_from(SITES), value=st.sampled_from(WRONG))
def test_a_wrong_value_is_rejected_or_runs_as_its_field_type(site, value):
    command, base, path, kind, optional = site
    result = invoke(command, _with(base, path, value))
    if not (_has_kind(kind, value) or optional and value is None):
        assert_rejected(*result)
    elif result[0] != 0:
        assert_rejected(*result)
    elif kind == "float" and type(value) is int:
        # the same value as the float the field stores
        twin = invoke(command, _with(base, path, float(value)))
        assert twin[0] == 0
        assert (result[1], result[3]) == (twin[1], twin[3])


_SGD = {"kind": "sgd", "lr": 0.1}
# Wrong values that, before every field was checked from its declaration,
# ended in a traceback or ran silently; each now ends as exit 2 with this
# message.
FUZZ_CASES = {
    # ended in a traceback
    "sgd-string-lr": ("run", {**RUN, "optimizer": {"kind": "sgd",
                                                   "lr": "0.1"}},
                      "lr must be a real number, got '0.1'"),
    "sgd-list-peak_lr": ("run", {**RUN, "optimizer": {"kind": "sgd",
                                                      "peak_lr": [0.1]}},
                         "peak_lr must be a real number, got [0.1]"),
    "sgd-string-warm_frac": ("run", {**RUN, "optimizer": {**_SGD,
                                                          "warm_frac": "0.1"}},
                             "warm_frac must be a real number, got '0.1'"),
    "mlp-zero-hidden": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["mlp"], "hidden": 0}),
        "bad mlp parameters: hidden must be >= 1, got 0"),
    "list-problem": ("run", {**RUN, "problem": [QUAD]},
                     f"problem must be an object, got {[QUAD]!r}"),
    "string-optimizer": ("run", {**RUN, "optimizer": "kind"},
                         "optimizer must be an object, got 'kind'"),
    "logreg-label_noise-0.7": ("run", _with(RUN, ("problem",), {
        **LOGREG, "label_noise": 0.7}),
        "bad logreg parameters: label_noise must be in [0,0.5), got 0.7"),
    "logreg-bool-label_noise": ("run", _with(RUN, ("problem",), {
        **LOGREG, "label_noise": True}),
        "bad logreg parameters: label_noise must be a real number, got True"),
    "quadratic-cond-0.5": ("run", _with(RUN, ("problem", "cond"), 0.5),
                           "bad quadratic parameters: cond must be >= 1, "
                           "got 0.5"),
    "matfac-rank-above-rows": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["matrix_factorization"], "rank": 5}),
        "bad matrix_factorization parameters: rank must be <= "
        "min(rows, cols)"),
    "csv-unknown-model": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["csv"], "model": "svm"}),
        "bad csv parameters: model must be one of ('logreg', 'mlp'), "
        "got 'svm'"),
    "compare-object-problems": ("compare", {**COMPARE, "problems": QUAD},
                                f"problems must be a non-empty list of "
                                f"objects, got {QUAD!r}"),
    "compare-object-optimizers": ("compare", {
        **COMPARE, "optimizers": {"kind": "sgd_sls"}},
        "optimizers must be a non-empty list of objects, "
        "got {'kind': 'sgd_sls'}"),
    "check-grad-string-problems": ("check-grad", {"problems": "quadratic"},
                                   "problems must be a non-empty list of "
                                   "objects, got 'quadratic'"),
    "scaling-integer-batch_sizes": ("scaling", {**SCALING, "batch_sizes": 4},
                                    "batch_sizes must be a non-empty list "
                                    "of integers, got 4"),
    "scaling-zero-batch_size": ("scaling", {**SCALING, "batch_sizes": [0]},
                                "batch_sizes must be >= 1, got 0"),
    "scaling-fractional-epochs": ("scaling", {**SCALING, "epochs": 1.5},
                                  "epochs must be an integer, got 1.5"),
    "scaling-integer-seeds": ("scaling", {**SCALING, "seeds": 3},
                              "seeds must be a non-empty list of integers, "
                              "got 3"),
    "scaling-string-optimizer": ("scaling", {**SCALING,
                                             "optimizer": "adam_salsa"},
                                 "optimizer must be an object, "
                                 "got 'adam_salsa'"),
    "ablation-string-epochs": ("freq-ablation", {**ABLATION, "epochs": "2"},
                               "epochs must be an integer, got '2'"),
    "ablation-zero-batch_size": ("freq-ablation", {**ABLATION,
                                                   "batch_size": 0},
                                 "batch_size must be >= 1, got 0"),
    # ran silently
    "quadratic-fractional-seed": ("run", _with(RUN, ("problem", "seed"), 1.5),
                                  "bad quadratic parameters: seed must be an "
                                  "integer, got 1.5"),
    "quadratic-string-seed": ("run", _with(RUN, ("problem", "seed"), "1"),
                              "bad quadratic parameters: seed must be an "
                              "integer, got '1'"),
    "quadratic-zero-dim": ("run", _with(RUN, ("problem", "dim"), 0),
                           "bad quadratic parameters: dim must be >= 1, "
                           "got 0"),
    "quadratic-infinite-cond": ("run", _with(RUN, ("problem", "cond"),
                                             math.inf),
                                "bad quadratic parameters: cond must be a "
                                "real number, got inf"),
    "mlp-bool-hidden": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["mlp"], "hidden": True}),
        "bad mlp parameters: hidden must be an integer, got True"),
    "mlp-nan-separation": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["mlp"], "separation": math.nan}),
        "bad mlp parameters: separation must be a real number, got nan"),
    "matfac-zero-rank": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["matrix_factorization"], "rank": 0}),
        "bad matrix_factorization parameters: rank must be >= 1, got 0"),
    "matfac-negative-noise": ("run", _with(RUN, ("problem",), {
        **PROBLEM_BASES["matrix_factorization"], "noise": -1}),
        "bad matrix_factorization parameters: noise must be >= 0, got -1"),
    "sgd-nan-lr": ("run", {**RUN, "optimizer": {"kind": "sgd",
                                                "lr": math.nan}},
                   "lr must be a real number, got nan"),
    "sgd-bool-lr": ("run", {**RUN, "optimizer": {"kind": "sgd", "lr": True}},
                    "lr must be a real number, got True"),
    "sgd-infinite-peak_lr": ("run", {**RUN, "optimizer": {
        "kind": "sgd", "peak_lr": math.inf}},
        "peak_lr must be a real number, got inf"),
    "sls-infinite-eta_max": ("run", {**RUN, "optimizer": {
        "kind": "sgd_sls", "eta_max": math.inf}},
        "eta_max must be a real number, got inf"),
    "sls-infinite-b": ("run", {**RUN, "optimizer": {"kind": "sgd_sls",
                                                    "b": math.inf}},
                       "b must be a real number, got inf"),
    "sls-negative-grad_eps": ("run", {**RUN, "optimizer": {
        "kind": "sgd_sls", "grad_eps": -1}},
        "grad_eps must be >= 0, got -1"),
    "adam-infinite-epsilon": ("run", {**RUN, "optimizer": {
        "kind": "adam_sls", "epsilon": math.inf}},
        "epsilon must be a real number, got inf"),
    "adam-bool-beta1": ("run", {**RUN, "optimizer": {"kind": "adam_salsa",
                                                     "beta1": False}},
                        "beta1 must be a real number, got False"),
    "ablation-fixed-rate-kind": ("freq-ablation", {**ABLATION,
                                                   "optimizer": _SGD},
                                 f"frequency_ablation optimizer kind must be "
                                 f"one of {LINE_SEARCH_KINDS}, got 'sgd'"),
    "compare-empty-seeds": ("compare", {**COMPARE, "seeds": []},
                            "seeds must be a non-empty list of integers, "
                            "got []"),
    "ablation-empty-seeds": ("freq-ablation", {**ABLATION, "seeds": []},
                             "seeds must be a non-empty list of integers, "
                             "got []"),
    "scaling-empty-batch_sizes": ("scaling", {**SCALING, "batch_sizes": []},
                                  "batch_sizes must be a non-empty list of "
                                  "integers, got []"),
    "check-grad-empty-problems": ("check-grad", {"problems": []},
                                  "problems must be a non-empty list of "
                                  "objects, got []"),
    "run-repeated-seeds": ("run", {**RUN, "seeds": [3, 3]},
                           "seeds must not repeat a value, got [3, 3]"),
    "scaling-repeated-batch_sizes": ("scaling", {**SCALING,
                                                 "batch_sizes": [8, 8]},
                                     "batch_sizes must not repeat a value, "
                                     "got [8, 8]"),
}


@pytest.mark.parametrize("command, config, message", FUZZ_CASES.values(),
                         ids=FUZZ_CASES.keys())
def test_fuzz_case_is_a_config_error(command, config, message):
    result = invoke(command, config)
    assert_rejected(*result)
    assert result[2] == f"error: {message}\n"


def test_a_run_config_that_is_a_list_is_a_config_error():
    code, out, err, written = invoke("run", [RUN])
    assert_rejected(code, out, err, written)
    assert err == f"error: config cfg.json must be an object, got {[RUN]!r}\n"


@pytest.fixture
def loss_grad_calls(monkeypatch):
    """The batches every problem built from a config evaluates, in order;
    each factory keeps its signature (``functools.wraps``), which the key
    check reads."""
    calls = []

    def counted(factory):
        @functools.wraps(factory)
        def build(**params):
            problem = factory(**params)
            loss_grad = problem.loss_grad

            def counting(*args, **kwargs):
                calls.append(args[1])
                return loss_grad(*args, **kwargs)
            return dataclasses.replace(problem, loss_grad=counting)
        return build

    for kind, factory in FACTORIES.items():
        monkeypatch.setitem(harness._PROBLEM_BUILDERS, kind, counted(factory))
    return calls


@pytest.mark.parametrize("later, message", [
    ({"kind": "sgd_sls", "c": "x"}, "c must be a real number, got 'x'"),
    ({"kind": "adam_salsa", "beta2": 1}, "beta2 must be in [0,1), got 1"),
    ({"kind": "sgd", "lr": 0.1, "schedule": "x"},
     "schedule must be one of ('cosine_warmup', 'flat'), got 'x'"),
], ids=["search", "adam", "schedule"])
def test_compare_checks_every_optimizer_before_the_first_pair_runs(
        loss_grad_calls, later, message):
    config = {"problems": [{"kind": "logreg", "n": 2000, "dim": 20}],
              "optimizers": [{"kind": "sgd_sls"}, later],
              "seeds": [0, 1, 2], "epochs": 3, "batch_size": 8}
    code, out, err, written = invoke("compare", config)
    assert_rejected(code, out, err, written)
    assert err == f"error: {message}\n"
    assert loss_grad_calls == []


def test_scaling_checks_every_batch_size_before_the_first_run(
        loss_grad_calls):
    # batch 64 leaves one step, too few for a warmup: the batch-4 runs
    # used to run before that was found
    config = {**SCALING, "batch_sizes": [4, 64], "optimizer": {
        "kind": "adam", "lr": 0.01, "schedule": "cosine_warmup"}}
    code, out, err, written = invoke("scaling", config)
    assert_rejected(code, out, err, written)
    assert err == "error: cosine_warmup needs at least one warmup step: " \
        "round(warm_frac * total_steps) >= 1\n"
    assert loss_grad_calls == []


@pytest.mark.parametrize("optimizer, message", [
    ({"kind": "sgd", "lr": "0.1"}, "lr must be a real number, got '0.1'"),
    ({"kind": "adam", "peak_lr": "0.1"},
     "peak_lr must be a real number, got '0.1'"),
    ({"kind": "sgd", "lr": 0.1, "schedule": ["flat"]},
     "schedule must be a string, got ['flat']"),
    ({"kind": "adam", "lr": 0.1, "schedule": "cosine"},
     "schedule must be one of ('cosine_warmup', 'flat'), got 'cosine'"),
    ({"kind": "adam", "warm_frac": 0.2}, "adam needs 'lr' or 'peak_lr'"),
], ids=["lr", "peak_lr", "schedule-type", "schedule-choice", "no-rate"])
def test_a_fixed_rate_error_names_the_key_the_config_used(optimizer,
                                                          message):
    result = invoke("run", {**RUN, "optimizer": optimizer})
    assert_rejected(*result)
    assert result[2] == f"error: {message}\n"


# ---------------------------------------------------------------------------
# one rule for config keys: each dict is checked against what its callee
# takes, before the callee runs


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


# a key another kind takes: Adam's on an sgd kind, SaLSa's on a fixed or
# SLS kind, a fixed rate's on a search kind
FOREIGN_KEYS = {"sgd": "beta1", "adam": "beta3", "sgd_sls": "beta3",
                "adam_sls": "beta3", "sgd_salsa": "beta1",
                "adam_salsa": "lr"}


def _with_foreign_key(kind):
    """An optimizer dict of ``kind`` that also holds its foreign key."""
    rate = {} if kind in LINE_SEARCH_KINDS else {"lr": 0.1}
    return {"kind": kind, **rate, FOREIGN_KEYS[kind]: 0.5}


REQUIRED_PROBLEM_KEYS = {"quadratic": "dim", "logreg": "n", "mlp": "hidden",
                         "matrix_factorization": "rank", "csv": "path"}
KEY_CASES = {
    **{f"{command}-unknown": (command, {**base, "junk": 1},
                              f"unknown {command} config fields: ['junk']")
       for command, base in BASES.items()},
    # every problem is built before the first one is evaluated
    "check-grad-later-problem-unknown": (
        "check-grad", {"problems": [QUAD, {**QUAD, "junk": 1}]},
        "unknown quadratic problem config fields: ['junk']"),
    "run-missing": ("run", _without(RUN, "seeds"),
                    "missing run config fields: ['seeds']"),
    "compare-missing": ("compare", _without(COMPARE, "seeds"),
                        "missing compare config fields: ['seeds']"),
    "compare-missing-list": ("compare", _without(COMPARE, "problems"),
                             "missing compare config fields: ['problems']"),
    "scaling-missing": ("scaling", _without(SCALING, "problem"),
                        "missing scaling config fields: ['problem']"),
    "freq-ablation-missing": ("freq-ablation", _without(ABLATION, "problem"),
                              "missing freq-ablation config fields: "
                              "['problem']"),
    **{f"{kind}-problem-unknown": (
        "run", {**RUN, "problem": {**base, "junk": 1}},
        f"unknown {kind} problem config fields: ['junk']")
       for kind, base in PROBLEM_BASES.items()},
    # csv's model key used to be written kind_inner
    "csv-problem-kind_inner": (
        "run", {**RUN, "problem": {**PROBLEM_BASES["csv"],
                                   "kind_inner": "logreg"}},
        "unknown csv problem config fields: ['kind_inner']"),
    **{f"{kind}-problem-missing": (
        "run", {**RUN, "problem": _without(base, key)},
        f"missing {kind} problem config fields: ['{key}']")
       for kind, base in PROBLEM_BASES.items()
       for key in (REQUIRED_PROBLEM_KEYS[kind],)},
    **{f"{kind}-optimizer-unknown": (
        "run", {**RUN, "optimizer": _with_foreign_key(kind)},
        f"unknown {kind} optimizer config fields: ['{key}']")
       for kind, key in FOREIGN_KEYS.items()},
}


@pytest.mark.parametrize("command, config, message", KEY_CASES.values(),
                         ids=KEY_CASES.keys())
def test_a_wrong_key_is_named_before_any_evaluation(loss_grad_calls, command,
                                                    config, message):
    result = invoke(command, config)
    assert_rejected(*result)
    assert result[2] == f"error: {message}\n"
    assert loss_grad_calls == []


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_run_single_names_a_foreign_optimizer_key(loss_grad_calls, kind):
    problem = harness.build_problem(QUAD)
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown {kind} optimizer config fields: "
            f"['{FOREIGN_KEYS[kind]}']")):
        run_single(problem, _with_foreign_key(kind), seed=0, epochs=1,
                   batch_size=1)
    assert loss_grad_calls == []


def test_a_type_error_in_a_factory_stays_a_type_error(monkeypatch):
    @functools.wraps(make_quadratic)
    def broken(**params):
        return len(None)

    monkeypatch.setitem(harness._PROBLEM_BUILDERS, "quadratic", broken)
    with pytest.raises(TypeError, match="NoneType"):
        harness.build_problem(QUAD)


def test_a_type_error_in_adam_state_stays_a_type_error(monkeypatch):
    class BrokenAdam(AdamState):
        def __post_init__(self):
            len(None)

    monkeypatch.setattr(harness, "AdamState", BrokenAdam)
    with pytest.raises(TypeError, match="NoneType"):
        run_single(make_quadratic(2), {"kind": "adam_sls"}, seed=0, epochs=1,
                   batch_size=1)


def test_no_except_clause_in_the_package_names_type_error():
    # a TypeError is a bug in the program; a wrong key is caught by name
    # before the call, so none is turned into a config error
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) \
                    else [node.type]
                if any(isinstance(n, ast.Name) and n.id == "TypeError"
                       for n in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
