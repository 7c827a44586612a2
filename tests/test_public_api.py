"""The package's public API is its ``__all__``, and everything in the repo
that imports from the top level stays inside it.

The demos and the benchmark are read with ``ast`` and not run, so a name
dropped from the top level fails here rather than in a demo run or a
benchmark that reports nothing.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import salsa_opt

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # problems
    "Problem", "EvalResult", "make_quadratic", "make_logreg", "make_mlp",
    "make_matrix_factorization", "problem_from_csv", "build_problem",
    "finite_diff_grad",
    # configs
    "SlsConfig", "SalsaConfig", "ScheduleConfig", "ConfigError",
    # runs
    "run_single", "RunResult", "run_experiment", "final_smoothed_loss",
    "TrainingTrace", "StepRecord", "emit",
    # studies
    "compare", "ComparisonTable",
    "compare_optimizers", "batch_scaling_experiment", "ScalingReport",
    "frequency_ablation", "AblationReport", "FrequencyController",
    # verifier
    "replay_verify", "ReplayReport",
    # a hand-written search loop
    "sls_step", "SlsState", "BatchSampler", "batch_for_step",
}

DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH_IMPORTERS = [ROOT / "perfbench" / "run.py",
                   ROOT / "perfbench" / "workloads.py",
                   ROOT / "perfbench" / "tests" / "test_tracer.py"]


def top_level_imports(path: Path) -> set[str]:
    """Every name a file imports with ``from salsa_opt import ...``,
    wherever the import statement sits."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "salsa_opt"
            and node.level == 0 for alias in node.names}


def is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"salsa_opt.{name}") is not None


def test_all_is_the_pinned_set():
    assert len(salsa_opt.__all__) == len(PUBLIC) == 34
    assert set(salsa_opt.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from salsa_opt import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_only_public_names(demo):
    names = top_level_imports(demo)
    assert names, f"{demo.name} imports nothing from salsa_opt"
    assert names <= PUBLIC, sorted(names - PUBLIC)


@pytest.mark.parametrize("path", BENCH_IMPORTERS,
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_benchmark_imports_public_names_or_submodules(path):
    names = top_level_imports(path)
    assert names, f"{path.name} imports nothing from salsa_opt"
    stray = {name for name in names
             if name not in PUBLIC and not is_submodule(name)}
    assert not stray, sorted(stray)
