"""Every fenced block in README.md runs, and its three hand-kept lists
(the public API, the subcommands and the Config table) match the code.

Each block is classified by its language and, for a ``sh`` block, line by
line; a block or line the test cannot classify fails it:

- ``python`` blocks are executed and must print something;
- ``json`` blocks are config files, named in the info string (```` ```json
  run.json ````), and each must be one that a ``salsa-opt`` line reads;
- each ``salsa-opt`` line runs through ``cli.main`` in a temp dir holding
  those files, in README order, and must exit 0;
- each ``python3 demos/...`` line names a script ``tests/test_demos.py``
  runs;
- the ``pip`` and ``pytest`` lines are exempt, each listed in ``EXEMPT``.
"""

import argparse
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

import salsa_opt
from salsa_opt import cli, directions, harness
from salsa_opt.cli import gradient_errors
from salsa_opt.core import call_keys
from salsa_opt.baselines import ScheduleConfig
from salsa_opt.harness import batch_scaling_experiment, \
    compare_optimizers, frequency_ablation, run_experiment
from salsa_opt.line_search import SlsConfig
from salsa_opt.salsa import SalsaConfig
from pins import DEMOS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

EXEMPT = {
    "pip install -e . --no-build-isolation",
    "python -m pytest tests perfbench/tests",
    "python -m pytest tests/test_acceptance.py -v -s",
}


def blocks():
    """(language, name, body) of each fenced block, in README order."""
    found = re.findall(r"^```([^\n]*)\n(.*?)^```$", README.read_text(),
                       re.M | re.S)
    return [((info.split() or [""])[0], " ".join(info.split()[1:]), body)
            for info, body in found]


def sh_lines():
    """Each command of the ``sh`` blocks, its comment stripped."""
    return [re.sub(r"\s+#.*", "", line).strip()
            for lang, _, body in blocks() if lang == "sh"
            for line in body.splitlines() if line.strip()]


def demo_script(line):
    """The script a ``python3 demos/...`` line runs, or None."""
    words = line.split()
    if words[0] in ("python", "python3") and len(words) == 2 and \
            words[1].startswith("demos/"):
        return ROOT / words[1]
    return None


def cli_lines():
    return [shlex.split(line)[1:] for line in sh_lines()
            if line.startswith("salsa-opt ")]


def section(title):
    """The text of README's ``## title`` section."""
    text = README.read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_every_block_is_one_the_test_runs():
    found = blocks()
    assert found
    for lang, name, _ in found:
        assert lang in ("python", "sh", "json"), \
            f"README block ```{lang} is not one this test runs"
        assert bool(name) == (lang == "json"), \
            f"README ```{lang} block: only a json block takes a file name"
    for line in sh_lines():
        assert line in EXEMPT or line.startswith("salsa-opt ") or \
            demo_script(line), \
            f"README command line not run by this test: {line!r}"


def test_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    python = [body for lang, _, body in blocks() if lang == "python"]
    assert python
    for body in python:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(body, str(README), "exec"), {})
        assert out.getvalue()


def test_demo_lines_name_the_demos_that_run():
    named = [demo_script(line) for line in sh_lines() if demo_script(line)]
    demos = [ROOT / "demos" / f"{stem}.py" for stem in DEMOS]
    assert named and all(path in demos for path in named), named


def test_exempt_lines_name_files_that_exist():
    for line in EXEMPT:
        assert line in sh_lines(), f"EXEMPT line not in README: {line!r}"
        for token in shlex.split(line):
            if "/" in token:
                assert (ROOT / token).exists(), token


def test_json_blocks_are_config_files_a_command_reads():
    names = [name for lang, name, _ in blocks() if lang == "json"]
    assert len(names) == len(set(names))
    read = {argv[argv.index("--config") + 1] for argv in cli_lines()}
    assert set(names) <= read, \
        f"config files no command line reads: {set(names) - read}"


def test_command_lines_run(tmp_path, monkeypatch):
    for lang, name, body in blocks():
        if lang == "json":
            json.loads(body)
            (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    for argv in cli_lines():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejected the line
                code = e.code
        assert code == 0, (argv, err.getvalue())


@pytest.mark.parametrize("flags, seeds", [
    ([], None), (["--format", "json"], None), (["--seed", "1"], [1]),
], ids=["csv", "json", "seed"])
def test_compare_writes_what_compare_optimizers_returns(tmp_path, flags,
                                                        seeds):
    # the command is the library study, reading README's compare.json
    [body] = [body for lang, name, body in blocks() if name == "compare.json"]
    (tmp_path / "compare.json").write_text(body)
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["compare", "--config", str(tmp_path / "compare.json"),
                         "--out", str(out), *flags]) == 0
    config = json.loads(body)
    table = compare_optimizers(**{**config, "seeds": seeds or config["seeds"]})
    expected = table.to_json() if "json" in flags else table.to_csv()
    assert out.read_bytes() == expected.encode()


def test_public_api_list_is_all():
    listed = re.findall(r"`(\w+)`", "\n".join(
        line for line in section("Public API").splitlines()
        if line.startswith(("- ", "  "))))
    assert len(listed) == len(set(listed))
    assert set(listed) == set(salsa_opt.__all__)


def test_cli_lines_cover_every_subcommand():
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for argv in cli_lines()} == set(subparsers.choices)


def config_rows():
    """Each row of README's Config table: its first cell -> its second."""
    rows = {}
    for line in section("Config").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and cells[0] not in ("config", "---"):
            rows[cells[0]] = cells[1]
    return rows


def test_config_table_names_the_keys_each_owner_takes():
    rows = config_rows()
    sls, salsa = (set(call_keys(cls)[0]) for cls in (SlsConfig, SalsaConfig))
    before, above, salsa_own = rows["`SalsaConfig`"].partition("the above")
    assert above and not before
    studies = (batch_scaling_experiment, frequency_ablation)
    expected = {
        "`SlsConfig`": sls,
        "`SalsaConfig`": salsa - sls | {"c"},
        "Adam kinds (`AdamState`)": set(directions._HYPER),
        # total_steps comes from the run's length; lr stands for peak_lr
        "`sgd`, `adam` (`ScheduleConfig`)":
            set(call_keys(ScheduleConfig)[0]) - {"total_steps"} | {"lr"},
        "`run` (`run_experiment`)": set(call_keys(run_experiment)[0]),
        "`compare`": set(call_keys(compare_optimizers)[0]),
        "problems": {name for factory in harness._PROBLEM_BUILDERS.values()
                     for name in call_keys(factory)[0]},
        "`scaling`, `freq-ablation`": {
            name for study in studies for name in call_keys(study)[0]
            if name != "problem"},
        "`check-grad` (`gradient_errors`)":
            set(call_keys(gradient_errors)[0]),
    }
    assert "model" in expected["problems"]
    assert rows.keys() == expected.keys()
    for owner, keys in expected.items():
        # SalsaConfig's row names its own keys after "the above"
        cell = salsa_own if owner == "`SalsaConfig`" else rows[owner]
        assert set(re.findall(r"`([a-z][a-z0-9_]*)`", cell)) == keys, owner


@pytest.mark.parametrize("title", ["Config", "Trace format"])
def test_sections_pointed_to_exist(title):
    # core.check_value's docstring points to "Config"; the library example
    # links "Trace format"
    assert section(title).strip()
