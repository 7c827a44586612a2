"""README.md's code runs: its library quick start executes, and the `run`
config it shows loads as an ``ExperimentConfig``."""

import contextlib
import io
import json
import re
from pathlib import Path

from salsa_opt.harness import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(language):
    """The bodies of README.md's fenced blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(),
                      re.M | re.S)


def test_python_blocks_run():
    blocks = fenced("python")
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue()


def test_run_config_loads():
    # the one json block is the `run` config that mirrors ExperimentConfig
    [block] = fenced("json")
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert cfg.optimizer["kind"] == "adam_salsa"
