"""Golden-file suite: whole .egg programs diffed against expected output.

Each ``tests/golden/*.egg`` program runs through the frontend on a fresh
engine; the captured output lines must match the sibling ``.expected``
file exactly.  To (re)generate expectations after an intentional output
change, run::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py

and review the diff before committing.  The examples under ``examples/``
are also executed (through the real CLI) to keep them green, without
pinning their output here.
"""

import os
import pathlib

import pytest

from repro.frontend import Evaluator
from repro.frontend.cli import main as cli_main

from .conftest import EXECUTORS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("*.egg"))
EXAMPLES = sorted((pathlib.Path(__file__).parents[1] / "examples").glob("*.egg"))
REGEN_VAR = "REPRO_REGEN_GOLDEN"


def run_file(path: pathlib.Path) -> str:
    lines = Evaluator().run_program(path.read_text(), str(path))
    return "".join(line + "\n" for line in lines)


def test_suite_is_populated():
    # The harness only has teeth with a real corpus behind it.
    assert len(GOLDEN) >= 6


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_golden(path):
    actual = run_file(path)
    expected_path = path.with_suffix(".expected")
    if os.environ.get(REGEN_VAR):
        expected_path.write_text(actual)
    assert expected_path.exists(), (
        f"missing {expected_path.name}; run {REGEN_VAR}=1 pytest to create it"
    )
    expected = expected_path.read_text()
    assert actual == expected, (
        f"output of {path.name} diverged from {expected_path.name} "
        f"(set {REGEN_VAR}=1 to regenerate after an intentional change)"
    )


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_golden_strategy_independent(path, executor):
    """Forcing every rule and query onto either join executor leaves the
    program output byte-identical."""
    assert run_file(path) == path.with_suffix(".expected").read_text()


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_examples_run_through_cli(path, capsys):
    assert cli_main([str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "check: ok" in captured.out
