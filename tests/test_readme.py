"""README.md's examples run: every ```python block executes against the
installed package, every ``dmark`` command of its ```sh blocks parses, and
every CamelCase name it writes in backticks is an attribute of ``dmark``."""

import functools
import re
import shlex
from pathlib import Path

import pytest

import dmark
from dmark import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    words
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if (words := shlex.split(line, comments=True))[:1] == ["dmark"]
]
# `IndicatorVector`, `MarkingOutcome.from_marked`, `Name(arg)` without its call
NAMES = sorted(set(re.findall(r"`([A-Z][a-z0-9]+[A-Z]\w*(?:\.\w+)*)(?:\([^`]*\))?`", TEXT)))


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md[python block {index}]", "exec"), {})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("words", COMMANDS, ids=" ".join)
def test_readme_cli_example_parses(words):
    # parse_args only parses; it reads no file and runs no command
    cli.build_parser().parse_args(words[1:])


def test_readme_names_classes():
    assert "IndicatorVector" in NAMES and "MarkingOutcome.from_marked" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    functools.reduce(getattr, name.split("."), dmark)
