"""README.md's examples run: every ```python block executes against the
installed package, and every ``dmark`` command of its ```sh blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

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
