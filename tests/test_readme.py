"""The README's Python example and command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from quiverqh.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_python_example_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example reads quivers/ by relative path
    exec(compile(blocks[0], "README.md", "exec"), {})


def command_lines():
    """argv of every `quiverqh ...` line in the README's Command line block."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("quiverqh ")]


def test_readme_has_command_lines():
    assert len(command_lines()) == 11


@pytest.mark.parametrize("argv", command_lines(), ids=lambda a: " ".join(a[:2]))
def test_readme_command_line_exits_zero(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)  # the commands read quivers/ by relative path
    assert main(argv) == EXIT_OK


def test_test_extras_agree():
    # the README install line, the `test` extra and the CI install step
    # name the same packages, so a local run does not skip the sympy oracle
    readme = re.search(r"# test extras\npip install (.*)\n", README).group(1).split()
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.findall(r'"([^"]+)"', re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1))
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = re.search(r"name: Install test dependencies\n\s+run: python -m pip install (.*)\n",
                     ci).group(1).split()
    assert sorted(readme) == sorted(extra) == sorted(step)
    assert "sympy" in extra
