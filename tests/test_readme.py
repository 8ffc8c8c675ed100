"""The README's examples against the code they show.

Each ``$ gradcons ...`` example of the Quick tour runs through the CLI
and must print exactly the output the README lists under it, and the
Python API example must run.
"""

import re
import shlex
from pathlib import Path

import pytest

from gradcons.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of one ``##`` section of the README."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def _examples() -> list[tuple[list[str], str]]:
    """Each shell example of the Quick tour as its CLI arguments and the
    output listed under it."""
    examples = []
    for block in _blocks(_section("Quick tour"), "sh"):
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)
        while command.rstrip().endswith("\\"):
            command = command.rstrip()[:-1] + lines.pop(0)
        argv = shlex.split(command)
        assert argv[:2] == ["$", "gradcons"], command
        examples.append((argv[2:], "".join(lines)))
    return examples


EXAMPLES = _examples()


def test_the_quick_tour_has_its_three_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["report", "classify-step", "analyze"]


@pytest.mark.parametrize("argv, output", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_quick_tour_example_prints_what_the_readme_shows(argv, output, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == output


def test_python_api_example_runs():
    [block] = _blocks(_section("Python API"), "python")
    exec(compile(block, "README.md", "exec"), {})
