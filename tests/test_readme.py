"""README examples: the library quick tour runs as a doctest, and each
command example prints what README shows under it."""

import doctest
from pathlib import Path

import pytest

from bekernels.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted == 8


def _shown_output(command: str) -> str:
    """The indented lines README prints under ``$ bekernels <command>``."""
    lines = README.read_text().splitlines()
    start = lines.index(f"    $ bekernels {command}") + 1
    shown = []
    for line in lines[start:]:
        if not line.startswith("    "):
            break
        shown.append(line[4:] + "\n")
    return "".join(shown)


@pytest.mark.parametrize(
    "command",
    ["table --kind b --upto 3", "kernel --kind e --n 3", "eval gamma --x 5 --terms 5"],
)
def test_command_example_prints_what_readme_shows(command, capsys):
    expected = _shown_output(command)
    assert expected
    assert main(command.split()) == 0
    # README shows the table's tab separators expanded to spaces.
    assert capsys.readouterr().out.expandtabs() == expected
