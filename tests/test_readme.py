"""README examples: the library quick tour runs as a doctest, and each
command example prints what README shows under it.  Every public name is
used in the package or documented in README."""

import ast
import doctest
import re
from pathlib import Path

import pytest

import bekernels
from bekernels.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(bekernels.__file__).resolve().parent


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


def _names_used_in_src() -> set[str]:
    """Names the package's modules read: as a name, an attribute or a string.

    Strings count because ``cli`` dispatches through tables of function
    names.  Annotations, ``__all__`` lists and the ``__init__`` registry,
    which lists every public name, do not count as uses.
    """
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        skipped = []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                every = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                skipped += [node.returns, *(arg.annotation for arg in every if arg)]
            elif isinstance(node, ast.AnnAssign):
                skipped.append(node.annotation)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skipped.append(node.value)
        ignored = {id(n) for root in skipped if root is not None for n in ast.walk(root)}
        for node in ast.walk(tree):
            if id(node) in ignored:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_public_name_is_used_or_documented():
    used, readme = _names_used_in_src(), README.read_text()
    orphans = [
        name
        for name in bekernels.__all__
        if name != "__version__"
        and name not in used
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == []
