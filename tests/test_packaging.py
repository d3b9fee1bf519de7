"""pyproject's ``requires-python`` holds for every source file of the package."""

import ast
import re
from pathlib import Path

import pytest

import bekernels

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = Path(bekernels.__file__).resolve().parent


def _python_floor() -> tuple[int, int]:
    match = re.search(r'^requires-python = ">=3\.(\d+)"$', PYPROJECT.read_text(), re.M)
    return 3, int(match.group(1))


def test_floor_parser_refuses_newer_syntax():
    # ``except*`` is 3.11 syntax, so a (3, 10) parser must refuse it on
    # whatever Python runs the tests.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())
