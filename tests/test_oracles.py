"""The reference generators themselves, pinned to published values."""

import ast
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from bekernels.oracles import (
    bernoulli_even,
    bernoulli_evens,
    bernoulli_numbers,
    euler_even,
    euler_evens,
    zigzag_numbers,
)
import bekernels.oracles as oracles_module
import bekernels.sequences as sequences_module


def test_bernoulli_low_values_plus_convention():
    values = bernoulli_numbers(12)
    assert values[0] == 1
    assert values[1] == Fraction(1, 2)  # a kept convention
    assert values[2] == Fraction(1, 6)
    assert values[3] == 0
    assert values[4] == Fraction(-1, 30)
    assert values[6] == Fraction(1, 42)
    assert values[8] == Fraction(-1, 30)
    assert values[10] == Fraction(5, 66)
    assert values[12] == Fraction(-691, 2730)


def test_odd_bernoulli_vanish_beyond_one():
    values = bernoulli_numbers(31)
    assert all(values[k] == 0 for k in range(3, 32, 2))


def test_bernoulli_table_reduces_once_per_value(gcd_calls):
    # The tangent column stays in integers; each listed value is one Fraction.
    values = bernoulli_numbers(80)
    assert gcd_calls[0] <= 81
    tangents = [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312]
    assert [abs(values[2 * n]) * 4**n * (4**n - 1) / (2 * n) for n in range(1, 9)] == tangents


def _module_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


def _reads(tree, functions):
    """Module-level names read by ``functions`` and the module functions they reach."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    module_names = _module_names(tree)
    seen, todo = set(), list(functions)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name in defs:
                todo.extend(
                    node.id for node in ast.walk(defs[name])
                    if isinstance(node, ast.Name) and node.id in module_names
                )
    return seen


def test_oracles_share_no_code():
    # The two oracles check the kernel pipeline and each other, so neither
    # may import the package or read a module-level name the other reads.
    tree = ast.parse(Path(oracles_module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("bekernels")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("bekernels") for a in node.names)
    bernoulli = _reads(tree, ["bernoulli_evens", "bernoulli_numbers", "bernoulli_even"])
    euler = _reads(tree, ["euler_evens", "zigzag_numbers", "euler_even"])
    assert {"bernoulli_evens", "Fraction"} <= bernoulli and {"_zigzags", "accumulate"} <= euler
    assert not bernoulli & euler, bernoulli & euler


@pytest.mark.parametrize("module", [sequences_module, oracles_module])
def test_routes_keep_no_state_between_calls(module):
    # Each route's rows live in its generator's frame, so the module needs
    # no lock and holds no table.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    assert "threading" not in modules
    assert not any(isinstance(node, ast.Global) for node in nodes)
    tables = [
        name for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (list, dict, set))
    ]
    assert tables == []


def test_zigzag_sequence():
    assert zigzag_numbers(8) == [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_euler_even_secant_signs():
    assert [euler_even(n) for n in range(5)] == [1, -1, 5, -61, 1385]


def test_rejects_negative():
    for fn in (bernoulli_numbers, zigzag_numbers, bernoulli_even, euler_even):
        with pytest.raises(ValueError):
            fn(-1)


def test_incremental_extension_consistent():
    head = bernoulli_numbers(6)
    full = bernoulli_numbers(20)
    assert full[:7] == head
    assert zigzag_numbers(12)[:5] == zigzag_numbers(4)


def test_per_n_values_are_items_of_the_generators():
    evens = list(islice(bernoulli_evens(), 21))
    assert evens == bernoulli_numbers(40)[::2]
    assert [bernoulli_even(n) for n in (0, 1, 7, 20)] == [evens[n] for n in (0, 1, 7, 20)]
    eulers = list(islice(euler_evens(), 21))
    assert [abs(e) for e in eulers] == zigzag_numbers(40)[::2]
    assert [euler_even(n) for n in (0, 1, 7, 20)] == [eulers[n] for n in (0, 1, 7, 20)]
