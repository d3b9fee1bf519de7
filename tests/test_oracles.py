"""The reference generators themselves, pinned to published values."""

import ast
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from bekernels.oracles import bernoulli_even, bernoulli_numbers, euler_even, zigzag_numbers
import bekernels.oracles as oracles_module


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


def test_bernoulli_table_reduces_once_per_value(monkeypatch, gcd_calls):
    # The tangent column stays in integers; each listed value is one Fraction.
    expected = bernoulli_numbers(80)
    monkeypatch.setattr(oracles_module, "_tn_column", [1])
    monkeypatch.setattr(oracles_module, "_tn_done", [1])
    gcd_calls[0] = 0
    assert bernoulli_numbers(80) == expected
    assert gcd_calls[0] <= 81
    tangents = [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312]
    assert oracles_module._tn_done[:8] == tangents


def test_stopped_tangent_loop_leaves_its_column_consistent(monkeypatch, stop_sweep):
    def reset():
        monkeypatch.setattr(oracles_module, "_tn_column", [1])
        monkeypatch.setattr(oracles_module, "_tn_done", [1])
        bernoulli_even(3)

    reset()
    expected = [bernoulli_even(n) for n in range(1, 16)]

    def check():
        assert [bernoulli_even(n) for n in range(1, 16)] == expected

    assert stop_sweep(oracles_module, reset, lambda: bernoulli_even(12), check)


def test_stopped_seidel_triangle_leaves_its_row_consistent(monkeypatch, stop_sweep):
    def reset():
        monkeypatch.setattr(oracles_module, "_zz_row", [1])
        monkeypatch.setattr(oracles_module, "_zz_done", [1])
        zigzag_numbers(3)

    reset()
    expected = zigzag_numbers(15)

    def check():
        assert zigzag_numbers(15) == expected

    assert stop_sweep(oracles_module, reset, lambda: zigzag_numbers(12), check)


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
    bernoulli = _reads(tree, ["bernoulli_numbers", "bernoulli_even"])
    euler = _reads(tree, ["zigzag_numbers", "euler_even"])
    assert {"_tn_column", "Fraction"} <= bernoulli and {"_zz_row", "accumulate"} <= euler
    assert not bernoulli & euler, bernoulli & euler


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


def test_concurrent_growth_is_safe():
    results = {}

    def worker(upto):
        results[upto] = bernoulli_numbers(upto)[upto]

    threads = [threading.Thread(target=worker, args=(40 + i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = bernoulli_numbers(47)
    assert results == {40 + i: expected[40 + i] for i in range(8)}
