"""Command-line surface: goldens, exit codes, formats, persistence."""

import json
import os
import subprocess
import sys

import pytest

from bekernels import oracles, verify
from bekernels.cli import UPTO_LIMIT, main

EULER_CSV_GOLDEN = "1,-1/2\n2,5/24\n3,-61/720\n"
KB_TABLE_STRINGS = [
    "-1/6",
    "7/360",
    "-31/15120",
    "127/604800",
    "-73/3421440",
    "1414477/653837184000",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_plain_matches_reference_table(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "b", "--upto", "6")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 6
    assert [row.split("\t")[1] for row in rows] == KB_TABLE_STRINGS


def test_table_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "e", "--upto", "3", "--format", "csv")
    assert code == 0
    assert out == EULER_CSV_GOLDEN


def test_table_json_schema(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "b", "--upto", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [set(row) for row in rows] == [{"n", "value", "method", "kind"}] * 3
    assert rows[2] == {"n": 3, "value": "-31/15120", "method": "recursion", "kind": "b"}


def test_table_deterministic(capsys):
    first = run_cli(capsys, "table", "--kind", "e", "--upto", "8", "--format", "json")
    second = run_cli(capsys, "table", "--kind", "e", "--upto", "8", "--format", "json")
    assert first == second


def test_table_invalid_upto_exits_2(capsys):
    code, _, err = run_cli(capsys, "table", "--kind", "b", "--upto", "0")
    assert code == 2
    assert "upto" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--kind", "b", "--upto", "5", "--method", "determinant"],
        ["table", "--kind", "b", "--upto", "5", "--force"],
        ["kernel", "--kind", "b", "--n", "5", "--method", "compositions"],
        ["kernel", "--kind", "b", "--n", "5", "--force"],
    ],
    ids=["table-method", "table-force", "kernel-method", "kernel-force"],
)
def test_removed_route_flags_exit_2(capsys, argv):
    # The recursion is the one route behind table and kernel.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_kernel_single_value(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--kind", "b", "--n", "6")
    assert (code, out) == (0, "1414477/653837184000\n")
    code, out, _ = run_cli(capsys, "kernel", "--kind", "e", "--n", "0")
    assert (code, out) == (0, "1\n")


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    assert any("three-way" in line for line in lines)
    assert any("Akiyama" in line for line in lines)
    assert any("Seidel" in line for line in lines)
    assert any("brute force" in line for line in lines)


def test_verify_reports_a_wrong_oracle(capsys, monkeypatch):
    right = oracles.euler_even
    monkeypatch.setattr(oracles, "euler_even", lambda n: right(n) + 1 if n == 5 else right(n))
    code, out, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "5")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL Euler numbers vs Seidel oracle (n=1..8): first difference at n=5: -50521 vs -50520"
    ]
    assert all(line.startswith("PASS") for line in out.splitlines() if line not in fails)


@pytest.mark.parametrize(
    "argv",
    [
        ["--brute", "30", "--exact", "20"],
        ["--exact", "40", "--brute", "23"],
        ["--exact", "40", "--brute", str(verify.BRUTE_DEPTH_LIMIT + 1)],
    ],
    ids=["brute-over-exact", "brute-over-limit", "brute-over-g-limit"],
)
def test_verify_precondition_exits_2(capsys, monkeypatch, argv):
    # With no checks to run, a verify that skips its precondition exits 0 at once.
    monkeypatch.setattr(verify, "CHECKS", ())
    code, _, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert "--brute" in err


def test_bernoulli_json(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--upto", "3")
    assert code == 0
    assert json.loads(out) == [
        {"index": 2, "value": "1/6"},
        {"index": 4, "value": "-1/30"},
        {"index": 6, "value": "1/42"},
    ]


def test_euler_csv(capsys):
    code, out, _ = run_cli(capsys, "euler", "--upto", "4", "--format", "csv")
    assert code == 0
    assert out == "2,-1\n4,5\n6,-61\n8,1385\n"


def test_a_coeff_json(capsys):
    code, out, _ = run_cli(capsys, "a-coeff", "--upto", "3")
    assert code == 0
    assert json.loads(out) == [
        {"index": 1, "value": "1/24"},
        {"index": 2, "value": "-7/960"},
        {"index": 3, "value": "31/8064"},
    ]


def test_eval_json_keys_and_accuracy(capsys):
    code, out, _ = run_cli(capsys, "eval", "digamma", "--x", "10", "--terms", "5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "terms", "bound", "reference", "abs_error"}
    assert payload["terms"] == 5
    assert float(payload["abs_error"]) < 1e-10
    assert payload["value"].startswith("2.35175258906")


def test_eval_plain_format(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "hurwitz", "--x", "9", "--m0", "1", "--terms", "5",
        "--format", "plain",
    )
    assert code == 0
    assert out.startswith("value = 0.105166335681")


def test_eval_gamma_reference(capsys):
    code, out, _ = run_cli(capsys, "eval", "gamma", "--x", "5", "--terms", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["reference"].startswith("52.3427777845")


def test_eval_polygamma_needs_y(capsys):
    code, _, err = run_cli(capsys, "eval", "polygamma", "--x", "9", "--terms", "8")
    assert code == 2 and "--y" in err


def test_eval_flag_scoping(capsys):
    code, _, err = run_cli(capsys, "eval", "gamma", "--x", "5", "--y", "2", "--terms", "5")
    assert code == 2 and "--y" in err
    code, _, err = run_cli(capsys, "eval", "digamma", "--x", "5", "--m0", "2", "--terms", "5")
    assert code == 2 and "--m0" in err


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "gamma", "--x", "-1", "--terms", "5")
    assert code == 2 and "x > 0" in err
    code, _, err = run_cli(capsys, "eval", "digamma", "--x", "oops", "--terms", "5")
    assert code == 2
    for target in (["gamma"], ["digamma"], ["hurwitz"], ["polygamma", "--y", "1"]):
        for x in ("inf", "nan"):
            code, _, err = run_cli(capsys, "eval", *target, "--x", x, "--terms", "3")
            assert code == 2 and "finite" in err, (target, x)


def test_eval_precision_floor(capsys):
    code, _, _ = run_cli(capsys, "eval", "digamma", "--x", "10", "--terms", "5",
                         "--precision", "14")
    assert code == 2


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int <-> str limit"
)
def test_values_past_the_int_string_limit(capsys):
    # K_e(170) has the denominator 340!, about 714 digits: past the lowest
    # limit Python allows on int <-> str conversion.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, "table", "--kind", "e", "--upto", "170")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert len(out.splitlines()) == 170


def test_compositions_listing(capsys):
    code, out, _ = run_cli(capsys, "compositions", "--n", "3")
    assert code == 0
    assert out == "1,1,1\n1,2\n2,1\n3\n"
    code, _, _ = run_cli(capsys, "compositions", "--n", "0")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def _run_subprocess(argv, env_extra=None, timeout=120):
    env = dict(os.environ)
    env.pop("KERNEL_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bekernels", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["hurwitz", "--x", "1e400"],
        ["polygamma", "--y", "1", "--x", "1e400"],
        ["digamma", "--x", "1e7"],
        ["digamma", "--x", "1e400"],
    ],
)
def test_eval_huge_finite_x_returns(argv):
    # A subprocess with a deadline, so a hang fails the test instead of the run.
    proc = _run_subprocess(["eval", *argv, "--terms", "3"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["value"] not in (None, "nan", "inf", "-inf")


@pytest.mark.parametrize(
    "argv, deadline",
    [
        (["hurwitz", "--precision", "100", "--m0", "1", "--x", "24.06", "--terms", "4"], 10),
        (["polygamma", "--y", "2", "--precision", "100", "--x", "11.25", "--terms", "7"], 10),
        # Tolerances of 1e-336 and 1e-342 are below the smallest float.
        (["hurwitz", "--precision", "340", "--x", "20", "--terms", "4"], 30),
        (["polygamma", "--y", "1", "--precision", "340", "--x", "20", "--terms", "4"], 30),
        (["hurwitz", "--precision", "1000", "--x", "20", "--terms", "4"], 10),
        (["polygamma", "--y", "1", "--precision", "1000", "--x", "20", "--terms", "4"], 10),
    ],
    ids=[
        "hurwitz-100", "polygamma-100", "hurwitz-340", "polygamma-340",
        "hurwitz-1000", "polygamma-1000",
    ],
)
def test_eval_high_precision_returns(argv, deadline):
    proc = _run_subprocess(["eval", *argv], timeout=deadline)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert float(payload["abs_error"]) <= 2 * float(payload["bound"])


def test_compositions_past_limit_exits_2():
    # A subprocess with a deadline: past the limit the listing would run for minutes.
    proc = _run_subprocess(["compositions", "--n", "23"], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--n" in proc.stderr and "22" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["table", "--kind", "b"], ["table", "--kind", "e"], ["bernoulli"], ["euler"], ["a-coeff"]],
    ids=["table-b", "table-e", "bernoulli", "euler", "a-coeff"],
)
def test_upto_past_limit_exits_2(argv):
    # A subprocess with a deadline: past the limit a table would run for minutes.
    assert UPTO_LIMIT == 1800
    proc = _run_subprocess([*argv, "--upto", "1801"], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--upto" in proc.stderr and "1800" in proc.stderr and "kernel_recursive" in proc.stderr


def test_module_entry_point():
    proc = _run_subprocess(["kernel", "--kind", "b", "--n", "2"])
    assert proc.returncode == 0
    assert proc.stdout == "7/360\n"


def test_exact_path_imports_no_mpmath():
    # A fresh interpreter, so modules imported by other tests do not count.
    script = """
import sys
import bekernels, bekernels.cli
print(sorted(m for m in ("mpmath", "bekernels.specfun", "dataclasses") if m in sys.modules))
from bekernels import specfun
print(bekernels.eval_gamma is specfun.eval_gamma)
namespace = {}
exec("from bekernels import *", namespace)
print(sorted(set(bekernels.__all__) - set(namespace)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "[]"]


def test_cache_dir_persists_tables(tmp_path):
    env = {"KERNEL_CACHE_DIR": str(tmp_path)}
    first = _run_subprocess(["table", "--kind", "b", "--upto", "8"], env)
    assert first.returncode == 0
    cache_file = tmp_path / "kernel_b.txt"
    assert cache_file.exists()
    lines = cache_file.read_text().splitlines()
    assert lines[0] == "0 1" and lines[1] == "1 -1/6" and len(lines) == 9
    # A b-only command extends no e table, so it writes none.
    assert not (tmp_path / "kernel_e.txt").exists()
    # second run reloads the file and must print identical output
    second = _run_subprocess(["table", "--kind", "b", "--upto", "8"], env)
    assert second.returncode == 0
    assert second.stdout == first.stdout
    assert cache_file.read_text().splitlines() == lines


def test_cache_dir_conflict_detected(tmp_path):
    # index 0 is pre-seeded as 1; a contradicting file must refuse to load
    (tmp_path / "kernel_b.txt").write_text("0 2\n")
    proc = _run_subprocess(
        ["table", "--kind", "b", "--upto", "2"], {"KERNEL_CACHE_DIR": str(tmp_path)}
    )
    assert proc.returncode == 2
    assert "kernel_b.txt:1" in proc.stderr


def test_cache_dir_written_only_when_a_table_grew(tmp_path):
    env = {"KERNEL_CACHE_DIR": str(tmp_path)}
    assert _run_subprocess(["table", "--kind", "b", "--upto", "8"], env).returncode == 0
    cache_file = tmp_path / "kernel_b.txt"
    before = cache_file.stat()
    # os.replace always makes a new inode, so an unchanged inode and mtime
    # mean the file was not written at all.
    for argv in (["table", "--kind", "b", "--upto", "3"], ["compositions", "--n", "3"]):
        assert _run_subprocess(argv, env).returncode == 0
        after = cache_file.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns), argv
    assert sorted(os.listdir(tmp_path)) == ["kernel_b.txt"]


def test_cache_dir_non_kernel_value_rejected(tmp_path):
    # 1/7 is no K_b(1): times the scaled unit P * 2! = 6 it is not an integer.
    (tmp_path / "kernel_b.txt").write_text("0 1\n1 1/7\n")
    proc = _run_subprocess(
        ["table", "--kind", "b", "--upto", "3"], {"KERNEL_CACHE_DIR": str(tmp_path)}
    )
    assert proc.returncode == 2
    assert "not an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cache_dir_garbage_rejected(tmp_path):
    (tmp_path / "kernel_e.txt").write_text("zero one\n")
    proc = _run_subprocess(
        ["euler", "--upto", "2"], {"KERNEL_CACHE_DIR": str(tmp_path)}
    )
    assert proc.returncode == 2
    assert "bad cache line" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "--upto", "2"],
        ["compositions", "--n", "3"],
        ["verify", "--exact", "8", "--brute", "4"],
    ],
    ids=["euler", "compositions", "verify"],
)
def test_cache_dir_reads_only_the_kind_used(tmp_path, argv):
    # None of these reads the b table, so a damaged one neither fails them
    # nor gets rewritten by them.
    garbage = b"zero one\n"
    (tmp_path / "kernel_b.txt").write_bytes(garbage)
    proc = _run_subprocess(argv, {"KERNEL_CACHE_DIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "kernel_b.txt").read_bytes() == garbage
