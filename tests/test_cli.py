"""Command-line surface: goldens, exit codes, formats, persistence."""

import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from bekernels import cli, kernels, oracles, sequences, verify
from bekernels.cli import (
    BRUTE_DEPTH_LIMIT,
    COMPOSITIONS_LIMIT,
    EXACT_DEPTH_LIMIT,
    UPTO_LIMIT,
    build_parser,
    main,
)
from bekernels.exactnum import format_rational
from bekernels.kernels import KernelKind

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
    assert any("tangent-number" in line for line in lines)
    assert any("Seidel" in line for line in lines)
    assert any("brute force" in line for line in lines)


def test_verify_reports_a_wrong_oracle(capsys, monkeypatch):
    right = oracles.euler_evens

    def planted():
        for n, value in enumerate(right()):
            yield value + 1 if n == 5 else value

    monkeypatch.setattr(oracles, "euler_evens", planted)
    code, out, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "5")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL Euler numbers vs Seidel oracle (n=1..8): first difference at n=5: -50521 vs -50520"
    ]
    assert all(line.startswith("PASS") for line in out.splitlines() if line not in fails)


def test_verify_runs_the_tangent_loop_once(capsys, monkeypatch):
    right = oracles.bernoulli_evens
    calls = []

    def counted():
        calls.append(1)
        return right()

    monkeypatch.setattr(oracles, "bernoulli_evens", counted)
    code, _, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "5")
    assert code == 0
    assert len(calls) == 1


def test_verify_reports_a_wrong_bernoulli_oracle_once(capsys, monkeypatch):
    # The coefficient entry no longer reads the tangent numbers, so a wrong
    # B_2k shows in the oracle entry alone, at its first pair for k.
    right = oracles.bernoulli_evens

    def planted():
        for n, value in enumerate(right()):
            yield value + 1 if n == 5 else value

    monkeypatch.setattr(oracles, "bernoulli_evens", planted)
    code, out, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "5")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL Bernoulli numbers vs tangent-number oracle (n=1..8): first difference at n=5: "
        "5/66 vs 71/66"
    ]
    assert all(line.startswith("PASS") for line in out.splitlines() if line not in fails)


def test_verify_fills_each_kind_once(capsys, monkeypatch):
    # Every entry reads its kind's one run-local cache, filled in one call.
    built, fills = [], []
    init, fill = kernels.KernelCache.__init__, kernels.kernel_recursive

    def counted_init(self, kind):
        built.append(kind.value)
        init(self, kind)

    def counted_fill(kind, n, cache=None):
        fills.append((kind.value, n))
        return fill(kind, n, cache)

    monkeypatch.setattr(kernels.KernelCache, "__init__", counted_init)
    monkeypatch.setattr(kernels, "kernel_recursive", counted_fill)
    code, _, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "5")
    assert code == 0
    assert built == ["b", "e"]
    assert fills == [("b", 8), ("e", 8)]


def test_verify_ignores_the_process_wide_cache(monkeypatch, tmp_path):
    # ROADMAP item 1's edit: V(2) = 7 becomes 46 = 70 in hex, so the loaded
    # process-wide table gives K(2) = 7/36 and B_4 = -1/3.  verify's own
    # cache never sees it, so every entry still passes.
    b = KernelKind.BERNOULLI
    clean = kernels.KernelCache(b)
    kernels.kernel_recursive(b, 6, clean)
    path = tmp_path / "kernel_b.txt"
    kernels.write_cache_file(clean, path)
    lines = path.read_text().splitlines()
    assert lines[2] == "2 7"
    lines[2] = "2 46"
    path.write_text("\n".join(lines) + "\n")
    fresh = {kind: kernels.KernelCache(kind) for kind in KernelKind}
    monkeypatch.setattr(kernels, "_shared", fresh)
    kernels.read_cache_file(path, kernels.shared_cache(b))
    assert sequences.bernoulli(2) == Fraction(-1, 3)
    results = list(verify.run_checks(8, 5))
    assert len(results) == len(verify.CHECKS)
    assert all(problem is None for _, problem in results), results


def test_verify_names_no_process_wide_cache():
    source = inspect.getsource(verify)
    assert "shared_cache" not in source
    assert "read_cache_file" not in source


@pytest.mark.parametrize("kind", ["b", "e"])
def test_verify_reads_the_rows_table_prints(capsys, monkeypatch, kind):
    # The recursion entries read KernelCache.items, the reader table prints
    # with, so a wrong row there is a first difference in both of them.
    right = kernels.KernelCache.items

    def planted(self):
        for n, value in right(self):
            yield n, value + 1 if (self.kind.value, n) == (kind, 7) else value

    monkeypatch.setattr(kernels.KernelCache, "items", planted)
    code, out, _ = run_cli(capsys, "verify", "--exact", "8", "--brute", "8")
    assert code == 1
    fails = [line.split(": ")[:2] for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        [f"FAIL three-way kernel agreement (kind={kind}, n=1..8)",
         "first difference at n=7 (compositions)"],
        [f"FAIL recursion vs determinant (kind={kind}, n=1..8)", "first difference at n=7"],
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["--brute", "30", "--exact", "20"],
        ["--exact", "40", "--brute", "23"],
        ["--exact", "40", "--brute", str(BRUTE_DEPTH_LIMIT + 1)],
    ],
    ids=["brute-over-exact", "brute-over-limit", "brute-over-g-limit"],
)
def test_verify_precondition_exits_2(capsys, monkeypatch, argv):
    # With no checks to run, a verify that skips its precondition exits 0 at once.
    monkeypatch.setattr(verify, "CHECKS", ())
    code, _, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert "--brute" in err


def test_verify_omitted_brute_follows_a_shallow_exact(capsys):
    # An omitted --brute is min(12, --exact), so a shallow --exact runs alone.
    code, out, _ = run_cli(capsys, "verify", "--exact", "5")
    assert code == 0
    lines = out.splitlines()
    brute = [check.title.format(n=5) for check in verify.CHECKS if check.depth != "exact"]
    assert brute and all(f"PASS {title}" in lines for title in brute)
    assert all("n=1..5" in title for title in brute)
    # With no flags, verify runs as it always has: --exact 40 --brute 12.
    assert run_cli(capsys, "verify") == run_cli(capsys, "verify", "--exact", "40", "--brute", "12")


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


def _json_rows(command, upto):
    if command == "table":
        return [{"n": n, "value": format_rational(kernels.kernel_recursive(KernelKind.BERNOULLI, n)),
                 "method": "recursion", "kind": "b"} for n in range(1, upto + 1)]
    scaling, step = {"bernoulli": (sequences.bernoulli, 2), "euler": (sequences.euler, 2),
                     "a-coeff": (sequences.a_from_kb, 1)}[command]
    return [{"index": step * n, "value": format_rational(scaling(n))} for n in range(1, upto + 1)]


@pytest.mark.parametrize("upto", [1, 2, 37])
@pytest.mark.parametrize("argv", [["bernoulli"], ["euler"], ["a-coeff"],
                                  ["table", "--kind", "b", "--format", "json"]])
def test_json_output_is_the_dumps_of_its_rows(capsys, argv, upto):
    # Rows are printed one at a time, byte for byte as one json.dumps of the list.
    code, out, _ = run_cli(capsys, *argv, "--upto", str(upto))
    assert code == 0
    assert out == json.dumps(_json_rows(argv[0], upto), indent=2) + "\n"


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


def test_eval_domain_error_names_the_evaluator(capsys):
    for target, name in [(["hurwitz"], "eval_hurwitz_expansion"), (["digamma"], "eval_digamma"),
                         (["polygamma", "--y", "1"], "eval_polygamma")]:
        code, out, err = run_cli(capsys, "eval", *target, "--x", "-0.7", "--terms", "3")
        assert (code, out, err) == (2, "", f"error: {name} requires x > -1/2, got -0.7\n"), target


def test_eval_prints_no_digit_past_its_precision(capsys):
    # 15 significant digits at --precision 15.  Thirty printed
    # 0.394666666666666666666666668493: digits past those computed.
    code, out, _ = run_cli(capsys, "eval", "hurwitz", "--x", "2", "--terms", "1",
                           "--m0", "1", "--precision", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0.394666666666667"
    assert payload["reference"] == "0.394934066848226"  # zeta(2, 3) = pi^2/6 - 5/4
    with mp.workdps(40):
        assert mp.nstr(mp.pi**2 / 6 - mp.mpf(5) / 4, 15) == payload["reference"]


_EXACT = {
    "gamma": lambda order, x: mp.gamma(x + mp.mpf(1) / 2),
    "digamma": lambda order, x: mp.psi(0, x + 1),
    "polygamma": lambda order, x: mp.psi(order, x + 1),
    "hurwitz": lambda order, x: mp.zeta(2 * order, x + 1),
}


@pytest.mark.parametrize("precision", [15, 34])
@pytest.mark.parametrize("target", _EXACT)
def test_eval_reference_is_correctly_rounded(capsys, target, precision):
    # Every printed reference is mpmath's value rounded to the digits printed.
    flag = {"polygamma": "--y", "hurwitz": "--m0"}.get(target)
    for x in ("2", "9", "0.3", "24.06"):
        for order in (1, 2, 3) if flag else (None,):
            order_flag = [flag, str(order)] if flag else []
            code, out, _ = run_cli(capsys, "eval", target, "--x", x, *order_flag, "--terms", "5",
                                   "--precision", str(precision))
            assert code == 0
            with mp.workdps(precision + 40):
                expected = mp.nstr(_EXACT[target](order, mp.mpf(x)), min(30, precision))
            assert json.loads(out)["reference"] == expected, (x, order)


def test_eval_precision_floor(capsys):
    code, _, _ = run_cli(capsys, "eval", "digamma", "--x", "10", "--terms", "5",
                         "--precision", "14")
    assert code == 2


def test_eval_output_is_pinned(capsys):
    # stdout, stderr and exit code of 108 eval commands, 18 per target,
    # pinned by one sha256 per target, so a failure names the target that
    # moved.  x = -0.45 is outside Gamma's domain and inside the others';
    # terms = 0 reports the leading part alone.  A change to how a series
    # stops, is bounded or gets its reference must leave these bytes as
    # they were, or change a digest on purpose.
    pinned = {
        "gamma": "e290d6a294158b303bfae22b2284c84f5c9ab9f5dc08038f92afc7ad04c74ca9",
        "digamma": "d1d226a0d0b72715dcfeb3646cc36fb4993acf5c92a483c7a02ab9aa30ed2a0f",
        "hurwitz --m0 1": "a25daaed3fd8e784e34435e529881186e6d66d54603df010369336a2311ecae6",
        "hurwitz --m0 3": "c41437d14936289ad5cf89d5c64c0d0e4f117f9c0ee7403d9cd691ae3f783f89",
        "polygamma --y 1": "b7ae6e2f1dddb5310a107e52bde161a25f54e4bc2574ba3fa336bd870f77e0f1",
        "polygamma --y 2": "741cfbe1f3ab5ffc8d77fedcd278e6007a708711f9e3f0ae07a0fb9a63ee7c1b",
    }
    digests = {}
    for target in pinned:
        text = []
        for x in ["-0.45", "2.5", "55.5"]:
            for terms in ["0", "4", "30"]:
                for precision in ["34", "100"]:
                    argv = ["eval", *target.split(), "--x", x, "--terms", terms,
                            "--precision", precision]
                    code, out, err = run_cli(capsys, *argv)
                    text.append(f"{' '.join(argv)}\n{code}\n{out}{err}")
        digests[target] = hashlib.sha256("".join(text).encode()).hexdigest()
    assert digests == pinned


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
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert after == 640  # main lifts the limit for its own call only
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
    "argv",
    [
        ["polygamma", "--y", "1000000", "--x", "1"],
        ["polygamma", "--y", "1000000", "--x", "0"],
        ["hurwitz", "--m0", "1000000", "--x", "1"],
        ["hurwitz", "--m0", "1000000", "--x", "0"],
        ["hurwitz", "--m0", "100000", "--x", "-0.4"],
        ["hurwitz", "--m0", "100000000", "--x", "-0.4"],
    ],
)
def test_eval_huge_order_returns(argv):
    # Factorial factors of the order are rounded at the working precision,
    # never built exactly, so a large --y or --m0 returns in bounded time.
    proc = _run_subprocess(["eval", *argv, "--terms", "3"], timeout=10)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize(
    "argv, flag, limit",
    [
        (["table", "--kind", "b"], "--upto", UPTO_LIMIT),
        (["bernoulli"], "--upto", UPTO_LIMIT),
        (["euler"], "--upto", UPTO_LIMIT),
        (["a-coeff"], "--upto", UPTO_LIMIT),
        (["kernel", "--kind", "e"], "--n", UPTO_LIMIT),
        (["verify", "--brute", "1"], "--exact", EXACT_DEPTH_LIMIT),
        (["verify", "--exact", "40"], "--brute", BRUTE_DEPTH_LIMIT),
        (["compositions"], "--n", COMPOSITIONS_LIMIT),
    ],
    ids=["table", "bernoulli", "euler", "a-coeff", "kernel", "exact", "brute", "compositions"],
)
def test_ceiling_accepts_the_limit_and_rejects_past_it(capsys, argv, flag, limit):
    # The limit is only parsed: running it would take seconds.
    args = build_parser().parse_args([*argv, flag, str(limit)])
    assert getattr(args, flag.lstrip("-")) == limit
    code, out, err = run_cli(capsys, *argv, flag, str(limit + 1))
    assert (code, out) == (2, "")
    assert f"argument {flag}: must be <= {limit}" in err


def test_int_in_states_its_range():
    assert (cli.int_in(1, 19).low, cli.int_in(1, 19).high) == (1, 19)
    assert cli.int_in(15).high is None


# The commands whose every flag is declared with a range or choices.  ``eval``
# stays out while ROADMAP items 2 and 3 are open: ``eval gamma --x 1e-400
# --terms 2`` prints an exponent of about 1000 digits, and an unbounded --x
# can hang.
_CONTRACT_COMMANDS = ["table", "kernel", "bernoulli", "euler", "a-coeff", "verify", "compositions"]
# In-range values are drawn at most this far above a flag's floor, so an
# example takes milliseconds; the ceilings themselves are tested above.
_CONTRACT_SPAN = 12
_SUBPARSERS = next(
    action.choices for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


@st.composite
def _declared_argv(draw):
    """argv for one command: each flag's value from its declared range or choices, or past them."""
    command = draw(st.sampled_from(_CONTRACT_COMMANDS))
    argv = [command]
    for action in _SUBPARSERS[command]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        # A required flag is left out one time in eight, an optional one half the time.
        if not draw(st.integers(0, 7) if action.required else st.booleans()):
            continue
        if action.choices:
            value = draw(st.sampled_from([*action.choices, "z"]))
        else:
            low, high = action.type.low, action.type.high
            top = low + _CONTRACT_SPAN if high is None else min(high, low + _CONTRACT_SPAN)
            past = [low - 1] if high is None else [low - 1, high + 1]
            value = draw(st.integers(low, top) | st.sampled_from(past))
        argv += [action.option_strings[0], str(value)]
    return argv


@settings(max_examples=150, deadline=2000)
@given(_declared_argv())
def test_declared_flags_exit_0_1_or_2_with_one_error_line(argv):
    assert "KERNEL_CACHE_DIR" not in os.environ
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv


# The commands that load and save the persisted table.  Their size flag is
# drawn up to this far above its floor, past the fill's first block of
# 3 kernels._BLOCK rows, so a loaded prefix ends at each residue mod 3.
_CACHE_COMMANDS = ["table", "kernel", "bernoulli", "euler", "a-coeff"]
_CACHE_SPAN = 40


@st.composite
def _cached_argvs(draw):
    """Two in-range argv for one command, alike but for the size flag's value."""
    command = draw(st.sampled_from(_CACHE_COMMANDS))
    argv = [command]
    for action in _SUBPARSERS[command]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if action.choices:
            argv += [action.option_strings[0], draw(st.sampled_from(action.choices))]
        else:
            flag, low = action.option_strings[0], action.type.low
    sizes = draw(st.lists(st.integers(low, low + _CACHE_SPAN), min_size=2, max_size=2))
    return [[*argv, flag, str(size)] for size in sizes]


def _fresh_shared():
    """A new pair of empty process-wide caches, to stand in for ``kernels._shared``."""
    return {kind: kernels.KernelCache(kind) for kind in KernelKind}


def _main_with_cold_tables(argv, cache_dir=None, err=None):
    """(exit code, stdout) of ``main(argv)`` with no kernel cached, and KERNEL_CACHE_DIR if given.

    stderr goes to ``err`` when one is given.
    """
    env = {"KERNEL_CACHE_DIR": cache_dir} if cache_dir else {}
    out = io.StringIO()
    with mock.patch.object(kernels, "_shared", _fresh_shared()), \
            mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err or io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=40, deadline=2000)
@given(_cached_argvs())
def test_cache_dir_leaves_stdout_as_it_is(argvs):
    # The first run writes the file; the second loads it and, when it asks
    # for more rows, takes the loaded rows over and extends them.
    with tempfile.TemporaryDirectory() as cache_dir:
        for argv in argvs:
            assert _main_with_cold_tables(argv, cache_dir) == _main_with_cold_tables(argv), argv


# One edit of one line of a clean cache file: a new V, one character
# replaced by a hex digit, the line swapped with a neighbour, or the line cut
# to a non-empty prefix.
_LINE_EDITS = st.one_of(
    st.tuples(st.just("value"), st.integers(-(2**64), 2**64)),
    st.tuples(st.just("digit"), st.integers(0, 63), st.sampled_from("0123456789abcdef")),
    st.tuples(st.just("swap")),
    st.tuples(st.just("cut"), st.integers(1, 63)),
)


def _edit_line(lines, index, edit):
    """Apply ``edit`` to ``lines`` at ``index``; return the 1-based numbers of the lines it changed."""
    line = lines[index]
    if edit[0] == "value":
        lines[index] = f"{line.split()[0]} {edit[1]:x}"
    elif edit[0] == "digit":
        at = edit[1] % len(line)
        lines[index] = line[:at] + edit[2] + line[at + 1 :]
    elif edit[0] == "swap":
        other = index + 1 if index + 1 < len(lines) else index - 1
        lines[index], lines[other] = lines[other], line
        return {index + 1, other + 1}
    else:
        lines[index] = line[: 1 + (edit[1] - 1) % len(line)]
    return {index + 1}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a wrong V in the file loads unchecked")
@settings(max_examples=20, deadline=2000)
@given(_cached_argvs(), st.integers(0, 10**6), _LINE_EDITS)
@example([["bernoulli", "--upto", "6"], ["bernoulli", "--upto", "3"]], 2, ("value", 0x46))
def test_cache_dir_line_edit_exits_2_naming_it_or_leaves_stdout(argvs, index, edit):
    # The first run writes a clean file and one line of it is edited; the
    # second run then refuses the file, naming an edited line, or prints
    # what it prints with no cache.  The explicit example turns "2 7" into
    # "2 46", as test_cache_dir_wrong_kernel_value_rejected does: B_4 prints
    # as -1/3 with exit 0 until the load checks V.
    first, second = argvs
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as cache_dir:
        _main_with_cold_tables(first, cache_dir)
        written = list(Path(cache_dir).iterdir())
        assume(written)  # a run that grows no table, as kernel --n 0, writes none
        (path,) = written
        lines = path.read_text().splitlines()
        edited = _edit_line(lines, index % len(lines), edit)
        path.write_text("\n".join(lines) + "\n")
        code, out = _main_with_cold_tables(second, cache_dir, err)
    if code == 2:
        assert any(f"{path.name}:{line}:" in err.getvalue() for line in edited), (argvs, edit)
    else:
        assert (code, out) == _main_with_cold_tables(second), (argvs, edit)


def test_ceiling_checked_before_the_cache_is_read(capsys, monkeypatch, tmp_path):
    garbage = b"zero one\n"
    (tmp_path / "kernel_b.txt").write_bytes(garbage)
    monkeypatch.setenv("KERNEL_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "table", "--kind", "b", "--upto", str(UPTO_LIMIT + 1))
    assert (code, out) == (2, "")
    assert "--upto" in err and "kernel_b.txt" not in err
    assert (tmp_path / "kernel_b.txt").read_bytes() == garbage


def test_module_entry_point():
    proc = _run_subprocess(["kernel", "--kind", "b", "--n", "2"])
    assert proc.returncode == 0
    assert proc.stdout == "7/360\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["kernel", "--kind", "b", "--n", "30"], 0), (["kernel", "--kind", "b", "--n", "1801"], 2)],
    ids=["ok", "out-of-range"],
)
def test_run_exits_with_the_code_of_main_after_atexit_handlers(capsys, argv, code):
    # The handler also reports whether run() froze the collector before the exit.
    script = """
import atexit, gc, sys
from bekernels import cli
atexit.register(lambda: print("atexit: frozen", gc.get_freeze_count() > 0, file=sys.stderr))
cli.run()
"""
    expected = run_cli(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected[1], expected[2] + "atexit: frozen True\n")


def test_run_into_a_closed_pipe_exits_2():
    # The table (well over a pipe buffer) blocks on the pipe until the reader
    # has closed it, so the next write fails.
    with subprocess.Popen(
        [sys.executable, "-m", "bekernels", "table", "--kind", "b", "--upto", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            assert proc.stdout.readline() == b"1\t-1/6\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (2, b"error: [Errno 32] Broken pipe\n")


def test_main_leaves_the_collector_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "table", "--kind", "e", "--upto", "5")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_table_imports_no_typing():
    # No exact command loads typing.  -S: a site hook may load typing before
    # the package does.
    script = """
import sys
from bekernels import cli
code = cli.main(sys.argv[1:])
print(code, "typing" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in (
        ["table", "--kind", "b", "--upto", "3"],
        ["bernoulli", "--upto", "3"],
        ["euler", "--upto", "3"],
        ["a-coeff", "--upto", "3"],
        ["verify", "--exact", "3", "--brute", "2"],
    ):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False", argv


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


_EXACT_CORE = ["cli", "compositions", "exactnum", "kernels"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["table", "--kind", "b", "--upto", "3"], _EXACT_CORE),
        (["bernoulli", "--upto", "3"], [*_EXACT_CORE, "json", "sequences"]),
        (["eval", "gamma", "--x", "5", "--terms", "3"], [*_EXACT_CORE, "json", "sequences", "specfun"]),
        (["verify", "--exact", "3", "--brute", "2"],
         [*_EXACT_CORE, "oracles", "sequences", "verify"]),
        (["compositions", "--n", "3"], _EXACT_CORE),
    ],
    ids=["table", "bernoulli", "eval", "verify", "compositions"],
)
def test_command_loads_only_the_modules_it_uses(argv, loaded):
    # A fresh interpreter, so modules imported by other tests do not count.
    # json counts too: only JSON output (the default of bernoulli and eval) loads it.
    script = """
import sys
from bekernels import cli
code = cli.main(sys.argv[1:])
names = [m for m in sys.modules if m.startswith("bekernels.") or m == "json"]
print(code, sorted(m.removeprefix("bekernels.") for m in names))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {sorted(loaded)}"


def test_compositions_names_the_function_after_its_module_loads():
    script = """
import bekernels.compositions, bekernels
print(list(bekernels.compositions(2)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[(1, 1), (2,)]\n"


def test_cache_dir_persists_tables(tmp_path):
    env = {"KERNEL_CACHE_DIR": str(tmp_path)}
    first = _run_subprocess(["table", "--kind", "b", "--upto", "8"], env)
    assert first.returncode == 0
    cache_file = tmp_path / "kernel_b.txt"
    assert cache_file.exists()
    lines = cache_file.read_text().splitlines()
    assert lines[0] == "0 1" and lines[1] == "1 -1" and len(lines) == 9
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


def test_cache_dir_rational_file_refused_and_left_alone(tmp_path):
    # A file of ``n p/q`` lines, the format before V was stored in hex:
    # K_b(1) = -1/6 is no hex integer, so line 2 is refused before any row
    # prints, and the file is not rewritten.
    text = b"0 1\n1 -1/6\n2 7/360\n3 -31/15120\n"
    (tmp_path / "kernel_b.txt").write_bytes(text)
    proc = _run_subprocess(
        ["table", "--kind", "b", "--upto", "3"], {"KERNEL_CACHE_DIR": str(tmp_path)}
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "kernel_b.txt:2: " in proc.stderr and "in hex" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "kernel_b.txt").read_bytes() == text


@pytest.mark.parametrize(
    "argv", [["bernoulli", "--upto", "3", "--format", "csv"], ["table", "--kind", "b", "--upto", "3"]]
)
def test_cache_dir_non_kernel_value_rejected_at_load(tmp_path, argv):
    # K(3) = 1/7919 is no kernel value, though it is the last one loaded and
    # so no row of the fill would step past it; a line holds V, an integer
    # in hex, so the load rejects it.
    (tmp_path / "kernel_b.txt").write_text("0 1\n1 -1\n2 7\n3 1/7919\n")
    proc = _run_subprocess(argv, {"KERNEL_CACHE_DIR": str(tmp_path)})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "kernel_b.txt:4: " in proc.stderr and "in hex" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line", [b"2\x1c7", b"2 7\xc3\xa9"], ids=["field-separator", "non-ascii"])
def test_cache_dir_line_outside_ascii_rejected(tmp_path, line):
    # A line parses as bytes: only ASCII whitespace splits its fields, so
    # \x1c (whitespace to str.split) is no separator, and a byte outside
    # ASCII is no digit.
    (tmp_path / "kernel_b.txt").write_bytes(b"0 1\n1 -1\n" + line + b"\n")
    proc = _run_subprocess(
        ["table", "--kind", "b", "--upto", "3"], {"KERNEL_CACHE_DIR": str(tmp_path)}
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "kernel_b.txt:3: bad cache line" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a wrong V in the file loads unchecked")
def test_cache_dir_wrong_kernel_value_rejected(tmp_path):
    # V(2) = 7 gives K(2) = 7/360; 46 = 70 in hex gives 7/36, a hex integer
    # that is no kernel value.  Until the load checks V, B_4 prints as -1/3
    # with exit 0.
    env = {"KERNEL_CACHE_DIR": str(tmp_path)}
    assert _run_subprocess(["table", "--kind", "b", "--upto", "6"], env).returncode == 0
    cache_file = tmp_path / "kernel_b.txt"
    lines = cache_file.read_text().splitlines()
    assert lines[2] == "2 7"
    lines[2] = "2 46"
    cache_file.write_text("\n".join(lines) + "\n")
    proc = _run_subprocess(["bernoulli", "--upto", "3"], env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "kernel_b.txt:3" in proc.stderr


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
        ["eval", "gamma", "--x", "5", "--terms", "3"],
        ["eval", "hurwitz", "--x", "5", "--terms", "3"],
    ],
    ids=["euler", "compositions", "verify", "eval-gamma", "eval-hurwitz"],
)
def test_cache_dir_reads_only_the_kind_used(tmp_path, argv):
    # None of these reads the b table, so a damaged one neither fails them
    # nor gets rewritten by them.
    garbage = b"zero one\n"
    (tmp_path / "kernel_b.txt").write_bytes(garbage)
    proc = _run_subprocess(argv, {"KERNEL_CACHE_DIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "kernel_b.txt").read_bytes() == garbage


def test_error_inside_a_command_exits_2_and_writes_no_table(capsys, monkeypatch, tmp_path):
    # A fresh process-wide table, so the command surely extends it.
    monkeypatch.setattr(kernels, "_shared", _fresh_shared())

    def broken_pipe(args):
        kernels.kernel_recursive(KernelKind(args.kind), args.n)
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_kernel", broken_pipe)
    monkeypatch.setenv("KERNEL_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "kernel", "--kind", "b", "--n", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Broken pipe" in err
    assert len(kernels.shared_cache(KernelKind.BERNOULLI)) == 6
    assert os.listdir(tmp_path) == []


def test_cache_dir_naming_a_file_exits_2_and_leaves_it(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"not a directory\n")
    # The directory is checked before the command runs, so nothing is printed.
    proc = _run_subprocess(["table", "--kind", "b", "--upto", "3"], {"KERNEL_CACHE_DIR": str(plain)})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: KERNEL_CACHE_DIR={plain} ")
    assert "Traceback" not in proc.stderr
    assert plain.read_bytes() == b"not a directory\n"


def _readme_limits():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (`[^|]*) \| (\d+) \|", readme, flags=re.MULTILINE)
    return {flag: int(limit) for flag, limit in rows}


def test_ceiling_tables_state_the_limits_in_force():
    # README's table is the one statement of each ceiling; it must not
    # drift from the constants the parser checks.
    assert _readme_limits() == {
        "`--upto` of `table`, `bernoulli`, `euler`, `a-coeff`": UPTO_LIMIT,
        "`kernel --n`": UPTO_LIMIT,
        "`verify --exact`": EXACT_DEPTH_LIMIT,
        "`verify --brute`": BRUTE_DEPTH_LIMIT,
        "`compositions --n`": COMPOSITIONS_LIMIT,
    }
