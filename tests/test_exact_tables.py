"""The exact tables of the O(n^2) routes, pinned byte for byte.

The determinant, the coefficient recursion and the two oracles each yield
their rows from one generator.  A change to how a route steps its rows
must leave every value it yields as it was, so each table's
``format_rational`` text is pinned by its sha256.  The digests were first
checked against an independent route: ``kernel_recursive``, ``a_from_kb``,
``sequences.bernoulli`` and ``sequences.euler``.  The recursion's table as
``bekernels table`` prints it, in each format, is pinned the same way.
"""

import hashlib
from itertools import islice

import pytest

from bekernels.cli import main

from bekernels.exactnum import format_rational
from bekernels.kernels import KernelKind, determinant_rows
from bekernels.oracles import bernoulli_numbers, zigzag_numbers
from bekernels.sequences import a_recursive_rows


def _digest(values) -> str:
    text = "".join(f"{format_rational(value)}\n" for value in values)
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_tables_are_pinned():
    digests = {
        "determinant b": _digest(islice(determinant_rows(KernelKind.BERNOULLI), 1, 401)),
        "determinant e": _digest(islice(determinant_rows(KernelKind.EULER), 1, 401)),
        "a_recursive": _digest(islice(a_recursive_rows(), 200)),
        "bernoulli_numbers": _digest(bernoulli_numbers(400)),
        "zigzag_numbers": _digest(zigzag_numbers(400)),
    }
    assert digests == {
        "determinant b": "11279f1963e1d89525bdf5d1d4c29f7e03028b1b2104cc117c4d45783cd778c1",
        "determinant e": "bd219a6d5412207b61a374c67c0d884bee6312536e8c5873aa05f905f44f46f4",
        "a_recursive": "dd5b0dafccc50fe7ee73e47d014ae3c2926a611db6c530b9ecea086752ec830a",
        "bernoulli_numbers": "026cc494146091791823f5ce3b3eae4be13941d4118e469cfb816ead883235c0",
        "zigzag_numbers": "1291dbd12b901ba39cc342e55267b0487412ae1d5f3af3ce7cef700d2029a636",
    }


@pytest.mark.parametrize(
    "kind, format, digest",
    [
        ("b", "plain", "4b435ce1749365cba8a4483a3ec62ed03690e4eecc39e10af038501d39ae3118"),
        ("b", "csv", "6eadb7aa59e2ce5bef4d6b7563cd09dee3271d962cfa1fccd07ec468c7e46248"),
        ("b", "json", "83e3a665441a689b7df53e7f2d138177cb7ab3b5703e61968d6690483018f1a9"),
        ("e", "plain", "d0c61e58fe2e17ddbfed416aefea18f6948c959d84c93725da46b83585e4d38f"),
        ("e", "csv", "f9e1db134c2aa20ad90f0fd547ab8b1bb9088fbd11fe1b9fc59f7e38be99649e"),
        ("e", "json", "4230094fb9ec0c6638a615df175487f3efce094b0c0944bb56d374dcf105f35d"),
    ],
)
def test_printed_table_is_pinned(kind, format, digest, capsys):
    assert main(["table", "--kind", kind, "--upto", "400", "--format", format]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
