"""Verdicts do not depend on how an array is written down.

Row order, column order and the names of the symbols in each column are
presentation only.  Under any of them every audit method keeps its exit
code, its verdict (the PASS/FAIL tally of its checks and its `error` line)
and its IMPLIES line, and `verify` keeps its exit code and every line but
the index of the witness row.
"""

import contextlib
import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from oakit import OrthogonalArray, format_oa, generate_linear_oa, parse_oa, stack
from oakit.cli import AUDIT_METHODS, main

PARITY = generate_linear_oa(2, 3)
BASES = {
    "parity": (PARITY, 1),
    "stacked_parity": (stack(PARITY, 2), 2),
    "oa43": (generate_linear_oa(3, 4), 1),
    "oa353_m2": (parse_oa((DATA / "oa353_m2.txt").read_text()), 2),
}


def relabelled(array, rows, columns, symbols):
    """Rows in the order `rows`, columns in the order `columns`, and symbol s
    of new column j renamed symbols[j][s]."""
    return OrthogonalArray(
        array.n,
        array.k,
        tuple(
            tuple(symbols[j][array.rows[i][c]] for j, c in enumerate(columns)) for i in rows
        ),
    )


def outcomes(array, m, path):
    """(command, exit code, verdict) of verify and of every audit method."""
    path.write_text(format_oa(array))
    results = []
    for argv in [["verify", str(path)]] + [
        ["audit", str(path), "--method", method, "--m", str(m)] for method in AUDIT_METHODS
    ]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        lines = out.getvalue().splitlines()
        if argv[0] == "verify":
            verdict = [line for line in lines if not line.startswith("witness-row ")]
        else:
            checks = Counter(line.split()[-1] for line in lines if line.startswith("CHECK "))
            verdict = [sorted(checks.items())]
            verdict += [line for line in lines if line.startswith(("error ", "IMPLIES "))]
        results.append((" ".join(argv[:1] + argv[3:4]), code, verdict))
    return results


@pytest.fixture(scope="module")
def unpermuted(tmp_path_factory):
    """A scratch directory, and the outcomes of each base array as given."""
    root = tmp_path_factory.mktemp("invariance")
    return root, {base: outcomes(a, m, root / f"{base}.txt") for base, (a, m) in BASES.items()}


@pytest.mark.parametrize("base", BASES)
@settings(max_examples=50)
@given(data=st.data())
def test_verdicts_survive_row_column_and_symbol_permutations(unpermuted, base, data):
    workdir, expected = unpermuted
    array, m = BASES[base]
    rows = data.draw(st.permutations(range(array.N)), label="rows")
    columns = data.draw(st.permutations(range(array.k)), label="columns")
    symbols = data.draw(
        st.lists(st.permutations(range(array.n)), min_size=array.k, max_size=array.k),
        label="symbols",
    )
    permuted = relabelled(array, rows, columns, symbols)
    assert outcomes(permuted, m, workdir / "permuted.txt") == expected[base]
    assert all(code == 0 for _, code, _ in expected[base])
