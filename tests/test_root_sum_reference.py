"""The root-sum audits against a reference written without the audit layer.

`audit --method roots` and `audit --method shortened` must print, byte for
byte, what `reference_lines` rebuilds from the array alone: every hermitian
product counted by a plain zip loop over the coordinates and reduced with
`reduce_root_sum`.  Each exits 1 when those lines end in an `error` line and
0 otherwise.  For `shortened` the reference runs the same loop on the
normalized array, where the m copies of the repeated row are m coordinates
that are 0 in every vector; its implied bound is N - m + 1.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oakit import (
    OrthogonalArray,
    format_oa,
    generate_linear_oa,
    normalize_repeated_row,
    reduce_root_sum,
    stack,
)
from oakit.cli import REPORT_HEADER, main
from test_invariance import BASES, relabelled
from test_mutations import mutants

# Besides BASES: oa43 with every row 3 times and oa353_m2 twice (row
# multiplicities 2 and 4), oa65 with its rows shuffled and a one-cell forgery
# of that, and the order-4 cyclic Latin square, rows (x, y, x + y mod 4), with
# its first one-cell mutant.  Over n = 4 the multiplier 2 is its own negation
# mod 4 and maps two symbols together, so each vector 2Cj is its own
# conjugate and holds only the symbols 0 and 2.  Last, oa65 with column 6
# replaced by column 5: each vector alpha C5 equals alpha C6, so one vector
# value has two labels, and both audits fail at orth@1C5,1C6.
OA65_SHUFFLED = generate_linear_oa(5, 6)
OA65_SHUFFLED = OrthogonalArray(5, 6, tuple(random.Random(0).sample(OA65_SHUFFLED.rows, 25)))
LATIN4 = OrthogonalArray(4, 3, tuple((x, y, (x + y) % 4) for x in range(4) for y in range(4)))
REPEATED_COLUMN = OrthogonalArray(
    5, 6, tuple(row[:5] + row[4:5] for row in generate_linear_oa(5, 6).rows)
)
INPUTS = {
    **BASES,
    "stacked_oa43": (stack(BASES["oa43"][0], 3), 3),
    "stacked_oa353_m2": (stack(BASES["oa353_m2"][0], 2), 4),
    "shuffled_oa65": (OA65_SHUFFLED, 1),
    "forged_shuffled_oa65": (next(mutants(OA65_SHUFFLED)), 1),
    "latin4": (LATIN4, 1),
    "forged_latin4": (next(mutants(LATIN4)), 1),
    "repeated_column_oa65": (REPEATED_COLUMN, 1),
}


def _poly(residual):
    if len(residual) == 1:
        return str(residual[0])
    return "(" + ",".join(map(str, residual)) + ")" if residual else "0"


def reference_lines(array, method, m):
    """The stdout lines of `oakit audit --method <method> --m <m>` on `array`."""
    n, k, N = array.n, array.k, array.N
    lines = [REPORT_HEADER, f"method {method}"]
    size = 1 + k * (n - 1)
    if method == "roots":
        extra, notes, rhs = [], [], N
    else:
        try:
            array = normalize_repeated_row(array, m)
        except ValueError:
            return lines + ["error invalid-claim"]
        extra, rhs = [f"m {m}"], N - m + 1
        notes = [
            f"# coordinate merging proves k(n-1)+m = {k * (n - 1) + m} <= N = {N}; "
            f"the counting bound sharpens this to m(k(n-1)+1) = {m * (k * (n - 1) + 1)} <= N"
        ]
    columns = list(zip(*array.rows))
    family = [("C0", (0,) * N)] + [
        (f"{mult}C{j + 1}", tuple(mult * s % n for s in columns[j]))
        for j in range(k)
        for mult in range(1, n)
    ]

    def reduced(u, v):
        counts = [0] * n
        for x, y in zip(u, v):
            counts[(x - y) % n] += 1
        return reduce_root_sum(tuple(counts), n)

    checks = [("family-size", str(len(family)), str(size), len(family) == size)]
    for label, u in family:
        r = reduced(u, u)
        checks.append((f"self@{label}", _poly(r), str(N), r == (N,)))
    for a, (la, u) in enumerate(family):
        for lb, v in family[a + 1 :]:
            r = reduced(u, v)
            checks.append((f"orth@{la},{lb}", _poly(r), "0", r == ()))
    passed = all(ok for *_, ok in checks) and size <= rhs
    verdict = ("TIGHT" if size == rhs else "PASS") if passed else "FAIL"
    report = notes + [f"CHECK {c} {lhs} {r} {'PASS' if ok else 'FAIL'}" for c, lhs, r, ok in checks]
    report.append(f"IMPLIES {size}<={rhs} {verdict}")
    if passed:
        return lines + extra + report
    failing = [f"failing-check {c}" for c, *_, ok in checks if not ok][:1]
    return lines + report + failing + ["error audit-failed"]


def assert_cli_matches_reference(array, m, path):
    path.write_text(format_oa(array))
    for method in ("roots", "shortened"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["audit", str(path), "--method", method, "--m", str(m)])
        expected = reference_lines(array, method, m)
        assert out.getvalue().splitlines() == expected, (method, m, array.rows)
        failed = any(line.startswith("error ") for line in expected)
        assert code == (1 if failed else 0), (method, m, array.rows)


@pytest.mark.parametrize("base", INPUTS)
def test_root_sum_audits_match_the_reference_on_every_forged_cell(tmp_path, base):
    array, m = INPUTS[base]
    assert_cli_matches_reference(array, m, tmp_path / "array.txt")
    for mutant in mutants(array):
        assert_cli_matches_reference(mutant, m, tmp_path / "array.txt")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("root-sums")


@pytest.mark.parametrize("base", INPUTS)
@settings(max_examples=20)
@given(data=st.data())
def test_root_sum_audits_match_the_reference_on_rewritten_arrays(workdir, base, data):
    array, m = INPUTS[base]
    rows = data.draw(st.permutations(range(array.N)), label="rows")
    columns = data.draw(st.permutations(range(array.k)), label="columns")
    symbols = data.draw(
        st.lists(st.permutations(range(array.n)), min_size=array.k, max_size=array.k),
        label="symbols",
    )
    array = relabelled(array, rows, columns, symbols)
    forged = data.draw(st.none() | st.sampled_from(list(mutants(array))), label="forged")
    claim = data.draw(st.integers(1, m), label="m")
    assert_cli_matches_reference(forged or array, claim, workdir / f"{base}.txt")
