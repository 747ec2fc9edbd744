"""Pinned failures: the exact message and attributes of each typed audit
failure, and the exact stderr of the CLI audits of a forged array.

A refactoring of the failure paths must leave every value here unchanged.
"""

import pathlib

import pytest

import oakit.certificates as certificates
from oakit import (
    AuditFailure,
    AuditReport,
    Check,
    EquationViolated,
    IdentityViolated,
    IncidenceMatrix,
    InnerProductMismatch,
    LemmaViolated,
    NonOrthogonal,
    NonpositiveDeterminant,
    OrthogonalArray,
    RankDeficient,
    RootVectorFamily,
    TransversalDesign,
    WeightMismatch,
    check_span_equations,
    cwc_certificate,
    extract_cwc,
    format_oa,
    generate_linear_oa,
    gram_certificate,
    incidence_matrix,
    integer_det,
    integer_rank,
    normalize_to_row,
    orthogonality_certificate,
    parse_oa,
    rank_bound_certificate,
    root_vector_family,
    shortened_family_certificate,
    stack,
    to_transversal_design,
    variance_audit,
)
from oakit.cli import main

DATA = pathlib.Path(__file__).parent / "data"

PARITY = generate_linear_oa(2, 3)
NORMALIZED = normalize_to_row(stack(PARITY, 2), 0)


def corrupt(array):
    rows = list(array.rows)
    rows[-1] = (1,) * array.k
    return OrthogonalArray(array.n, array.k, tuple(rows))


def swap(array, col, i, j):
    """Swap two cells of one column: every column keeps its symbol counts."""
    rows = [list(r) for r in array.rows]
    rows[i][col], rows[j][col] = rows[j][col], rows[i][col]
    return OrthogonalArray(array.n, array.k, tuple(tuple(r) for r in rows))


def design_of(array):
    """The transversal design of any array, without the strength check."""
    n, k = array.n, array.k
    groups = tuple(tuple(j * n + s for s in range(n)) for j in range(k))
    blocks = tuple(tuple(j * n + row[j] for j in range(k)) for row in array.rows)
    return TransversalDesign(n, k, array.N // (n * n), groups, blocks)


def extra_block():
    td = to_transversal_design(PARITY)
    blocks = td.blocks[:-1] + ((1, 3, 5),)
    return check_span_equations(TransversalDesign(td.n, td.k, td.lam, td.groups, blocks))


def collapsed_rank():
    inc = incidence_matrix(to_transversal_design(PARITY))
    rows = (inc.matrix[0],) * len(inc.matrix)
    return rank_bound_certificate(IncidenceMatrix(inc.n, inc.k, inc.lam, inc.row_labels, rows))


def short_family():
    fam = root_vector_family(corrupt(PARITY))
    keep = [0] + list(range(2, len(fam.vectors)))
    return orthogonality_certificate(
        RootVectorFamily(
            fam.n,
            fam.k,
            fam.N,
            tuple(fam.labels[i] for i in keep),
            tuple(fam.vectors[i] for i in keep),
        )
    )


def shifted_witness():
    rows = list(parse_oa((DATA / "oa353_m2.txt").read_text()).rows)
    rows[5] = ((rows[5][0] + 1) % 3,) + rows[5][1:]
    return shortened_family_certificate(OrthogonalArray(3, 5, tuple(rows)), 2)


def weight_broken():
    rows = list(NORMALIZED.rows)
    rows[0] = (1,) + rows[0][1:]
    return cwc_certificate(OrthogonalArray(2, 3, tuple(rows)), 2)


# (error type, str(exc), check_id, coordinate, pair, residual)
CASES = [
    pytest.param(
        lambda: variance_audit(corrupt(PARITY)),
        (IdentityViolated, "sum-a: computed 2, predicted 3", "sum-a", None, None, None),
        id="variance",
    ),
    pytest.param(
        extra_block,
        (EquationViolated, "eq1: (2,2,2,2,1,3) != (2,2,2,2,2,2)", "eq1", None, None, None),
        id="span-eq1",
    ),
    pytest.param(
        lambda: check_span_equations(design_of(swap(PARITY, 2, 0, 1))),
        (EquationViolated, "eq3@2: (1,1,3,1,0,2) != (1,1,3,1,1,1)", "eq3@2", 2, None, None),
        id="span-eq3",
    ),
    pytest.param(
        collapsed_rank,
        (RankDeficient, "rank: rank 1, expected 6", "rank", None, None, None),
        id="td-rank",
    ),
    pytest.param(
        lambda: gram_certificate(corrupt(PARITY)),
        (LemmaViolated, "Gram entry (1, 4): got 0, expected 1", "lemma-entrywise", None, None, None),
        id="gram-lemma",
    ),
    pytest.param(
        lambda: orthogonality_certificate(root_vector_family(corrupt(PARITY))),
        (NonOrthogonal, "orth@C0,1C3: reduced to -2, expected 0", "orth@C0,1C3", None, ("C0", "1C3"), (-2,)),
        id="roots",
    ),
    pytest.param(
        short_family,
        (NonOrthogonal, "family-size: reduced to 3, expected 4", "family-size", None, ("C0", "1C3"), (-2,)),
        id="roots-family-size",
    ),
    pytest.param(
        shifted_witness,
        (NonOrthogonal, "orth@C0,1C1: reduced to (-2,-1), expected 0", "orth@C0,1C1", None, ("C0", "1C1"), (-2, -1)),
        id="shortened",
    ),
    pytest.param(
        weight_broken,
        (WeightMismatch, "weight@1: got 1, expected 2", "weight@1", None, None, None),
        id="cwc-weight",
    ),
    pytest.param(
        lambda: cwc_certificate(swap(NORMALIZED, 0, 0, 2), 2),
        (InnerProductMismatch, "ip@1,3: got 1, expected 0", "ip@1,3", None, None, None),
        id="cwc-ip",
    ),
    pytest.param(
        lambda: extract_cwc(swap(NORMALIZED, 0, 0, 2), 2),
        (InnerProductMismatch, "ip@1,3: got 1, expected 0", "ip@1,3", None, None, None),
        id="extract-cwc",
    ),
]


def failure_of(audit):
    with pytest.raises(AuditFailure) as info:
        audit()
    exc = info.value
    assert exc.report is not None and not exc.report.passed
    fields = (
        type(exc),
        str(exc),
        exc.check_id,
        getattr(exc, "coordinate", None),
        getattr(exc, "pair", None),
        getattr(exc, "residual", None),
    )
    return exc, fields


@pytest.mark.parametrize("audit,expected", CASES)
def test_typed_failure_is_pinned(audit, expected):
    exc, fields = failure_of(audit)
    assert fields == expected
    failing = [c for c in exc.report.checks if not c.passed]
    assert failing[0].check_id == exc.check_id


def test_nonpositive_determinant_is_pinned(monkeypatch):
    monkeypatch.setattr(certificates, "integer_det", lambda matrix: 0)
    _, fields = failure_of(lambda: gram_certificate(PARITY))
    expected = (NonpositiveDeterminant, "Gram determinant 0 is not positive", "det-positive")
    assert fields == expected + (None, None, None)


def test_failed_implied_bound_is_pinned(monkeypatch):
    failed = AuditReport("cwc", (Check("weight@1", "2", "2", True),), 3, 2, (6, 8))
    monkeypatch.setattr(certificates, "cwc_certificate", lambda array, m: failed)
    with pytest.raises(AuditFailure) as info:
        extract_cwc(NORMALIZED, 2)
    assert type(info.value) is AuditFailure
    assert str(info.value) == "implied bound 3<=2 fails"
    assert (info.value.report, info.value.check_id) == (failed, None)


@pytest.mark.parametrize(
    "call",
    [
        lambda: integer_det([[1.5, 0], [0, 2]]),
        lambda: integer_rank([[True, False], [False, True]]),
        lambda: integer_rank([[1.0, 3], [2, 4]]),
        lambda: integer_det([[2, 0], [0, False]]),
    ],
    ids=["det-float", "rank-bool", "rank-float", "det-bool"],
)
def test_non_int_matrix_entries_are_pinned(call):
    # a float or a bool must never decide a rank or a determinant
    with pytest.raises(TypeError) as info:
        call()
    assert type(info.value) is TypeError
    assert str(info.value) == "matrix entries must be ints"


FORGED_STDERR = {
    "variance": ("columns (0, 1): tuple (0, 1) occurs 0 times, expected 1\n", "error not-an-oa"),
    "gram": ("Gram entry (0, 6): got 0, expected 1\n", "error audit-failed"),
    "roots": ("orth@C0,1C2: reduced to (1,1,1,2), expected 0\n", "error audit-failed"),
}


@pytest.mark.parametrize("method", sorted(FORGED_STDERR))
def test_cli_stderr_on_a_forged_array_is_pinned(capsys, tmp_path, method):
    oa65 = generate_linear_oa(5, 6)
    rows = list(oa65.rows)
    rows[1] = (0, 2) + rows[1][2:]
    path = tmp_path / "forged.txt"
    path.write_text(format_oa(OrthogonalArray(5, 6, tuple(rows))))
    assert main(["audit", str(path), "--method", method]) == 1
    captured = capsys.readouterr()
    stderr, last = FORGED_STDERR[method]
    assert captured.err == stderr
    assert captured.out.startswith("#REPORT v1\n")
    assert captured.out.endswith(last + "\n")


def test_variance_claim_of_every_row_is_pinned(capsys, tmp_path):
    # m = N leaves no row to count, so the mean abar has denominator 0
    constant = OrthogonalArray(2, 3, ((0, 0, 0),) * 4)
    with pytest.raises(ValueError) as info:
        variance_audit(constant, 4)
    assert type(info.value) is ValueError
    assert str(info.value) == "need lambda*n**2 > m"
    path = tmp_path / "constant.txt"
    path.write_text(format_oa(constant))
    assert main(["audit", str(path), "--method", "variance", "--m", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "#REPORT v1\nmethod variance\nerror invalid-claim\n"
    assert captured.err == "need lambda*n**2 > m\n"


@pytest.mark.parametrize(
    "argv", [["verify"], ["audit", "--method", "roots"]], ids=["verify", "audit"]
)
def test_cli_stderr_on_a_non_utf8_file_is_pinned(capsys, tmp_path, argv):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oakit: cannot read {path}: not UTF-8 (invalid start byte at byte 0)\n"
    assert captured.out == ""
