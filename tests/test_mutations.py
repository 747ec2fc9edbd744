"""Single-cell mutations: every one-symbol change of a valid array is caught.

A strength-2 array loses a symbol pair when any one cell changes, so
`strength_lambda` rejects every mutant, and each audit must fail it too:
the library functions with a typed AuditFailure or NotAnOA (ValueError
when the change removes the claimed repeated row), the CLI with exit
code 1, an `error` line and no passing IMPLIES line.
"""

import pytest

from oakit import (
    AuditFailure,
    NotAnOA,
    check_span_equations,
    cwc_certificate,
    extract_cwc,
    format_oa,
    gram_certificate,
    incidence_matrix,
    normalize_repeated_row,
    orthogonality_certificate,
    rank_bound_certificate,
    root_vector_family,
    row_multiplicities,
    shortened_family_certificate,
    strength_lambda,
    to_transversal_design,
    variance_audit,
)
from oakit.cli import AUDIT_METHODS, main
from forgeries import mutants
from test_failure_messages import design_of

BASES = [("parity", 1), ("stacked_parity", 2), ("oa43", 1), ("oa353_m2", 2)]


# Audits that take no multiplicity claim, then those that claim m.
FREE_AUDITS = {
    "td-rank": lambda a: rank_bound_certificate(incidence_matrix(to_transversal_design(a))),
    "span": lambda a: check_span_equations(design_of(a)),
    "gram": gram_certificate,
    "roots": lambda a: orthogonality_certificate(root_vector_family(a)),
}
CLAIM_AUDITS = {
    "variance": variance_audit,
    "shortened": shortened_family_certificate,
    "cwc": lambda a, m: cwc_certificate(normalize_repeated_row(a, m), m),
    "extract-cwc": lambda a, m: extract_cwc(normalize_repeated_row(a, m), m),
}


def raised(audit, *args):
    """The exception `audit(*args)` raises, or None."""
    try:
        audit(*args)
    except Exception as exc:  # the test asserts its type
        return exc
    return None


@pytest.mark.parametrize("base,m", BASES)
def test_library_rejects_every_single_cell_mutation(request, base, m):
    array = request.getfixturevalue(base)
    count = 0
    for mutant in mutants(array):
        count += 1
        with pytest.raises(NotAnOA):
            strength_lambda(mutant, 2)
        claim_lost = row_multiplicities(mutant).max_multiplicity < m
        for name, audit in FREE_AUDITS.items():
            assert isinstance(raised(audit, mutant), (AuditFailure, NotAnOA)), name
        for name, audit in CLAIM_AUDITS.items():
            error = raised(audit, mutant, m)
            if claim_lost:
                assert type(error) is ValueError, name
            else:
                assert isinstance(error, (AuditFailure, NotAnOA)), name
    assert count == array.N * array.k * (array.n - 1)


@pytest.mark.parametrize("base,m", BASES)
def test_cli_audits_reject_every_single_cell_mutation(request, capsys, tmp_path, base, m):
    array = request.getfixturevalue(base)
    path = tmp_path / "mutant.txt"
    for mutant in mutants(array):
        path.write_text(format_oa(mutant))
        for method in AUDIT_METHODS:
            code = main(["audit", str(path), "--method", method, "--m", str(m)])
            lines = capsys.readouterr().out.splitlines()
            assert code == 1, (method, mutant.rows)
            assert lines[0] == "#REPORT v1"
            assert any(line.startswith("error ") for line in lines), method
            assert not any(
                line.startswith("IMPLIES ") and not line.endswith(" FAIL") for line in lines
            ), method
