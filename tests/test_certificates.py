import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oakit.certificates as certificates
import oakit.linalg as linalg
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
    NotAnOA,
    OrthogonalArray,
    RankDeficient,
    RootVectorFamily,
    TransversalDesign,
    WeightMismatch,
    check_span_equations,
    cwc_certificate,
    extract_cwc,
    generate_linear_oa,
    gram_certificate,
    incidence_matrix,
    integer_det,
    integer_rank,
    normalize_repeated_row,
    normalize_to_row,
    orthogonality_certificate,
    rank_bound_certificate,
    reduce_root_sum,
    root_vector_family,
    shortened_family_certificate,
    stack,
    to_transversal_design,
    variance_audit,
)
from forgeries import corrupt, shift_cell
from test_root_sum_reference import LATIN4, REPEATED_COLUMN, _poly


def forge(array):
    """Move one cell of row 1 between two nonzero symbols.

    Every row keeps its zero pattern, so each count the variance and cwc
    audits take is unchanged, but a symbol pair of columns (0, 1) is lost.
    """
    rows = list(array.rows)
    assert rows[0] == (0,) * array.k and rows[1][1] not in (0, 2)
    rows[1] = rows[1][:1] + (2,) + rows[1][2:]
    return OrthogonalArray(array.n, array.k, tuple(rows))


def test_check_is_an_immutable_record_of_four_fields():
    check = Check("orth@C0,1C1", "(-2,-1)", "0", False)
    assert Check._fields == ("check_id", "lhs", "rhs", "passed")
    assert repr(check) == "Check(check_id='orth@C0,1C1', lhs='(-2,-1)', rhs='0', passed=False)"
    same = Check(check_id="orth@C0,1C1", lhs="(-2,-1)", rhs="0", passed=False)
    assert check == same and hash(check) == hash(same)
    assert check != Check("orth@C0,1C1", "(-2,-1)", "0", True)
    assert check == ("orth@C0,1C1", "(-2,-1)", "0", False)
    with pytest.raises(AttributeError):
        check.passed = True
    assert check.passed is False


@pytest.mark.parametrize(
    "audit",
    [
        lambda array: variance_audit(array).report,
        lambda array: cwc_certificate(normalize_to_row(array, 0), 1),
    ],
    ids=["variance", "cwc"],
)
def test_count_audits_reject_a_forged_array(oa65, audit):
    assert audit(oa65).tight
    with pytest.raises(NotAnOA):
        audit(forge(oa65))


# ---------------------------------------------------------------------------
# variance audit
# ---------------------------------------------------------------------------


def test_variance_equality_case(parity):
    audit = variance_audit(parity)
    assert audit.report.passed
    assert audit.equality_case
    assert audit.abar == 1
    assert audit.ssd == 0
    assert audit.report.verdict() == "TIGHT"
    assert audit.report.lines()[-1] == "IMPLIES 3<=3 TIGHT"


def test_variance_doubled_equality_case(stacked_parity):
    audit = variance_audit(stacked_parity, m=2)
    assert audit.equality_case
    assert audit.abar == 1
    assert audit.report.canonical == (8, 8)
    assert audit.report.verdict() == "TIGHT"


def test_variance_on_frozen_witness(oa353_m2):
    audit = variance_audit(oa353_m2, m=2)
    assert audit.report.passed
    assert audit.report.implied_rhs == Fraction(25, 4)
    assert audit.report.canonical == (22, 27)
    assert not audit.equality_case
    # the identities must also hold with the weaker claim m = 1
    weaker = variance_audit(oa353_m2, m=1)
    assert weaker.report.passed
    assert weaker.report.canonical == (11, 27)


@pytest.mark.parametrize("m", [1, 2])
def test_variance_sums_match_closed_forms(oa353_m2, m):
    n, k, lam = 3, 5, 3
    audit = variance_audit(oa353_m2, m=m)
    (sum_a, pred_a), (sum_p, pred_p), (sum_sq, pred_sq) = audit.sums
    assert sum_a == pred_a == k * (lam * n - m)
    assert sum_p == pred_p == k * (k - 1) * (lam - m)
    assert sum_sq == pred_sq == k * (k * (lam - m) + lam * (n - 1))
    assert audit.ssd == sum_sq - Fraction(sum_a**2, lam * n * n - m)


def test_variance_rejects_wrong_multiplicity(parity):
    with pytest.raises(ValueError):
        variance_audit(parity, m=2)  # no repeated row exists


def test_variance_detects_corruption(parity):
    with pytest.raises(IdentityViolated) as exc:
        variance_audit(corrupt(parity))
    assert exc.value.check_id in ("sum-a", "sum-a(a-1)", "sum-a^2")
    report = exc.value.report
    assert not report.checks_passed
    assert any(line.endswith("FAIL") for line in report.lines())


# ---------------------------------------------------------------------------
# transversal design, span equations, rank
# ---------------------------------------------------------------------------


def test_transversal_design_structure(parity):
    td = to_transversal_design(parity)
    assert td.lam == 1
    assert td.groups == ((0, 1), (2, 3), (4, 5))
    assert td.blocks[0] == (0, 2, 4)
    assert all(len(set(b)) == 3 for b in td.blocks)


def test_transversal_design_requires_strength(parity):
    with pytest.raises(NotAnOA):
        to_transversal_design(corrupt(parity))


def test_incidence_matrix_shape(oa43):
    inc = incidence_matrix(to_transversal_design(oa43))
    assert len(inc.matrix) == oa43.N + oa43.k
    assert all(len(row) == oa43.n * oa43.k for row in inc.matrix)
    assert all(sum(row) == oa43.k for row in inc.matrix[: oa43.N])
    assert all(sum(row) == oa43.n for row in inc.matrix[oa43.N :])
    assert inc.row_labels[0] == ("block", 0)
    assert inc.row_labels[-1] == ("group", oa43.k - 1)


@pytest.mark.parametrize("name", ["parity", "stacked_parity", "oa353_m2"])
def test_incidence_matrix_matches_its_definition(request, name):
    # Block row i has a 1 exactly at j*n + row_i[j], group row j exactly at
    # j*n .. j*n + n - 1; block rows come first, each kind in index order.
    array = request.getfixturevalue(name)
    n, k, N = array.n, array.k, array.N
    inc = incidence_matrix(to_transversal_design(array))
    blocks = [{j * n + row[j] for j in range(k)} for row in array.rows]
    groups = [set(range(j * n, j * n + n)) for j in range(k)]
    expected = [tuple(int(p in ones) for p in range(n * k)) for ones in blocks + groups]
    assert inc.matrix == tuple(expected)
    assert inc.row_labels == tuple(("block", i) for i in range(N)) + tuple(
        ("group", j) for j in range(k)
    )


def test_span_equations_pass(parity, oa43, oa242):
    for a in (parity, oa43, oa242):
        report = check_span_equations(to_transversal_design(a))
        assert report.passed
        assert report.method == "span-equations"
        assert report.implied_lhs == a.n * a.k
        assert report.implied_rhs == a.N + a.k - 1


def test_span_equations_detect_corruption(parity):
    td = to_transversal_design(parity)
    bad_blocks = td.blocks[:-1] + ((1, 3, 5),)  # block meets a point twice as often
    bad = TransversalDesign(td.n, td.k, td.lam, td.groups, bad_blocks)
    with pytest.raises(EquationViolated) as exc:
        check_span_equations(bad)
    assert exc.value.check_id is not None


def test_rank_certificate_tight_for_index_one(parity, oa43, oa65):
    for a in (parity, oa43, oa65):
        report = rank_bound_certificate(incidence_matrix(to_transversal_design(a)))
        assert report.passed
        # index-1 arrays with k = n+1 meet the bound with equality
        assert report.tight == (a.N + a.k - 1 == a.n * a.k)
        assert report.canonical == (a.k * (a.n - 1) + 1, a.N)


def test_rank_unchanged_by_duplicate_blocks(parity, stacked_parity):
    base = incidence_matrix(to_transversal_design(parity))
    doubled = incidence_matrix(to_transversal_design(stacked_parity))
    assert rank_bound_certificate(doubled).passed
    # same span: duplicated block rows add nothing
    assert integer_rank(doubled.matrix) == integer_rank(base.matrix)


def test_rank_certificate_detects_deficiency(parity):
    inc = incidence_matrix(to_transversal_design(parity))
    collapsed = (inc.matrix[0],) * len(inc.matrix)  # every row identical
    bad = IncidenceMatrix(inc.n, inc.k, inc.lam, inc.row_labels, collapsed)
    with pytest.raises(RankDeficient):
        rank_bound_certificate(bad)


def _count_rank_calls(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return integer_rank(matrix)

    monkeypatch.setattr(certificates, "integer_rank", counted)
    return calls


def _rank_checks(report):
    return {c.check_id: c.lhs for c in report.checks}


def test_rank_certificate_eliminates_once_when_the_reduced_rank_is_full(monkeypatch, oa43, stacked_parity):
    for a in (oa43, stacked_parity):
        inc = incidence_matrix(to_transversal_design(a))
        calls = _count_rank_calls(monkeypatch)
        report = rank_bound_certificate(inc)
        assert calls == [len(inc.matrix) - 1]
        assert _rank_checks(report) == {
            "rank": str(integer_rank(inc.matrix)),
            "rank-without-last-group": str(integer_rank(inc.matrix[:-1])),
        }


def test_rank_certificate_eliminates_twice_when_the_reduced_rank_falls_short(monkeypatch, parity):
    inc = incidence_matrix(to_transversal_design(parity))
    nk = inc.n * inc.k
    collapsed = (inc.matrix[0],) * len(inc.matrix)  # rank 1 with and without the last row
    # the unit vectors of the points: the last row alone lifts the rank to nk
    units = tuple(tuple(int(p == q) for q in range(nk)) for p in range(nk))
    for matrix in (collapsed, units):
        calls = _count_rank_calls(monkeypatch)
        with pytest.raises(RankDeficient) as exc:
            rank_bound_certificate(IncidenceMatrix(inc.n, inc.k, inc.lam, inc.row_labels, matrix))
        assert calls == [len(matrix) - 1, len(matrix)]
        assert _rank_checks(exc.value.report) == {
            "rank": str(integer_rank(matrix)),
            "rank-without-last-group": str(integer_rank(matrix[:-1])),
        }
    assert _rank_checks(exc.value.report) == {"rank": str(nk), "rank-without-last-group": str(nk - 1)}
    assert exc.value.check_id == "rank-without-last-group"


@pytest.mark.parametrize(
    "array",
    [generate_linear_oa(13, 14), stack(generate_linear_oa(11, 12), 2)],
    ids=["linear-13-14", "stacked-11-12"],
)
def test_rank_certificate_settles_over_gf2_on_odd_n(monkeypatch, array):
    # n odd: the incidence matrix reaches full rank nk over GF(2), so no
    # Bareiss elimination runs and the CHECK values are unchanged.
    def refuse(*args):
        raise AssertionError("Bareiss ran")

    monkeypatch.setattr(linalg, "_bareiss", refuse)
    nk = array.n * array.k
    report = rank_bound_certificate(incidence_matrix(to_transversal_design(array)))
    assert report.passed
    assert _rank_checks(report) == {"rank": str(nk), "rank-without-last-group": str(nk)}


def test_rank_certificate_on_the_parity_array_reaches_bareiss(monkeypatch, parity):
    # n = 2: the GF(2) rank falls short of nk, so the exact rank needs Bareiss.
    calls = []
    bareiss = linalg._bareiss

    def counted(rows, ncols):
        calls.append(len(rows))
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    inc = incidence_matrix(to_transversal_design(parity))
    report = rank_bound_certificate(inc)
    assert report.passed and calls == [len(inc.matrix) - 1]
    assert _rank_checks(report) == {"rank": "6", "rank-without-last-group": "6"}


def test_gram_determinant_keeps_the_closed_form(oa65):
    # det(lambda*J + diag(lambda*n, ..., lambda*n, (k-1)*lambda)) = (lambda*n)^(nk) * lambda * k^2
    lam, n, k = 1, oa65.n, oa65.k
    report = gram_certificate(oa65)
    det_check = next(c for c in report.checks if c.check_id == "det-positive")
    assert int(det_check.lhs) == (lam * n) ** (n * k) * lam * k * k


def test_span_equations_and_rank_agree(oa242):
    td = to_transversal_design(oa242)
    eq = check_span_equations(td)
    rk = rank_bound_certificate(incidence_matrix(td))
    assert (eq.implied_lhs, eq.implied_rhs) == (rk.implied_lhs, rk.implied_rhs)
    assert eq.canonical == rk.canonical


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------


def test_gram_determinant_frozen_value(parity):
    report = gram_certificate(parity)
    assert report.passed and report.tight
    assert report.lines()[-1] == "IMPLIES 7<=7 TIGHT"
    det_check = next(c for c in report.checks if c.check_id == "det-positive")
    assert det_check.lhs == "576"


def test_gram_determinant_matches_predicted_matrix(parity, oa43, oa242):
    # The certified determinant must equal that of the predicted matrix
    # lambda*J + diag(lambda*n, ..., lambda*n, (k-1)*lambda) built from the
    # parameters alone, without looking at the array entries.
    for a in (parity, oa43, oa242):
        lam = a.N // a.n**2
        nk = a.n * a.k
        predicted = [
            [
                lam + (lam * a.n if p == q else 0)
                for q in range(nk)
            ]
            + [lam]
            for p in range(nk)
        ]
        predicted.append([lam] * nk + [a.k * lam])
        report = gram_certificate(a)
        det_check = next(c for c in report.checks if c.check_id == "det-positive")
        assert int(det_check.lhs) == integer_det(predicted)


@pytest.mark.parametrize(
    "array",
    [generate_linear_oa(13, 14), stack(generate_linear_oa(11, 12), 2)],
    ids=["linear-13-14", "stacked-11-12"],
)
@pytest.mark.parametrize("permuted", [False, True], ids=["plain", "permuted"])
def test_gram_determinant_at_full_size(array, permuted):
    # det(lambda*J + diag(lambda*n, ..., lambda*n, (k-1)*lambda)) = (lambda*n)^(nk) * lambda * k^2
    if permuted:
        cols = [(5 * j + 3) % array.k for j in range(array.k)]
        rows = [tuple(row[c] for c in cols) for row in array.rows[::-1]]
        array = OrthogonalArray(array.n, array.k, tuple(rows))
    n, k, lam = array.n, array.k, array.N // array.n**2
    report = gram_certificate(array)
    assert report.passed
    det_check = next(c for c in report.checks if c.check_id == "det-positive")
    assert det_check.lhs == str((lam * n) ** (n * k) * lam * k * k)


@pytest.mark.parametrize(
    "array",
    [generate_linear_oa(13, 14), stack(generate_linear_oa(11, 12), 2)],
    ids=["linear-13-14", "stacked-11-12"],
)
def test_gram_elimination_gets_a_tridiagonal_matrix(monkeypatch, array):
    # Each row minus its predecessor, then each column minus its predecessor:
    # on a valid Gram matrix lambda*J collapses to entry (0, 0), so row p has
    # nonzeros exactly in columns p-1, p and p+1 that exist, and no row is dense.
    seen = []
    det = certificates.integer_det

    def captured(matrix):
        seen.append(matrix)
        return det(matrix)

    monkeypatch.setattr(certificates, "integer_det", captured)
    assert gram_certificate(array).passed
    [matrix] = seen
    size = len(matrix)
    support = [[j for j, x in enumerate(row) if x] for row in matrix]
    assert support == [[j for j in (p - 1, p, p + 1) if 0 <= j < size] for p in range(size)]


def test_gram_certificate_on_higher_index(oa242):
    report = gram_certificate(oa242)
    assert report.passed and not report.tight
    assert report.implied_lhs == 9
    assert report.implied_rhs == 12


def test_gram_detects_corruption(parity):
    with pytest.raises(LemmaViolated) as exc:
        gram_certificate(corrupt(parity))
    assert exc.value.check_id == "lemma-entrywise"
    assert exc.value.report is not None


# ---------------------------------------------------------------------------
# roots-of-unity family
# ---------------------------------------------------------------------------


def test_root_family_shape(oa43):
    family = root_vector_family(oa43)
    assert len(family.vectors) == 1 + oa43.k * (oa43.n - 1)
    assert family.labels[0] == "C0"
    assert family.labels[1] == "1C1"
    assert all(len(v) == oa43.N for v in family.vectors)


def zip_product(family, a, b):
    """The product of a and b counted by a plain loop over the zipped coordinates."""
    counts = [0] * family.n
    for u, v in zip(family.vectors[a], family.vectors[b]):
        counts[(u - v) % family.n] += 1
    return tuple(counts)


def assert_products_match_zip_loop(family):
    for a, b in itertools.product(range(len(family.vectors)), repeat=2):
        assert family.product(a, b) == zip_product(family, a, b), (a, b)


def audit_report(audit, *args):
    """The audit's report, taken from its NonOrthogonal when it fails."""
    try:
        return audit(*args)
    except NonOrthogonal as exc:
        return exc.report


@given(n=st.integers(2, 5), size=st.integers(1, 4), data=st.data())
def test_product_of_a_hand_built_family_is_the_zip_loop(n, size, data):
    # Distinct coordinates (columns of the vectors), each repeated some number
    # of times and shuffled.
    symbols = st.tuples(*[st.integers(0, n - 1)] * size)
    distinct = data.draw(st.lists(symbols, min_size=1, max_size=6, unique=True), label="coords")
    repeats = data.draw(st.lists(st.integers(1, 6), min_size=len(distinct), max_size=len(distinct)))
    coordinates = [c for c, r in zip(distinct, repeats) for _ in range(r)]
    coordinates = data.draw(st.permutations(coordinates), label="order")
    drawn = tuple(zip(*coordinates))
    # One drawn vector twice, so two labels hold one value; the negation of
    # one drawn vector, so the family holds conjugates; a constant vector.
    duplicated = data.draw(st.integers(0, size - 1), label="duplicated")
    negated = data.draw(st.integers(0, size - 1), label="negated")
    constant = data.draw(st.integers(0, n - 1), label="constant")
    vectors = (
        *drawn,
        drawn[duplicated],
        tuple((-e) % n for e in drawn[negated]),
        (constant,) * len(coordinates),
    )
    labels = tuple(f"v{i}" for i in range(len(vectors)))
    family = RootVectorFamily(n, 1, len(coordinates), labels, vectors)
    assert_products_match_zip_loop(family)
    assert family.vectors == vectors
    # The audit derives every twin it can: each CHECK must still read the
    # residual of the zip loop, whether or not the audit passes.
    checks = audit_report(orthogonality_certificate, family).checks
    asked = [(a, a) for a in range(len(vectors))]
    asked += itertools.combinations(range(len(vectors)), 2)
    expected = [_poly(reduce_root_sum(zip_product(family, a, b), n)) for a, b in asked]
    assert [c.lhs for c in checks[1:]] == expected


@pytest.mark.parametrize(
    "vectors",
    [((0, 1, 0, 1), (1, 1, 1, 1), (0, 0)), ((0, 0), (1, 1, 1, 1)), ((), ())],
    ids=["short-last", "short-first", "empty"],
)
def test_product_of_odd_hand_built_families_is_the_zip_loop(vectors):
    # Vectors of differing lengths, or of length 0: products stay the zip
    # loop's, cut at the shorter vector.
    labels = tuple(f"v{i}" for i in range(len(vectors)))
    family = RootVectorFamily(3, 1, 4, labels, vectors)
    assert_products_match_zip_loop(family)


@pytest.mark.parametrize(
    "array, products, loops",
    [
        (generate_linear_oa(13, 14), 14365, 7225),
        (shift_cell(generate_linear_oa(13, 14), 5, 0), 14365, 7225),
        (stack(generate_linear_oa(11, 12), 2), 7381, 3721),
        (LATIN4, 55, 34),
        (REPEATED_COLUMN, 325, 207),
    ],
    ids=[
        "linear-13-14",
        "one-cell-forgery-13-14",
        "stacked-11-12",
        "latin-square-4",
        "repeated-column-5-6",
    ],
)
def test_one_audit_counts_each_conjugate_pair_once(monkeypatch, array, products, loops):
    # Of a product and its twin, the audit counts the one it asks first and
    # derives the other.  A product that is its own twin is counted: C0 with
    # C0, each (alpha Cj, (n - alpha) Cj), and over n = 4 every product among
    # C0 and the self-conjugate vectors 2Cj.  Where two columns are equal
    # (REPEATED_COLUMN), one vector value has two labels and the negation
    # index keeps one of them.  These counts also pin each vector's negation
    # on the q = 13 array and on its forgery.
    loop, counted = RootVectorFamily.product, []

    def product(family, a, b):
        counted.append((a, b))
        return loop(family, a, b)

    monkeypatch.setattr(RootVectorFamily, "product", product)
    family = root_vector_family(array)
    report = audit_report(orthogonality_certificate, family)
    assert len(report.checks) - 1 == products
    assert len(counted) == loops
    # the family is a plain value: the audit leaves nothing in it
    assert set(vars(family)) == {"n", "k", "N", "labels", "vectors"}


def test_products_of_repeated_rows_are_the_zip_loop(stacked_parity, oa43, oa353_m2):
    # multiplicities 2 and 4, every row three times, and a broken pair of copies
    for array in (stack(oa353_m2, 2), stack(oa43, 3), shift_cell(stacked_parity, 0, 0)):
        assert_products_match_zip_loop(root_vector_family(array))


def test_orthogonality_certificate(parity, oa43, oa65, oa242):
    for a in (parity, oa43, oa65, oa242):
        report = orthogonality_certificate(root_vector_family(a))
        assert report.passed
        assert report.implied_lhs == 1 + a.k * (a.n - 1)
        assert report.implied_rhs == a.N
        assert report.tight == (1 + a.k * (a.n - 1) == a.N)


def test_orthogonality_detects_corruption(parity):
    family = root_vector_family(corrupt(parity))
    with pytest.raises(NonOrthogonal) as exc:
        orthogonality_certificate(family)
    assert exc.value.pair is not None
    assert exc.value.residual  # nonzero remainder modulo the cyclotomic


def test_a_failing_audit_leaves_no_reference_cycle(parity):
    # With the cyclic collector off, the report a failing audit carries dies
    # with its exception, when the handler ends.
    gc.disable()
    try:
        try:
            orthogonality_certificate(root_vector_family(corrupt(parity)))
        except NonOrthogonal as exc:
            report = weakref.ref(exc.report)
        assert report() is None
    finally:
        gc.enable()


def test_shortened_family_certificate(stacked_parity, oa353_m2):
    report = shortened_family_certificate(stacked_parity, 2)
    assert report.passed
    assert report.implied_lhs == 4
    assert report.implied_rhs == 7  # N - m + 1
    report = shortened_family_certificate(oa353_m2, 2)
    assert report.passed
    assert (report.implied_lhs, report.implied_rhs) == (11, 26)
    assert report.canonical == (12, 27)
    assert any("sharpens" in note for note in report.notes)


def merged_product(family, m, a, b):
    """The product of a and b with the last m coordinates merged into one of weight m."""
    u, v, N = family.vectors[a], family.vectors[b], family.N
    counts = [0] * family.n
    for x, y, w in zip(u[: N - m + 1], v[: N - m + 1], [1] * (N - m) + [m]):
        counts[(x - y) % family.n] += w
    return tuple(counts)


@pytest.mark.parametrize("forged", [False, True], ids=["valid", "one-cell-forgery"])
def test_shortened_audit_is_roots_audit_of_normalized_array(oa353_m2, forged):
    # The normalized repeated row is 0 in every vector, so merging its m
    # coordinates into one of weight m leaves every product exactly unchanged:
    # the shortened audit need not build the merged family.
    m = 2
    array = shift_cell(oa353_m2, 5, 0) if forged else oa353_m2
    family = root_vector_family(normalize_repeated_row(array, m))
    for a, b in itertools.combinations_with_replacement(range(len(family.vectors)), 2):
        assert merged_product(family, m, a, b) == family.product(a, b)
    shortened = audit_report(shortened_family_certificate, array, m)
    roots = audit_report(orthogonality_certificate, family)
    assert shortened.checks == roots.checks
    assert sum(not c.passed for c in shortened.checks) == (19 if forged else 0)


def _count_reductions(monkeypatch):
    calls = []
    reduce = certificates.reduce_root_sum

    def counted(counts, n):
        calls.append(counts)
        return reduce(counts, n)

    monkeypatch.setattr(certificates, "reduce_root_sum", counted)
    return calls


@pytest.mark.parametrize(
    "array, m",
    [(generate_linear_oa(13, 14), 1), (stack(generate_linear_oa(11, 12), 2), 2)],
    ids=["linear-13-14", "stacked-11-12"],
)
def test_root_sum_audits_reduce_each_count_vector_once(monkeypatch, array, m):
    # Self-products all count (N, 0, ..., 0) and off-diagonal ones (N/n, ..., N/n),
    # so each audit reduces two count vectors, not one per product.
    calls = _count_reductions(monkeypatch)
    assert orthogonality_certificate(root_vector_family(array)).passed
    assert len(calls) == 2
    calls.clear()
    assert shortened_family_certificate(array, m).passed
    assert len(calls) == 2


def test_root_sum_audit_of_a_forgery_reduces_each_distinct_count_tuple_once(monkeypatch, oa65):
    family = root_vector_family(forge(oa65))
    size = len(family.vectors)
    distinct = {family.product(a, b) for a in range(size) for b in range(a, size)}
    calls = _count_reductions(monkeypatch)
    with pytest.raises(NonOrthogonal):
        orthogonality_certificate(family)
    assert len(calls) == len(distinct) == 22
    assert set(calls) == distinct


def test_shortened_rejects_unrepeated_row(parity):
    with pytest.raises(ValueError):
        shortened_family_certificate(parity, 2)


# ---------------------------------------------------------------------------
# constant-weight codes
# ---------------------------------------------------------------------------


def test_cwc_certificate_tight_on_doubled_parity(stacked_parity):
    normalized = normalize_to_row(stacked_parity, 0)
    report = cwc_certificate(normalized, 2)
    assert report.passed and report.tight
    assert report.implied_lhs == 3
    assert report.implied_rhs == 3
    family = extract_cwc(normalized, 2)
    assert (family.ell, family.w, family.mu) == (6, 2, 0)
    assert all(sum(v) == 2 for v in family.vectors)


def test_cwc_certificate_on_frozen_witness(oa353_m2):
    normalized = normalize_to_row(oa353_m2, 0)
    report = cwc_certificate(normalized, 2)
    assert report.passed and not report.tight
    assert report.implied_rhs == Fraction(25, 4)
    family = extract_cwc(normalized, 2)
    assert (family.ell, family.w, family.mu) == (25, 7, 1)
    ips = {
        sum(x * y for x, y in zip(a, b))
        for a, b in itertools.combinations(family.vectors, 2)
    }
    assert ips == {1}


@pytest.mark.parametrize(
    "checks,implied,error",
    [
        ((Check("weight@1", "1", "2", False),), 3, WeightMismatch),
        ((Check("ip@1,2", "1", "0", False),), 3, InnerProductMismatch),
        ((Check("weight@1", "2", "2", True),), 2, AuditFailure),  # 3 <= 2 fails
    ],
)
def test_extract_cwc_raises_on_failed_report(monkeypatch, stacked_parity, checks, implied, error):
    # an explicit raise, so a failed report is caught also under python -O
    failed = AuditReport("cwc", checks, 3, implied, (6, 8))
    monkeypatch.setattr(certificates, "cwc_certificate", lambda array, m: failed)
    with pytest.raises(error) as info:
        extract_cwc(normalize_to_row(stacked_parity, 0), 2)
    assert info.value.report is failed


def test_cwc_needs_normalized_input(stacked_parity):
    with pytest.raises(ValueError):
        cwc_certificate(stacked_parity, 2)  # zero rows not at the end


def test_cwc_weight_mismatch(stacked_parity):
    normalized = normalize_to_row(stacked_parity, 0)
    rows = list(normalized.rows)
    rows[0] = (1,) + rows[0][1:]  # breaks column 1's weight
    with pytest.raises(WeightMismatch):
        cwc_certificate(OrthogonalArray(2, 3, tuple(rows)), 2)


def test_cwc_inner_product_mismatch(stacked_parity):
    normalized = normalize_to_row(stacked_parity, 0)
    rows = [list(r) for r in normalized.rows]
    # swap one column entry between two rows: weights survive, a pairwise
    # inner product does not
    assert rows[0][0] != rows[2][0]
    rows[0][0], rows[2][0] = rows[2][0], rows[0][0]
    bad = OrthogonalArray(2, 3, tuple(tuple(r) for r in rows))
    with pytest.raises((InnerProductMismatch, WeightMismatch)) as exc:
        cwc_certificate(bad, 2)
    assert exc.type is InnerProductMismatch


# ---------------------------------------------------------------------------
# four-way concordance
# ---------------------------------------------------------------------------


def four_reports(array):
    td = to_transversal_design(array)
    return (
        variance_audit(array).report,
        rank_bound_certificate(incidence_matrix(td)),
        gram_certificate(array),
        orthogonality_certificate(root_vector_family(array)),
    )


def test_four_methods_concord(parity, oa43, oa65, oa242):
    for a in (parity, oa43, oa65, oa242):
        reports = four_reports(a)
        assert all(r.passed for r in reports)
        canonicals = {r.canonical for r in reports}
        assert canonicals == {(a.k * (a.n - 1) + 1, a.N)}
        tightness = {r.tight for r in reports}
        assert len(tightness) == 1  # all four agree on tightness
