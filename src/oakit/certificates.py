"""Mechanical audits of existence-proof techniques on concrete arrays.

Each audit re-executes one counting or linear-algebra argument on a given
array, checks every intermediate identity in exact integer or rational
arithmetic, and reports the inequality the argument establishes for that
instance.  A report serializes to one `CHECK <id> <lhs> <rhs> PASS|FAIL`
line per identity plus a final `IMPLIES <lhs><=<rhs> PASS|FAIL|TIGHT` line.
Every audit hands its finished report to `_require`, which raises the
audit's typed AuditFailure at the first failing check.

All the audits of a strength-2 array with index lambda over n symbols and
k columns normalize to the same comparison, recorded in `canonical` form as
m(k(n-1)+1) <= N (with m = 1 where no repeated row is involved), so their
conclusions can be cross-checked for agreement.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import mul, sub
from typing import NamedTuple

from .arrays import (
    normalize_repeated_row,
    rows_before_zero_tail,
    strength_lambda,
    symbol_counts,
)
from .bounds import equality_abar, johnson_R, oa_to_cwc_params
from .cyclotomic import reduce_root_sum
from .errors import (
    AuditFailure,
    EquationViolated,
    IdentityViolated,
    InnerProductMismatch,
    LemmaViolated,
    NonintegralIndex,
    NonOrthogonal,
    NonpositiveDeterminant,
    RankDeficient,
    WeightMismatch,
)
from .linalg import integer_det, integer_rank

__all__ = [
    "Check",
    "AuditReport",
    "VarianceAudit",
    "TransversalDesign",
    "IncidenceMatrix",
    "RootVectorFamily",
    "ConstantWeightCodeFamily",
    "variance_audit",
    "to_transversal_design",
    "incidence_matrix",
    "check_span_equations",
    "rank_bound_certificate",
    "gram_certificate",
    "root_vector_family",
    "orthogonality_certificate",
    "shortened_family_certificate",
    "extract_cwc",
    "cwc_certificate",
]


def _fmt(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x)) if isinstance(x, Fraction) else str(x)


def _fmt_vec(v):
    return "(" + ",".join(str(e) for e in v) + ")"


def _fmt_poly(p):
    if not p:
        return "0"
    if len(p) == 1:
        return str(p[0])
    return _fmt_vec(p)


class Check(NamedTuple):
    """One verified identity: `lhs` is computed, `rhs` predicted.

    A Check is a named tuple, so it also equals the plain 4-tuple of its
    fields, (check_id, lhs, rhs, passed).
    """

    check_id: str
    lhs: str
    rhs: str
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit method.

    `implied_lhs <= implied_rhs` is the inequality the method proves for
    this instance (values exact, Fraction or int).  `canonical` restates it
    as an integer pair (m(k(n-1)+1), N)-style so different methods can be
    compared.  `notes` are informational lines emitted as `#` comments.
    """

    method: str
    checks: tuple
    implied_lhs: object
    implied_rhs: object
    canonical: tuple
    notes: tuple = ()

    @property
    def checks_passed(self):
        return all(c.passed for c in self.checks)

    @property
    def holds(self):
        return self.implied_lhs <= self.implied_rhs

    @property
    def passed(self):
        return self.checks_passed and self.holds

    @property
    def tight(self):
        return self.passed and self.implied_lhs == self.implied_rhs

    def verdict(self):
        if not self.passed:
            return "FAIL"
        return "TIGHT" if self.implied_lhs == self.implied_rhs else "PASS"

    def lines(self):
        out = [f"# {note}" for note in self.notes]
        for c in self.checks:
            out.append(f"CHECK {c.check_id} {c.lhs} {c.rhs} {'PASS' if c.passed else 'FAIL'}")
        out.append(f"IMPLIES {_fmt(self.implied_lhs)}<={_fmt(self.implied_rhs)} {self.verdict()}")
        return out


def _eq_check(check_id, lhs, rhs):
    return Check(check_id, _fmt(lhs), _fmt(rhs), lhs == rhs)


def _require(report, failure):
    """Return `report` if it passed; otherwise raise at its first failing check.

    `failure(check)` builds the audit's AuditFailure for the failing Check;
    it is raised carrying `report` and the check's id.  A report whose
    checks all pass but whose implied bound fails raises a plain
    AuditFailure.
    """
    if report.passed:
        return report
    bad = next((c for c in report.checks if not c.passed), None)
    if bad is None:
        raise AuditFailure(
            f"implied bound {_fmt(report.implied_lhs)}<={_fmt(report.implied_rhs)} fails",
            report=report,
        )
    exc = failure(bad)
    exc.report, exc.check_id = report, bad.check_id
    try:
        raise exc
    finally:
        del exc  # the traceback holds this frame: a local here would make a cycle


def _index_of(array):
    if array.N % (array.n * array.n):
        raise NonintegralIndex(array.N, array.n, 2)
    return array.N // (array.n * array.n)


# ---------------------------------------------------------------------------
# Variance (counting) audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceAudit:
    """Full record of the counting argument on one array.

    `counts` holds the per-row designated-symbol counts a_i over the
    non-repeated rows; `sums` pairs each of the three power sums with its
    predicted closed form; `ssd` is the exact sum of squared deviations
    from the mean `abar`.
    """

    m: int
    counts: tuple
    sums: tuple
    abar: Fraction
    ssd: Fraction
    equality_case: bool
    report: AuditReport


def variance_audit(array, m=1):
    """Audit the repeated-row counting argument with claimed multiplicity m.

    Normalizes so the repeated row is all-zeros and last, counts the
    designated symbol per remaining row, and checks the three power-sum
    identities exactly.  The nonnegativity of the squared deviations then
    implies k <= (lambda*n^2 - m)/(m(n-1)).  Any identity failure means the
    input is not an orthogonal array of the claimed shape and raises
    IdentityViolated.  The identities can hold on an array that is not one,
    so the strength is verified last, raising NotAnOA.
    """
    if m < 1:
        raise ValueError("multiplicity m must be at least 1")
    lam = _index_of(array)
    n, k, N = array.n, array.k, array.N
    counts = symbol_counts(normalize_repeated_row(array, m), exclude_last=m)

    sum_a = sum(counts)
    sum_pairs = sum(a * (a - 1) for a in counts)
    sum_sq = sum(a * a for a in counts)
    pred_a = k * (lam * n - m)
    pred_pairs = k * (k - 1) * (lam - m)
    pred_sq = k * (k * (lam - m) + lam * (n - 1))
    abar = equality_abar(k, n, lam, m)
    ssd = Fraction(sum_sq) - Fraction(sum_a * sum_a, N - m)

    checks = [
        _eq_check("sum-a", sum_a, pred_a),
        _eq_check("sum-a(a-1)", sum_pairs, pred_pairs),
        _eq_check("sum-a^2", sum_sq, pred_sq),
        Check("ssd-nonnegative", _fmt(ssd), "0", ssd >= 0),
    ]
    equality = ssd == 0
    if equality:
        off = sum(1 for a in counts if Fraction(a) != abar)
        checks.append(_eq_check("equality-counts", off, 0))

    implied = Fraction(lam * n * n - m, m * (n - 1))
    report = AuditReport("variance", tuple(checks), k, implied, (m * (k * (n - 1) + 1), N))
    _require(
        report, lambda c: IdentityViolated(f"{c.check_id}: computed {c.lhs}, predicted {c.rhs}")
    )
    strength_lambda(array, 2)
    sums = ((sum_a, pred_a), (sum_pairs, pred_pairs), (sum_sq, pred_sq))
    return VarianceAudit(m, counts, sums, abar, ssd, equality, report)


# ---------------------------------------------------------------------------
# Transversal design, incidence matrix, span equations, rank.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalDesign:
    """Point/group/block view of a strength-2 array.

    Point (symbol s, column j) gets index j*n + s; group j is the n points
    of column j; block i is the k points selected by row i.
    """

    n: int
    k: int
    lam: int
    groups: tuple
    blocks: tuple

    @property
    def N(self):
        return len(self.blocks)


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 incidence of blocks and groups (rows) against points (columns)."""

    n: int
    k: int
    lam: int
    row_labels: tuple
    matrix: tuple

    @property
    def N(self):
        return len(self.matrix) - self.k


def to_transversal_design(array):
    """Reinterpret a strength-2 array as a transversal design.

    Verifies the strength first (raising NotAnOA otherwise), since the
    design properties are exactly the strength-2 conditions.
    """
    lam = strength_lambda(array, 2)
    n, k = array.n, array.k
    groups = tuple(tuple(j * n + s for s in range(n)) for j in range(k))
    blocks = tuple(tuple(j * n + row[j] for j in range(k)) for row in array.rows)
    return TransversalDesign(n, k, lam, groups, blocks)


def incidence_matrix(td):
    """(N+k) x nk incidence matrix: block rows first, then group rows."""
    nk = td.n * td.k

    def indicator(points):
        row = [0] * nk
        for p in points:
            row[p] = 1
        return tuple(row)

    labels = [("block", i) for i in range(td.N)] + [("group", j) for j in range(td.k)]
    rows = [indicator(points) for points in (*td.blocks, *td.groups)]
    return IncidenceMatrix(td.n, td.k, td.lam, tuple(labels), tuple(rows))


def check_span_equations(td):
    """Verify the three incidence-vector identities of a transversal design.

    With B_i, G_j the block/group indicator vectors and u all-ones:
      eq1:  sum_i B_i = lambda*n*u
      eq2:  sum_j G_j = u
      eq3:  lambda*G_{g(x)} + sum_{i: x in B_i} B_i = lambda*u + lambda*n*x_hat
    for every point x.  Together these place every coordinate vector in the
    row span of the incidence matrix, which is what the rank certificate
    then measures; the implied inequality is nk <= N+k-1.
    """
    n, k, lam, N = td.n, td.k, td.lam, td.N
    nk = n * k
    rows = incidence_matrix(td).matrix
    blocks, groups = rows[:N], rows[N:]

    checks = []
    points = {}
    for check_id, summed, value in (("eq1", blocks, lam * n), ("eq2", groups, 1)):
        total = tuple(sum(col) for col in zip(*summed))
        expect = (value,) * nk
        checks.append(Check(check_id, _fmt_vec(total), _fmt_vec(expect), total == expect))
    for x in range(nk):
        lhs = [lam * g for g in groups[x // n]]
        for i in range(N):
            if blocks[i][x]:
                for p in range(nk):
                    lhs[p] += blocks[i][p]
        rhs = [lam + (lam * n if p == x else 0) for p in range(nk)]
        check_id = f"eq3@{x}"
        points[check_id] = x
        checks.append(Check(check_id, _fmt_vec(lhs), _fmt_vec(rhs), lhs == rhs))

    report = AuditReport("span-equations", tuple(checks), nk, N + k - 1, (k * (n - 1) + 1, N))
    return _require(
        report,
        lambda c: EquationViolated(
            f"{c.check_id}: {c.lhs} != {c.rhs}", coordinate=points.get(c.check_id)
        ),
    )


def rank_bound_certificate(incidence):
    """Exact-rank certificate for the incidence matrix of a strength-2 array.

    The matrix must have full column rank nk, and must keep rank nk after
    deleting the last group row (that row lies in the span of the others),
    so the other N+k-1 rows span an nk-dimensional space: nk <= N+k-1.

    The reduced rank is taken first.  Since rank(M[:-1]) <= rank(M) <= nk
    (M has nk columns), a reduced rank of nk gives the full rank nk exactly,
    and only a shortfall takes a second rank of the whole matrix.  Each
    rank is settled over GF(2) when that reaches nk, as it does for odd n,
    and only otherwise by a sparse Bareiss elimination (see `linalg`).
    """
    n, k, N = incidence.n, incidence.k, incidence.N
    nk = n * k
    reduced = integer_rank(incidence.matrix[:-1])
    full = nk if reduced == nk else integer_rank(incidence.matrix)
    checks = (
        _eq_check("rank", full, nk),
        _eq_check("rank-without-last-group", reduced, nk),
    )
    report = AuditReport("td-rank", checks, nk, N + k - 1, (k * (n - 1) + 1, N))
    return _require(
        report, lambda c: RankDeficient(f"{c.check_id}: rank {c.lhs}, expected {c.rhs}")
    )


# ---------------------------------------------------------------------------
# Gram-matrix audit.
# ---------------------------------------------------------------------------


def gram_certificate(array):
    """Exact Gram-matrix certificate for a strength-2 array.

    Builds the (nk+1) x (nk+1) Gram matrix of the point incidence vectors
    (group contributions carrying an exact factor lambda, so no irrational
    scaling appears) together with the adjoined groups-indicator vector,
    checks it equals lambda*J + diag(lambda*n, ..., lambda*n, (k-1)*lambda)
    entrywise, and certifies det > 0 by fraction-free integer elimination.
    The nk+1 vectors are then independent in an (N+k)-dimensional space,
    so nk+1 <= N+k.

    Before the elimination every row after the first has its predecessor
    subtracted, and then every column after the first has its predecessor
    subtracted.  Both steps multiply by a unimodular factor, so the
    determinant is unchanged.  On a valid Gram matrix lambda*J collapses to
    the single entry (0, 0) and the result is tridiagonal: no row is dense,
    `integer_det` keeps only the nonzeros, and its sparse pivot rule takes
    the rows in order, so each pivot step touches one other row: the next.
    """
    lam = _index_of(array)
    n, k, N = array.n, array.k, array.N
    nk = n * k
    size = nk + 1
    gram = [[lam if p // n == q // n else 0 for q in range(nk)] + [lam] for p in range(nk)]
    gram.append([lam] * nk + [k * lam])
    for row in array.rows:
        points = [j * n + row[j] for j in range(k)]
        for a in points:
            for b in points:
                gram[a][b] += 1

    # (p, q, got, expected) for each entry off lambda*J + diag(lambda*n, ..., (k-1)*lambda)
    mismatches = []
    for p, row in enumerate(gram):
        expect = [lam] * size
        expect[p] = k * lam if p == nk else lam * (n + 1)
        if row != expect:
            mismatches += [
                (p, q, got, want) for q, (got, want) in enumerate(zip(row, expect)) if got != want
            ]
    # D G D^T: rows, then columns, each minus its predecessor
    rows = [gram[0]] + [list(map(sub, row, above)) for above, row in zip(gram, gram[1:])]
    det = integer_det([row[:1] + list(map(sub, row[1:], row)) for row in rows])
    checks = (
        _eq_check("lemma-entrywise", len(mismatches), 0),
        Check("det-positive", str(det), "0", det > 0),
    )
    report = AuditReport("gram", checks, nk + 1, N + k, (k * (n - 1) + 1, N))

    def failure(check):
        if check.check_id == "det-positive":
            return NonpositiveDeterminant(f"Gram determinant {det} is not positive")
        p, q, got, want = mismatches[0]
        return LemmaViolated(f"Gram entry {(p, q)}: got {got}, expected {want}")

    return _require(report, failure)


# ---------------------------------------------------------------------------
# Roots-of-unity audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootVectorFamily:
    """Exponent vectors whose pairwise hermitian products certify a bound.

    One length-N vector per (column, multiplier) pair plus the all-zeros
    vector: entry i of vector (j, m) is m * array[i][j] mod n.  A plain
    value: `product` counts one pair of vectors and keeps nothing.
    """

    n: int
    k: int
    N: int
    labels: tuple
    vectors: tuple

    def product(self, a, b):
        """Hermitian product of vectors a and b: entry e counts coordinates with u - v = e mod n.

        >>> vectors = ((0, 0, 0, 0), (0, 1, 1, 2), (0, 2, 2, 1))
        >>> family = RootVectorFamily(3, 1, 4, ("C0", "1C1", "2C1"), vectors)
        >>> family.product(1, 0), family.product(2, 0)
        ((1, 2, 1), (1, 1, 2))
        >>> family.product(1, 1), family.product(1, 2)
        ((4, 0, 0), (1, 1, 2))
        """
        n = self.n
        counts = [0] * n
        for u, v in zip(self.vectors[a], self.vectors[b]):
            counts[(u - v) % n] += 1
        return tuple(counts)


def root_vector_family(array):
    """The 1 + k(n-1) exponent vectors attached to an array.

    Raises NonintegralIndex when N is not a multiple of n*n, before any
    vector is built: no such array is orthogonal.
    """
    _index_of(array)
    n, k = array.n, array.k
    labels = ["C0"]
    vectors = [tuple([0] * array.N)]
    # times[mult - 1][s] is mult * s mod n
    times = [[(mult * s) % n for s in range(n)] for mult in range(1, n)]
    for j, column in enumerate(zip(*array.rows)):
        for mult, table in enumerate(times, start=1):
            labels.append(f"{mult}C{j + 1}")
            vectors.append(tuple(map(table.__getitem__, column)))
    return RootVectorFamily(n, k, array.N, tuple(labels), tuple(vectors))


def _orthogonality_report(family, method, implied_rhs, canonical, notes=()):
    n, k = family.n, family.k
    size = len(family.vectors)
    # Residual and its text for each distinct count tuple, kept for this call
    # only: most products share a few count vectors, and the memo never
    # outlives the audit.
    @cache
    def reduce(counts):
        reduced = reduce_root_sum(counts, n)
        return reduced, _fmt_poly(reduced)

    # Vectors alpha Cj and (n - alpha) Cj are conjugates, each the other's
    # negation mod n.  With a' and b' the negations of a and b, every
    # difference of (a', b') is negated: (b', a') has the counts of (a, b)
    # and (a', b') has them with entries e and n - e swapped.  The twin of
    # (a, b) is whichever of the two the audit asks; for a same-column pair
    # (alpha, beta) that is (n - beta, n - alpha).  Counts wait in `twins`
    # only for a twin that the audit asks later (self products first, then
    # a < b) and leave when it is asked: about half the products skip the
    # coordinate loop, and this memo too is empty when the audit returns.
    labels, vectors, count, N = family.labels, family.vectors, family.product, family.N
    index = {v: i for i, v in enumerate(vectors)}
    negation = [index.get(tuple((-e) % n for e in v)) for v in vectors]
    twins = {}

    def product(a, b):
        counts = twins.pop((a, b), None)
        if counts is None:
            counts = count(a, b)
            a2, b2 = negation[a], negation[b]
            if None not in (a2, b2):
                twin = min(a2, b2), max(a2, b2)
                if (twin[0] < twin[1], twin) > (a < b, (a, b)):
                    twins[twin] = counts[:1] + counts[:0:-1] if a2 <= b2 else counts
        return counts

    total = str(N)
    checks = [_eq_check("family-size", size, 1 + k * (n - 1))]
    for a in range(size):
        reduced, text = reduce(product(a, a))
        checks.append(Check(f"self@{labels[a]}", text, total, reduced == (N,)))
    pair = residual = None
    for a, b in combinations(range(size), 2):
        reduced, text = reduce(product(a, b))
        ok = reduced == ()
        la, lb = labels[a], labels[b]
        checks.append(Check(f"orth@{la},{lb}", text, "0", ok))
        if not ok and pair is None:
            pair, residual = (la, lb), reduced
    report = AuditReport(method, tuple(checks), 1 + k * (n - 1), implied_rhs, canonical, notes)
    return _require(
        report,
        lambda c: NonOrthogonal(
            f"{c.check_id}: reduced to {c.lhs}, expected {c.rhs}", pair=pair, residual=residual
        ),
    )


def orthogonality_certificate(family):
    """Verify all pairwise orthogonality relations of a root-vector family.

    Every product is reduced modulo the n-th cyclotomic polynomial with
    exact integer coefficients; off-diagonal products must vanish and
    self-products must equal the coordinate count N.  The family is then
    1 + k(n-1) mutually orthogonal nonzero vectors in C^N: 1+k(n-1) <= N.
    """
    return _orthogonality_report(
        family,
        "roots",
        family.N,
        (family.k * (family.n - 1) + 1, family.N),
    )


def shortened_family_certificate(array, m):
    """Orthogonality certificate of the roots family of the normalized array.

    Normalized, the m copies of the repeated row are m coordinates that are 0
    in every vector.  They add m to each `counts[0]` as one merged coordinate
    of weight m would, so the merged family, never built, has these products
    in dimension N-m+1: 1+k(n-1) <= N-m+1.  Counting gives m(k(n-1)+1) <= N.
    """
    if m < 1:
        raise ValueError("multiplicity m must be at least 1")
    family = root_vector_family(normalize_repeated_row(array, m))
    n, k, N = array.n, array.k, array.N
    notes = (
        f"coordinate merging proves k(n-1)+m = {k * (n - 1) + m} <= N = {N}; "
        f"the counting bound sharpens this to m(k(n-1)+1) = {m * (k * (n - 1) + 1)} <= N",
    )
    return _orthogonality_report(family, "shortened", N - m + 1, (k * (n - 1) + m, N), notes)


# ---------------------------------------------------------------------------
# Constant-weight-code extraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantWeightCodeFamily:
    """k binary vectors of length ell, weight w, pairwise inner product mu."""

    ell: int
    w: int
    mu: int
    vectors: tuple


def _cwc_vectors(array, m):
    kept = len(rows_before_zero_tail(array, m))
    indicator = (1,) + (0,) * (array.n - 1)  # symbol 0 -> 1, any other -> 0
    return tuple(tuple(map(indicator.__getitem__, col[:kept])) for col in zip(*array.rows))


def cwc_certificate(array, m=1):
    """Audit the constant-weight-code argument on a normalized array.

    Columns restricted to the non-repeated rows, with the designated symbol
    mapped to 1, must form k binary vectors of weight lambda*n - m and
    pairwise inner product lambda - m in length lambda*n^2 - m.  The
    pair-bound hypothesis margin w^2 - ell*mu equals lambda*m(n-1)^2 > 0,
    and the resulting maximum-family-size bound coincides exactly with the
    repeated-row bound k <= (lambda*n^2 - m)/(m(n-1)).  The code checks can
    pass on an array that is not an orthogonal array, so the strength is
    verified last, raising NotAnOA.
    """
    if m < 1:
        raise ValueError("multiplicity m must be at least 1")
    lam = _index_of(array)
    n, k, N = array.n, array.k, array.N
    if lam < m:
        raise ValueError("claimed multiplicity exceeds the index")
    vectors = _cwc_vectors(array, m)
    ell, w, mu = oa_to_cwc_params(k, n, lam, m)

    checks = []
    for j, vec in enumerate(vectors):
        checks.append(_eq_check(f"weight@{j + 1}", sum(vec), w))
    for a, b in combinations(range(k), 2):
        ip = sum(map(mul, vectors[a], vectors[b]))
        checks.append(_eq_check(f"ip@{a + 1},{b + 1}", ip, mu))
    margin = w * w - ell * mu
    checks.append(Check("johnson-hypothesis", str(margin), "0", margin > 0))
    checks.append(_eq_check("hypothesis-margin", margin, lam * m * (n - 1) ** 2))
    bound = johnson_R(ell, w, mu)
    implied = Fraction(lam * n * n - m, m * (n - 1))
    checks.append(_eq_check("johnson-equals-rr-bound", bound.value, implied))

    report = AuditReport("cwc", tuple(checks), k, implied, (m * (k * (n - 1) + 1), N))
    _require(report, _cwc_error)
    strength_lambda(array, 2)
    return report


def _cwc_error(check):
    """WeightMismatch for a codeword weight, InnerProductMismatch for any other check."""
    error = WeightMismatch if check.check_id.startswith("weight@") else InnerProductMismatch
    return error(f"{check.check_id}: got {check.lhs}, expected {check.rhs}")


def extract_cwc(array, m):
    """Extract and fully verify the constant-weight code of a normalized array."""
    _require(cwc_certificate(array, m), _cwc_error)
    ell, w, mu = oa_to_cwc_params(array.k, array.n, _index_of(array), m)
    return ConstantWeightCodeFamily(ell, w, mu, _cwc_vectors(array, m))
