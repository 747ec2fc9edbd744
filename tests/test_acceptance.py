"""Acceptance gate: eight criteria, each printing one ACCEPTANCE verdict line.

All numeric comparisons are exact (integer or Fraction equality, tolerance
zero) except criterion 7, whose floating-point cross-check uses the stated
bands: |S| <= 1e-9 for exact zeros and |S| >= 1e-3 for exact nonzeros.
Criteria with runtime limits assert them on a monotonic clock.
"""

import contextlib
import random
import time
from fractions import Fraction

from oakit import (
    BlockDesign,
    DesignParameters,
    OrthogonalArray,
    bibd_bounds,
    generate_linear_oa,
    gram_certificate,
    incidence_matrix,
    max_multiplicity,
    mqw_min_rows,
    oracle_max_multiplicity,
    orthogonality_certificate,
    pb_min_lambda,
    rank_bound_certificate,
    rao_min_rows,
    root_sum_is_zero,
    root_vector_family,
    row_multiplicities,
    rr_min_lambda,
    stack,
    strength_lambda,
    to_transversal_design,
    variance_audit,
    verify_bibd,
)
from test_cyclotomic import root_sum_float


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@contextlib.contextmanager
def clock(limit):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_bound_regression():
    # tolerance: exact rational equality
    with criterion("1 bound-regression"):
        b = max_multiplicity(4, 2, 2)
        assert (b.value, b.integer_form) == (Fraction(8, 5), 1)
        b = max_multiplicity(4, 2, 3)
        assert (b.value, b.integer_form) == (Fraction(12, 5), 2)
        b = max_multiplicity(5, 3, 3)
        assert (b.value, b.integer_form) == (Fraction(27, 11), 2)


def test_criterion_2_bound_specializations():
    # tolerance: exact rational equality over the full parameter grid
    with criterion("2 bound-specializations"):
        for t in (2, 3, 4):
            for k in range(max(2, t), 9):
                for n in range(2, 6):
                    base_lambda = pb_min_lambda(k, n).value
                    base_rows = rao_min_rows(t, k, n).value
                    for m in (1, 2, 3):
                        assert rr_min_lambda(k, n, m).value == m * base_lambda
                        assert mqw_min_rows(t, k, n, m).value == m * base_rows
                        for lam in range(m, m + 4):
                            allowed = max_multiplicity(k, n, lam).value >= m
                            needed = rr_min_lambda(k, n, m).value <= lam
                            assert allowed == needed
                    assert rr_min_lambda(k, n, 1).value == base_lambda
                    assert mqw_min_rows(t, k, n, 1).value == base_rows


def test_criterion_3_audit_concordance():
    # four independent audit methods agree on every reference array; < 5s
    with criterion("3 audit-concordance"):
        with clock(5.0):
            arrays = [
                generate_linear_oa(2, 3),
                generate_linear_oa(3, 4),
                generate_linear_oa(5, 6),
            ]
            rows = sorted(
                (x, y, z, (x + y + z) % 2)
                for x in range(2)
                for y in range(2)
                for z in range(2)
            )
            arrays.append(OrthogonalArray(2, 4, tuple(rows)))
            for a in arrays:
                td = to_transversal_design(a)
                reports = [
                    variance_audit(a).report,
                    rank_bound_certificate(incidence_matrix(td)),
                    gram_certificate(a),
                    orthogonality_certificate(root_vector_family(a)),
                ]
                assert all(r.passed for r in reports)
                assert {r.canonical for r in reports} == {
                    (a.k * (a.n - 1) + 1, a.N)
                }
                assert len({r.tight for r in reports}) == 1


def test_criterion_4_equality_case():
    # doubling the 4-run parity array attains the repeated-row bound exactly
    with criterion("4 equality-case"):
        doubled = stack(generate_linear_oa(2, 3), 2)
        audit = variance_audit(doubled, m=2)
        assert audit.ssd == 0
        assert audit.abar == 1
        assert audit.equality_case
        assert audit.report.verdict() == "TIGHT"
        assert audit.report.canonical == (8, 8)


def test_criterion_5_oracle_consistency():
    # exhaustive search never exceeds the bound, and attains it here; < 60s
    cases = [
        (2, 2, 1),
        (2, 3, 1),
        (2, 3, 2),
        (2, 4, 2),
        (2, 4, 3),
        (2, 5, 3),
        (3, 3, 1),
        (3, 3, 2),
        (3, 3, 3),
        (3, 4, 1),
        (3, 4, 2),
        (3, 5, 3),
        (4, 3, 1),
        (4, 4, 1),
        (5, 3, 1),
    ]
    with criterion("5 oracle-consistency"):
        with clock(60.0):
            for n, k, lam in cases:
                floor = max_multiplicity(k, n, lam).integer_form
                m_star, witness = oracle_max_multiplicity(n, k, lam)
                assert m_star <= floor
                assert m_star == floor  # attained on this whole grid
                if m_star:
                    assert strength_lambda(witness) == lam
                    assert (
                        row_multiplicities(witness).max_multiplicity == m_star
                    )


def test_criterion_6_gram_certificate():
    # positive Gram determinant pins the tight column bound; < 1s
    with criterion("6 gram-certificate"):
        with clock(1.0):
            report = gram_certificate(generate_linear_oa(2, 3))
            det = next(
                c for c in report.checks if c.check_id == "det-positive"
            )
            assert int(det.lhs) == 576 and int(det.lhs) > 0
            assert report.lines()[-1] == "IMPLIES 7<=7 TIGHT"


def test_criterion_7_cyclotomic_crosscheck():
    # 1000 seeded trials across n = 2..12; bands 1e-9 / 1e-3; < 5s
    with criterion("7 cyclotomic-crosscheck"):
        with clock(5.0):
            rng = random.Random(1729)
            zeros = nonzeros = 0
            for _ in range(1000):
                n = rng.randrange(2, 13)
                if rng.random() < 0.5:
                    # vanishing by construction: nonnegative combination of
                    # rotated prime-coset sums
                    counts = [0] * n
                    primes = [p for p in (2, 3, 5, 7, 11) if n % p == 0]
                    for _ in range(rng.randrange(1, 4)):
                        p = rng.choice(primes)
                        start = rng.randrange(n)
                        coeff = rng.randrange(1, 4)
                        for j in range(p):
                            counts[(start + j * (n // p)) % n] += coeff
                else:
                    counts = [rng.randrange(0, 10) for _ in range(n)]
                counts = tuple(counts)
                magnitude = abs(root_sum_float(counts, n))
                if root_sum_is_zero(counts, n):
                    zeros += 1
                    assert magnitude <= 1e-9
                else:
                    nonzeros += 1
                    assert magnitude >= 1e-3
            # both verdicts must actually be exercised
            assert zeros >= 300 and nonzeros >= 300


def test_criterion_8_design_bounds():
    # Fano plane: every bound tight; doubling it keeps the multiplicity
    # bounds tight at 14
    with criterion("8 design-bounds"):
        blocks = tuple(
            tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
        )
        fano = BlockDesign(7, 3, blocks)
        assert verify_bibd(fano) == 1
        results = bibd_bounds(DesignParameters(7, 3, 1, b=7, t=2, s=1, m=1))
        assert all(r.applicable and r.tight for r in results)
        assert {r.value for r in results} == {7}

        doubled = BlockDesign(7, 3, blocks + blocks)
        assert verify_bibd(doubled) == 2
        by_name = {
            r.formula: r
            for r in bibd_bounds(
                DesignParameters(7, 3, 2, b=14, t=2, s=1, m=2)
            )
        }
        assert by_name["mann"].value == 14 and by_name["mann"].tight
        assert by_name["wilson"].value == 14 and by_name["wilson"].tight
        assert by_name["fisher"].satisfied and not by_name["fisher"].tight
