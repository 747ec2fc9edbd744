import itertools
import math
from fractions import Fraction

import pytest

from oakit import (
    BoundResult,
    DesignParameters,
    HypothesisViolated,
    OAParameters,
    bibd_bounds,
    equality_abar,
    johnson_R,
    max_multiplicity,
    mqw_min_rows,
    oa_to_cwc_params,
    pb_min_lambda,
    rao_min_rows,
    rr_min_lambda,
)

GRID = [
    (t, k, n, m)
    for t in (2, 3, 4)
    for k in range(2, 9)
    for n in range(2, 6)
    for m in (1, 2, 3)
    if t <= k
]


# ---------------------------------------------------------------------------
# named regression values
# ---------------------------------------------------------------------------


def test_named_maximum_multiplicities():
    assert max_multiplicity(4, 2, 2).value == Fraction(8, 5)
    assert max_multiplicity(4, 2, 2).integer_form == 1
    assert max_multiplicity(4, 2, 3).value == Fraction(12, 5)
    assert max_multiplicity(4, 2, 3).integer_form == 2
    assert max_multiplicity(5, 3, 3).value == Fraction(27, 11)
    assert max_multiplicity(5, 3, 3).integer_form == 2


def test_named_minimum_indices():
    assert pb_min_lambda(5, 3).value == Fraction(11, 9)
    assert pb_min_lambda(5, 3).integer_form == 2
    assert pb_min_lambda(3, 2).value == Fraction(1)
    assert rr_min_lambda(5, 3, 2).value == Fraction(22, 9)
    assert rr_min_lambda(5, 3, 2).integer_form == 3


def test_named_row_minima():
    assert rao_min_rows(2, 5, 3).value == 11
    assert rao_min_rows(3, 4, 2).value == 8
    assert rao_min_rows(4, 5, 2).value == 16
    assert mqw_min_rows(3, 4, 2, 2).value == 16


# ---------------------------------------------------------------------------
# structural relations on a grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t,k,n,m", GRID)
def test_repeated_row_bound_scales_linearly(t, k, n, m):
    assert rr_min_lambda(k, n, m).value == m * pb_min_lambda(k, n).value
    assert mqw_min_rows(t, k, n, m).value == m * rao_min_rows(t, k, n).value


@pytest.mark.parametrize("t,k,n,m", GRID)
def test_multiplicity_bound_inverts_index_bound(t, k, n, m):
    # m <= lambda n^2 / (k(n-1)+1)  iff  m(k(n-1)+1)/n^2 <= lambda
    for lam in range(m, m + 4):
        allows = max_multiplicity(k, n, lam).value >= m
        assert allows == (rr_min_lambda(k, n, m).value <= lam)


@pytest.mark.parametrize("t", range(2, 10))
def test_rao_sum_matches_the_binomial_sum(t):
    # the sum is built from term ratios; each term must be C(k,i)(n-1)^i exactly
    s = t // 2
    for k in range(t, 13):
        for n in range(2, 6):
            direct = sum(math.comb(k, i) * (n - 1) ** i for i in range(s + 1))
            if t % 2:
                direct += math.comb(k - 1, s) * (n - 1) ** (s + 1)
            assert rao_min_rows(t, k, n).value == direct


def test_strength_two_rao_is_plackett_burman_numerator():
    for k in range(2, 12):
        for n in range(2, 7):
            assert rao_min_rows(2, k, n).value == k * (n - 1) + 1
            assert pb_min_lambda(k, n).value == Fraction(k * (n - 1) + 1, n * n)


def test_bounds_report_satisfaction():
    b = pb_min_lambda(5, 3, lam=3)
    assert b.satisfied and not b.tight
    b = pb_min_lambda(3, 2, lam=1)
    assert b.satisfied and b.tight
    b = rr_min_lambda(4, 2, 2, lam=2)  # needs lambda >= 5/2
    assert not b.satisfied
    b = rao_min_rows(2, 4, 3, lam=1)  # 9 rows vs minimum 9
    assert b.satisfied and b.tight


def test_integer_forms_round_the_right_way():
    b = pb_min_lambda(5, 3)  # minimum: round up 11/9 -> 2
    assert b.kind == "min" and b.integer_form == 2
    b = max_multiplicity(5, 3, 3)  # maximum: round down 27/11 -> 2
    assert b.kind == "max" and b.integer_form == 2


def test_equality_average():
    # Doubling the 4-run parity array and deleting both zero rows leaves
    # every remaining row meeting the zero row in exactly one column.
    assert equality_abar(3, 2, 2, 2) == 1
    assert equality_abar(5, 3, 3, 2) == Fraction(5 * 7, 25)
    with pytest.raises(ValueError):
        equality_abar(3, 2, 1, 4)  # m exceeds lambda n^2


# ---------------------------------------------------------------------------
# Johnson bound
# ---------------------------------------------------------------------------


def brute_max_family(ell, w, mu):
    """Largest family of weight-w subsets of [ell] with pairwise overlap <= mu."""
    vectors = list(itertools.combinations(range(ell), w))
    best = 0

    def extend(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(vectors)):
            cand = set(vectors[i])
            if all(len(cand & set(c)) <= mu for c in chosen):
                chosen.append(vectors[i])
                extend(chosen, i + 1)
                chosen.pop()

    extend([], 0)
    return best


def test_johnson_bound_on_disjoint_pairs():
    b = johnson_R(6, 2, 0)
    assert b.value == 3
    assert brute_max_family(6, 2, 0) == 3  # bound is attained


def test_johnson_bound_dominates_brute_force():
    for ell, w, mu in [(4, 2, 0), (5, 2, 0), (6, 3, 1), (7, 3, 1)]:
        b = johnson_R(ell, w, mu)
        assert brute_max_family(ell, w, mu) <= b.value
    # (7,3,1) attains its bound of 7: the Fano blocks form such a family
    assert brute_max_family(7, 3, 1) == johnson_R(7, 3, 1).value


def test_johnson_bound_tight_on_fano(fano):
    b = johnson_R(7, 3, 1, r=7)
    assert b.value == 7
    assert b.satisfied and b.tight
    # the Fano blocks attain it with every pairwise overlap exactly one
    for x, y in itertools.combinations(fano.blocks, 2):
        assert len(set(x) & set(y)) == 1


def test_johnson_hypothesis_required():
    with pytest.raises(HypothesisViolated):
        johnson_R(4, 2, 1)  # w^2 - ell*mu = 0


# ---------------------------------------------------------------------------
# the array-to-code translation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,n", [(k, n) for k in range(3, 8) for n in range(2, 6)])
def test_code_parameters_and_margin(k, n):
    for lam in (1, 2, 3):
        for m in range(1, lam + 1):
            ell, w, mu = oa_to_cwc_params(k, n, lam, m)
            assert (ell, w, mu) == (lam * n * n - m, lam * n - m, lam - m)
            # hypothesis margin is always positive, with a closed form
            assert w * w - ell * mu == lam * m * (n - 1) ** 2
            # and the Johnson bound equals the repeated-row bound on k
            assert johnson_R(ell, w, mu).value == Fraction(ell, m * (n - 1))


def test_code_translation_rejects_excess_multiplicity():
    with pytest.raises(ValueError):
        oa_to_cwc_params(4, 2, 1, 2)


# ---------------------------------------------------------------------------
# block-design bounds
# ---------------------------------------------------------------------------


def test_fano_bounds_all_tight():
    p = DesignParameters(7, 3, 1, b=7, t=2, s=1, m=1)
    results = bibd_bounds(p)
    assert [r.formula for r in results] == ["fisher", "mann", "rcw", "wilson"]
    for r in results:
        assert r.applicable and r.satisfied and r.tight
        assert r.value == 7


def test_doubled_fano_bounds():
    p = DesignParameters(7, 3, 2, b=14, t=2, s=1, m=2)
    by_name = {r.formula: r for r in bibd_bounds(p)}
    assert by_name["fisher"].value == 7 and not by_name["fisher"].tight
    assert by_name["mann"].value == 14 and by_name["mann"].tight
    assert by_name["wilson"].value == 14 and by_name["wilson"].tight


def test_resolvable_style_inapplicability():
    # complete block on all points: v = k, Fisher/Mann hypotheses fail
    p = DesignParameters(3, 3, 1, b=1, t=2, s=1, m=1)
    by_name = {r.formula: r for r in bibd_bounds(p)}
    assert not by_name["fisher"].applicable
    assert not by_name["mann"].applicable


def test_steiner_quadruple_bounds():
    # 3-(8,4,1) design: b = 14, s = 1 keeps rcw applicable
    p = DesignParameters(8, 4, 1, b=14, t=3, s=1, m=1)
    by_name = {r.formula: r for r in bibd_bounds(p)}
    assert by_name["rcw"].applicable and by_name["rcw"].satisfied
    # s = 2 would need t >= 4: inapplicable, not an error
    p = DesignParameters(8, 4, 1, b=14, t=3, s=2, m=1)
    assert not {r.formula: r for r in bibd_bounds(p)}["rcw"].applicable


def test_parameter_validation():
    with pytest.raises(ValueError):
        OAParameters(1, 3, 2, 1)
    with pytest.raises(ValueError):
        OAParameters(2, 3, 2, 1, m=2)  # m > lambda
    with pytest.raises(ValueError):
        OAParameters(4, 3, 2, 1)  # t > k
    with pytest.raises(ValueError):
        DesignParameters(3, 4, 1)
    p = DesignParameters(7, 3, 1)
    assert p.s == 1  # defaults to floor(t/2)
    assert OAParameters(2, 5, 3, 3).N == 27


def test_bound_result_rejects_inconsistent_fields():
    # explicit raises, so the invariant also holds under python -O
    BoundResult("f", Fraction(7, 2), 4, "min")
    with pytest.raises(ValueError):
        BoundResult("f", Fraction(7, 2), 3, "min")
    with pytest.raises(ValueError):
        BoundResult("f", Fraction(7, 2), 3, "most")
