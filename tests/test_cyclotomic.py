import cmath
import math
import random

import pytest

from oakit import cyclotomic, reduce_root_sum, root_sum_is_zero
from oakit.cyclotomic import poly_divmod, poly_mul


def root_sum_float(counts, n):
    """Floating-point value of sum_s counts[s] * w**s (cross-check only)."""
    w = cmath.exp(2j * cmath.pi / n)
    return sum(c * w ** s for s, c in enumerate(counts))


KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN.items()))
def test_known_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic(n) == coeffs


@pytest.mark.parametrize("n", range(1, 31))
def test_degree_is_euler_phi(n):
    phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
    assert len(cyclotomic(n)) - 1 == phi
    assert cyclotomic(n)[-1] == 1  # monic


@pytest.mark.parametrize("n", range(1, 21))
def test_product_over_divisors_is_xn_minus_one(n):
    prod = (1,)
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, cyclotomic(d))
    assert prod == tuple([-1] + [0] * (n - 1) + [1])


def test_poly_divmod_round_trip():
    # q*d divided by a monic d must recover q exactly with zero remainder.
    rng = random.Random(42)
    for _ in range(100):
        q = tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(1, 5)))
        d = tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))) + (1,)
        got_q, got_r = poly_divmod(poly_mul(q, d), d)
        expect_q = q
        while expect_q and expect_q[-1] == 0:
            expect_q = expect_q[:-1]
        assert (got_q, got_r) == (expect_q, ())


@pytest.mark.parametrize("n", range(2, 13))
def test_uniform_counts_vanish(n):
    assert root_sum_is_zero((1,) * n, n)
    assert reduce_root_sum((3,) * n, n) == ()


@pytest.mark.parametrize("n", range(2, 13))
def test_single_root_does_not_vanish(n):
    counts = [0] * n
    counts[1] = 1
    assert not root_sum_is_zero(tuple(counts), n)


def test_prime_coset_sums_vanish():
    # For n = 6 both the three cube roots and the two square roots sum to 0.
    assert root_sum_is_zero((1, 0, 1, 0, 1, 0), 6)
    assert root_sum_is_zero((1, 0, 0, 1, 0, 0), 6)
    # ... and so does any sum of such cosets.
    assert root_sum_is_zero((2, 0, 1, 1, 1, 0), 6)
    # but not an arbitrary pair
    assert not root_sum_is_zero((1, 1, 0, 0, 0, 0), 6)


def test_vanishing_needs_equal_counts_for_prime_n():
    # For prime n, Phi_n = 1 + x + ... + x^(n-1), so a count vector reduces
    # to zero iff all entries agree.
    for n in (2, 3, 5, 7, 11):
        rng = random.Random(n)
        for _ in range(30):
            counts = tuple(rng.randrange(0, 5) for _ in range(n))
            assert root_sum_is_zero(counts, n) == (len(set(counts)) == 1)


def test_counts_length_checked():
    with pytest.raises(ValueError):
        reduce_root_sum((1, 1, 1), 4)


@pytest.mark.parametrize("n", range(2, 13))
def test_float_cross_check(n):
    rng = random.Random(1000 + n)
    for _ in range(100):
        counts = tuple(rng.randrange(0, 8) for _ in range(n))
        value = abs(root_sum_float(counts, n))
        if root_sum_is_zero(counts, n):
            assert value < 1e-9
        else:
            assert value > 1e-6


def test_float_agrees_with_direct_evaluation():
    counts = (4, 0, 1, 2, 0, 3)
    w = cmath.exp(2j * cmath.pi / 6)
    direct = sum(c * w**s for s, c in enumerate(counts))
    assert abs(root_sum_float(counts, 6) - direct) < 1e-12

