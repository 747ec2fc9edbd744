"""Exact arithmetic for integer combinations of n-th roots of unity.

A sum S = sum_s c_s * w**s (w a primitive n-th root of unity, c_s integers)
vanishes iff the polynomial sum_s c_s x**s is divisible by the n-th
cyclotomic polynomial Phi_n.  Reduction mod Phi_n therefore gives an exact
zero test with integer arithmetic only; no floating point is involved.

Polynomials are tuples of integer coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple).
"""

from functools import cache

__all__ = ["cyclotomic", "reduce_root_sum", "root_sum_is_zero"]


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a, b):
    """Product of two coefficient tuples.

    >>> poly_mul((1, 1), (1, 1))
    (1, 2, 1)
    """
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def poly_divmod(num, den):
    """Quotient and remainder of integer polynomials.

    Requires every intermediate division of leading coefficients to be exact,
    which holds throughout this module (cyclotomic factors are monic).

    >>> poly_divmod((-1, 0, 0, 1), (-1, 1))   # (x^3-1) / (x-1)
    ((1, 1, 1), ())
    """
    num = list(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(num) - len(den) + 1)
    while len(_trim(num)) >= len(den):
        num = list(_trim(num))
        shift = len(num) - len(den)
        lead, rem = divmod(num[-1], den[-1])
        if rem:
            raise ValueError("non-exact leading-coefficient division")
        q[shift] = lead
        for i, d in enumerate(den):
            num[shift + i] -= lead * d
    return _trim(q), _trim(num)


@cache
def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial Phi_n.

    Computed by exact division of x**n - 1 by the product of Phi_d over the
    proper divisors d of n.

    >>> cyclotomic(1)
    (-1, 1)
    >>> cyclotomic(2)
    (1, 1)
    >>> cyclotomic(6)
    (1, -1, 1)
    >>> cyclotomic(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    xn_minus_1 = tuple([-1] + [0] * (n - 1) + [1])
    den = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, cyclotomic(d))
    quotient, remainder = poly_divmod(xn_minus_1, den)
    if remainder:
        raise AssertionError(f"x^{n}-1 not divisible by product of proper Phi_d")
    return quotient


def reduce_root_sum(counts, n):
    """Residual of sum_s counts[s] * x**s modulo Phi_n.

    `counts` must have length n.  The residual is () exactly when the root
    sum vanishes.

    >>> reduce_root_sum((1, 1), 2)      # 1 + w = 0 for w = -1
    ()
    >>> reduce_root_sum((2, 1), 2)
    (1,)
    >>> reduce_root_sum((1, 0, 0, 1, 0, 0), 6)   # 1 + w^3 = 0
    ()
    """
    if len(counts) != n:
        raise ValueError(f"expected {n} counts, got {len(counts)}")
    _, residual = poly_divmod(_trim(counts), cyclotomic(n))
    return residual


def root_sum_is_zero(counts, n):
    """Exact verdict: does sum_s counts[s] * w**s vanish?

    Correct for every n, including composite n where equality of all counts
    is sufficient but not necessary:

    >>> root_sum_is_zero((1, 1, 1), 3)
    True
    >>> root_sum_is_zero((1, 0, 1, 0), 4)    # 1 + w^2 = 0
    True
    >>> root_sum_is_zero((1, 1, 0, 0), 4)
    False
    """
    return not reduce_root_sum(counts, n)
