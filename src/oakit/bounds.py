"""Exact-rational existence bounds for orthogonal arrays and block designs.

Every bound is computed as a Fraction plus a separate integer form (ceiling
for minima, floor for maxima); nothing is rounded anywhere else.  When the
quantity being bounded is supplied, the result also records whether the
bound is satisfied and whether it is met with equality.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisViolated

__all__ = [
    "BoundResult",
    "OAParameters",
    "DesignParameters",
    "pb_min_lambda",
    "rr_min_lambda",
    "max_multiplicity",
    "equality_abar",
    "rao_min_rows",
    "mqw_min_rows",
    "johnson_R",
    "oa_to_cwc_params",
    "bibd_bounds",
]


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound.

    `kind` is "min" or "max": the bounded quantity must be >= value for a
    minimum and <= value for a maximum.  `integer_form` is the ceiling of a
    minimum and the floor of a maximum.  `satisfied` and `tight` are None
    when the bounded quantity was not supplied; `applicable` is False when a
    side condition of the theorem fails (value is still reported for
    reference, but implies nothing).
    """

    formula: str
    value: Fraction
    integer_form: int
    kind: str
    satisfied: bool = None
    tight: bool = None
    applicable: bool = True

    def __post_init__(self):
        if self.kind not in ("min", "max"):
            raise ValueError(f"bound kind must be 'min' or 'max', got {self.kind!r}")
        expected = math.ceil(self.value) if self.kind == "min" else math.floor(self.value)
        if self.integer_form != expected:
            raise ValueError(
                f"integer form {self.integer_form} of a {self.kind} bound {self.value} "
                f"must be {expected}"
            )


def _bound(formula, value, kind, actual=None, applicable=True):
    value = Fraction(value)
    integer_form = math.ceil(value) if kind == "min" else math.floor(value)
    satisfied = tight = None
    if actual is not None and applicable:
        ok = actual >= value if kind == "min" else actual <= value
        satisfied = bool(ok)
        tight = Fraction(actual) == value
    return BoundResult(formula, value, integer_form, kind, satisfied, tight, applicable)


@dataclass(frozen=True)
class OAParameters:
    """Validated (t, k, n, lambda, m) tuple for an orthogonal-array claim."""

    t: int
    k: int
    n: int
    lam: int
    m: int = 1

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("strength t must be at least 2")
        if not self.t <= self.k:
            raise ValueError("need t <= k")
        if self.n < 2:
            raise ValueError("alphabet size n must be at least 2")
        if self.lam < 1:
            raise ValueError("index lambda must be at least 1")
        if not 1 <= self.m <= self.lam:
            # An m-times repeated row alone contributes m identical pairs in
            # every two columns, so lambda >= m in any strength-2 array.
            raise ValueError("need 1 <= m <= lambda")

    @property
    def N(self):
        return self.lam * self.n ** self.t


@dataclass(frozen=True)
class DesignParameters:
    """Validated parameter set for a t-(v,k,lambda) design claim.

    `s` is the projection order used by the subset-counting bounds; when not
    given it defaults to floor(t/2), the largest order the side condition
    t >= 2s allows.
    """

    v: int
    k: int
    lam: int
    b: int = None
    t: int = 2
    s: int = None
    m: int = 1

    def __post_init__(self):
        if not 2 <= self.k <= self.v:
            raise ValueError("need 2 <= k <= v")
        if self.lam < 1:
            raise ValueError("index lambda must be at least 1")
        if self.t < 2:
            raise ValueError("strength t must be at least 2")
        if self.s is None:
            object.__setattr__(self, "s", self.t // 2)
        if self.s < 1:
            raise ValueError("projection order s must be at least 1")
        if self.m < 1:
            raise ValueError("multiplicity m must be at least 1")
        if self.b is not None and self.b < 1:
            raise ValueError("block count b must be at least 1")


def pb_min_lambda(k, n, lam=None):
    """Minimum index of a strength-2 array: lambda >= (k(n-1)+1)/n**2."""
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 and n >= 2")
    value = Fraction(k * (n - 1) + 1, n * n)
    return _bound("pb-min-lambda", value, "min", lam)


def rr_min_lambda(k, n, m, lam=None):
    """Minimum index given an m-times repeated row: lambda >= m(k(n-1)+1)/n**2."""
    if k < 2 or n < 2 or m < 1:
        raise ValueError("need k >= 2, n >= 2, m >= 1")
    value = Fraction(m * (k * (n - 1) + 1), n * n)
    return _bound("rr-min-lambda", value, "min", lam)


def max_multiplicity(k, n, lam, m=None):
    """Maximum row multiplicity in any strength-2 array: m <= lam*n**2/(k(n-1)+1)."""
    if k < 2 or n < 2 or lam < 1:
        raise ValueError("need k >= 2, n >= 2, lambda >= 1")
    value = Fraction(lam * n * n, k * (n - 1) + 1)
    return _bound("max-multiplicity", value, "max", m)


def equality_abar(k, n, lam, m):
    """Mean designated-symbol count over the non-repeated rows.

    abar = k(lam*n - m)/(lam*n**2 - m).  In an equality case of the
    multiplicity bound every non-repeated row attains this value exactly, so
    it must then be a nonnegative integer at most k.
    """
    if k < 2 or n < 2 or lam < 1 or m < 1:
        raise ValueError("need k >= 2, n >= 2, lambda >= 1, m >= 1")
    if lam * n * n <= m:
        raise ValueError("need lambda*n**2 > m")
    return Fraction(k * (lam * n - m), lam * n * n - m)


def _rao_value(t, k, n):
    # term i is C(k,i)(n-1)^i; each follows from the last by an exact division
    s = t // 2
    total = term = 1
    for i in range(s):
        term = term * (k - i) * (n - 1) // (i + 1)
        total += term
    if t % 2:
        total += math.comb(k - 1, s) * (n - 1) ** (s + 1)
    return total


def rao_min_rows(t, k, n, lam=None):
    """Minimum row count of a strength-t array.

    Even t = 2s: N >= sum_{i<=s} C(k,i)(n-1)^i.  Odd t = 2s+1 adds the
    extra term C(k-1,s)(n-1)^(s+1).  When `lam` is given, N = lam*n**t is
    compared against the bound.
    """
    if t < 2 or k < t or n < 2:
        raise ValueError("need t >= 2, k >= t, n >= 2")
    value = Fraction(_rao_value(t, k, n))
    actual = None if lam is None else lam * n ** t
    return _bound("rao-min-rows", value, "min", actual)


def mqw_min_rows(t, k, n, m, lam=None):
    """Minimum row count given an m-times repeated row: m times the strength-t minimum."""
    if m < 1:
        raise ValueError("need m >= 1")
    base = rao_min_rows(t, k, n)
    actual = None if lam is None else lam * n ** t
    return _bound("mqw-min-rows", m * base.value, "min", actual)


def johnson_R(ell, w, mu, r=None):
    """Maximum size of a binary constant-weight code with bounded inner products.

    R(ell, w, mu) <= ell(w - mu)/(w**2 - ell*mu) for length-ell weight-w
    vectors whose pairwise inner products are at most mu.  The hypothesis
    w**2 > ell*mu is hard: its failure raises HypothesisViolated (the bound
    is then silent, not the family impossible).
    """
    if ell < 1 or w < 1 or mu < 0:
        raise ValueError("need ell >= 1, w >= 1, mu >= 0")
    if w * w <= ell * mu:
        raise HypothesisViolated(
            f"johnson_R needs w^2 > ell*mu; got {w}^2 = {w * w} <= {ell * mu}"
        )
    value = Fraction(ell * (w - mu), w * w - ell * mu)
    return _bound("johnson-R", value, "max", r)


def oa_to_cwc_params(k, n, lam, m):
    """Constant-weight-code parameters carried by an array with an m-repeated row.

    Normalizing the repeated row to all-zeros, deleting its m copies, and
    mapping the designated symbol to 1 (all others to 0) turns each column
    into a binary vector of length lam*n**2 - m and weight lam*n - m whose
    pairwise inner products equal lam - m.
    """
    if k < 2 or n < 2 or lam < 1 or m < 1:
        raise ValueError("need k >= 2, n >= 2, lambda >= 1, m >= 1")
    if lam < m:
        raise ValueError("need lambda >= m")
    if lam * n * n <= m:
        raise ValueError("need lambda*n**2 > m")
    return (lam * n * n - m, lam * n - m, lam - m)


def bibd_bounds(p):
    """Block-count bounds for a t-(v,k,lambda) design, as a list of BoundResult.

    fisher:  b >= v            (needs v >= k+1)
    mann:    b >= m*v          (needs v >= k+1)
    rcw:     b >= C(v,s)       (needs t >= 2s and v >= k+s)
    wilson:  b >= m*C(v,s)     (same side conditions as rcw)

    Results whose side conditions fail are returned with applicable=False.
    """
    fisher_ok = p.v >= p.k + 1
    subset_ok = p.t >= 2 * p.s and p.v >= p.k + p.s
    choose = math.comb(p.v, p.s)
    return [
        _bound("fisher", p.v, "min", p.b, applicable=fisher_ok),
        _bound("mann", p.m * p.v, "min", p.b, applicable=fisher_ok),
        _bound("rcw", choose, "min", p.b, applicable=subset_ok),
        _bound("wilson", p.m * choose, "min", p.b, applicable=subset_ok),
    ]
