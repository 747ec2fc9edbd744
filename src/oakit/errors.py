"""Exception types shared across the package."""

__all__ = [
    "OakitError",
    "FormatError",
    "NotAnOA",
    "NonintegralIndex",
    "NotADesign",
    "HypothesisViolated",
    "UnsupportedParameters",
    "CeilingExceeded",
    "BudgetExceeded",
    "AuditFailure",
    "IdentityViolated",
    "EquationViolated",
    "RankDeficient",
    "LemmaViolated",
    "NonpositiveDeterminant",
    "NonOrthogonal",
    "WeightMismatch",
    "InnerProductMismatch",
]


class OakitError(Exception):
    """Base class for all package-specific errors."""


class FormatError(OakitError):
    """Malformed OA/BIBD text input."""


class NotAnOA(OakitError):
    """Some tuple frequency deviates from the claimed strength/index.

    Carries the offending column subset, the tuple, its observed count and
    the expected count.
    """

    def __init__(self, columns, tup, count, expected):
        self.columns = tuple(columns)
        self.tup = tuple(tup)
        self.count = count
        self.expected = expected
        super().__init__(
            f"columns {self.columns}: tuple {self.tup} occurs {count} "
            f"times, expected {expected}"
        )


class NonintegralIndex(OakitError):
    """Row count is not divisible by n**t, so no integer index exists."""

    def __init__(self, N, n, t):
        self.N = N
        self.n = n
        self.t = t
        super().__init__(f"N={N} is not a multiple of {n}**{t}")


class NotADesign(OakitError):
    """Some t-subset of points is not covered the right number of times."""

    def __init__(self, subset, count, expected):
        self.subset = tuple(subset)
        self.count = count
        self.expected = expected
        super().__init__(
            f"point subset {self.subset} lies in {count} blocks, expected {expected}"
        )


class HypothesisViolated(OakitError):
    """A bound's stated hypothesis fails, so the bound is inapplicable."""


class UnsupportedParameters(OakitError):
    """Generator or search asked for parameters outside its envelope."""


class CeilingExceeded(OakitError):
    """Search problem exceeds the configured desk-scale row ceiling."""


class BudgetExceeded(OakitError):
    """Search ran out of budget before resolving the question.

    Distinct from nonexistence: callers must never interpret this as a
    completed exhaustive answer.
    """

    def __init__(self, message, nodes=0):
        self.nodes = nodes
        super().__init__(message)


class AuditFailure(OakitError):
    """An audit check failed.  Carries the full report and the check id."""

    def __init__(self, message, report=None, check_id=None):
        self.report = report
        self.check_id = check_id
        super().__init__(message)


class IdentityViolated(AuditFailure):
    """A sum identity of the variance audit does not hold."""


class EquationViolated(AuditFailure):
    """A span equation fails at some coordinate."""

    def __init__(self, message, report=None, check_id=None, coordinate=None):
        super().__init__(message, report, check_id)
        self.coordinate = coordinate


class RankDeficient(AuditFailure):
    """Incidence matrix rank is below the value a valid OA guarantees."""


class LemmaViolated(AuditFailure):
    """Gram matrix differs entrywise from its predicted closed form."""


class NonpositiveDeterminant(AuditFailure):
    """Exact Gram determinant is not positive."""


class NonOrthogonal(AuditFailure):
    """A root-of-unity inner product does not vanish.

    Carries the offending pair of vector labels and the residual polynomial
    after cyclotomic reduction.
    """

    def __init__(self, message, report=None, check_id=None, pair=None, residual=None):
        super().__init__(message, report, check_id)
        self.pair = pair
        self.residual = residual


class WeightMismatch(AuditFailure):
    """A derived constant-weight codeword has the wrong weight."""


class InnerProductMismatch(AuditFailure):
    """Two derived codewords have an unexpected inner product."""
