import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oakit import integer_det, integer_rank


def gauss_det(matrix):
    """Reference determinant by fraction-valued Gaussian elimination."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    assert det.denominator == 1
    return int(det)


def gauss_rank(matrix):
    a = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(a[0]) if a else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for r in range(row + 1, len(a)):
            f = a[r][col] / a[row][col]
            for c in range(col, cols):
                a[r][c] -= f * a[row][c]
        row += 1
        rank += 1
    return rank


def test_small_determinants():
    assert integer_det([[5]]) == 5
    assert integer_det([[1, 2], [3, 4]]) == -2
    assert integer_det([[2, 0], [0, 3]]) == 6
    assert integer_det([[1, 1], [1, 1]]) == 0


def test_identity_and_permutation():
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    assert integer_det(eye) == 1
    perm = [[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)]
    assert integer_det(perm) in (-1, 1)
    assert integer_det(perm) == gauss_det(perm)


def test_determinant_matches_gaussian_elimination():
    rng = random.Random(20240517)
    for size in (2, 3, 4, 5, 6):
        for _ in range(20):
            m = [
                [rng.randrange(-6, 7) for _ in range(size)] for _ in range(size)
            ]
            assert integer_det(m) == gauss_det(m)


def test_rank_matches_gaussian_elimination():
    rng = random.Random(987123)
    for rows, cols in ((3, 5), (5, 3), (4, 4), (6, 6), (7, 4)):
        for _ in range(20):
            m = [
                [rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)
            ]
            assert integer_rank(m) == gauss_rank(m)


def test_rank_of_structured_matrices():
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2, 3], [2, 4, 6]]) == 1
    ones = [[1] * 4 for _ in range(4)]
    assert integer_rank(ones) == 1
    # rank-deficient by construction: last row is the sum of the others
    m = [[1, 0, 2], [0, 1, 5], [1, 1, 7]]
    assert integer_rank(m) == 2


def test_det_needs_square_input():
    with pytest.raises(ValueError):
        integer_det([[1, 2, 3], [4, 5, 6]])


def test_large_entries_stay_exact():
    # Hilbert-like integer matrix with a huge determinant; exactness matters.
    m = [[(i + j + 1) ** 3 for j in range(5)] for i in range(5)]
    assert integer_det(m) == gauss_det(m)


# ---------------------------------------------------------------------------
# Property tests: the sparse-pivot elimination against the Fraction references
# ---------------------------------------------------------------------------

ENTRY = st.integers(-9, 9)


@st.composite
def dense_matrix(draw, square=False):
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    return draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def sparse_matrix(draw, square=False):
    # Mostly zeros, so the pivot rule sees rows of many different weights.
    rows = draw(st.integers(1, 8))
    cols = rows if square else draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), ENTRY)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def dependent_matrix(draw, square=False):
    """A matrix with a row that copies or combines earlier rows."""
    m = draw(dense_matrix(square=square) if draw(st.booleans()) else sparse_matrix(square=square))
    if len(m) < 2:
        return m
    i = draw(st.integers(1, len(m) - 1))
    a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
    x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    m[i] = [x * u + y * v for u, v in zip(m[a], m[b])]
    return draw(st.permutations(m))


@st.composite
def low_rank_matrix(draw):
    """A rows x cols product of rows x r and r x cols factors, so rank <= r."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(rows, cols) - 1))
    left = draw(st.lists(st.lists(ENTRY, min_size=r, max_size=r), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=r, max_size=r))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@st.composite
def shifted_gram(draw):
    """lambda*J + lambda*n*I, bordered as in the Gram audit, minus row 0 elsewhere."""
    n, k, lam = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    nk = n * k
    gram = [[lam + (lam * n if p == q else 0) for q in range(nk)] + [lam] for p in range(nk)]
    gram.append([lam] * nk + [k * lam])
    top = gram[0]
    return [top] + [[a - b for a, b in zip(row, top)] for row in gram[1:]]


SQUARE = st.one_of(
    dense_matrix(square=True), sparse_matrix(square=True), dependent_matrix(square=True), shifted_gram()
)
ANY = st.one_of(dense_matrix(), sparse_matrix(), dependent_matrix(), low_rank_matrix(), shifted_gram())


@settings(max_examples=200)
@given(SQUARE)
def test_determinant_property(m):
    assert integer_det(m) == gauss_det(m)


@settings(max_examples=200)
@given(ANY)
def test_rank_property(m):
    assert integer_rank(m) == gauss_rank(m)


def _permutation_sign(perm):
    sign = 1
    seen = set()
    for start in range(len(perm)):
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@settings(max_examples=150)
@given(SQUARE.flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(len(m))))))
def test_row_permutation_multiplies_the_determinant_by_its_sign(case):
    m, perm = case
    permuted = [m[i] for i in perm]
    assert integer_det(permuted) == _permutation_sign(perm) * integer_det(m)


def test_shifted_gram_matrix_keeps_the_predicted_determinant():
    # (lambda*n)^(nk) * lambda * k^2 with and without the row-0 subtraction
    n, k, lam = 4, 5, 2
    nk = n * k
    gram = [[lam + (lam * n if p == q else 0) for q in range(nk)] + [lam] for p in range(nk)]
    gram.append([lam] * nk + [k * lam])
    shifted = [gram[0]] + [[a - b for a, b in zip(row, gram[0])] for row in gram[1:]]
    expected = (lam * n) ** nk * lam * k * k
    assert integer_det(gram) == integer_det(shifted) == gauss_det(shifted) == expected


# ---------------------------------------------------------------------------
# Property tests where the GF(2) rank falls short of min(rows, cols), so the
# exact rank and every determinant come from the sparse Bareiss elimination
# ---------------------------------------------------------------------------


@st.composite
def even_matrix(draw, square=False):
    """Every entry even: the GF(2) rank is 0 whatever the rank over Q."""
    m = draw(dense_matrix(square=square) if draw(st.booleans()) else sparse_matrix(square=square))
    scale = 2 ** draw(st.integers(1, 3))
    return [[scale * x for x in row] for row in m]


@st.composite
def even_combination_matrix(draw, square=False):
    """A row doubled, or an even combination of earlier rows, then the rows permuted."""
    m = draw(dense_matrix(square=square) if draw(st.booleans()) else sparse_matrix(square=square))
    if len(m) < 2:
        return m
    i = draw(st.integers(1, len(m) - 1))
    a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
    x, y = 2 * draw(st.integers(-2, 2)), 2 * draw(st.integers(-2, 2))
    m[i] = [x * u + y * v for u, v in zip(m[a], m[b])] if draw(st.booleans()) else [2 * u for u in m[a]]
    return draw(st.permutations(m))


@st.composite
def large_sparse_matrix(draw, square=False):
    """20 to 60 rows, mostly zeros, some rows even combinations of others.

    Built from a drawn seed: the column index and the deferred scaling of
    untouched rows then run over many pivots with pivot != previous pivot.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(20, 60))
    cols = rows if square else draw(st.integers(20, 60))
    density = draw(st.sampled_from([0.05, 0.1, 0.2]))
    m = [[rng.randrange(-5, 6) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        i, a, b = rng.randrange(rows), rng.randrange(rows), rng.randrange(rows)
        x, y = 2 * rng.randrange(-2, 3), 2 * rng.randrange(-2, 3)
        m[i] = [x * u + y * v for u, v in zip(m[a], m[b])]
    return m


SHORT_SQUARE = st.one_of(even_matrix(square=True), even_combination_matrix(square=True))
SHORT_ANY = st.one_of(even_matrix(), even_combination_matrix())


@settings(max_examples=150)
@given(SHORT_SQUARE)
def test_determinant_property_with_even_rows(m):
    assert integer_det(m) == gauss_det(m)


@settings(max_examples=150)
@given(SHORT_ANY)
def test_rank_property_with_even_rows(m):
    assert integer_rank(m) == gauss_rank(m)


@settings(max_examples=20)
@given(large_sparse_matrix(square=True))
def test_determinant_property_on_large_sparse_matrices(m):
    assert integer_det(m) == gauss_det(m)


@settings(max_examples=20)
@given(large_sparse_matrix())
def test_rank_property_on_large_sparse_matrices(m):
    assert integer_rank(m) == gauss_rank(m)


def test_gf2_rank_shortfall_still_gives_the_exact_rank():
    # rank 2 over Q, 0 over GF(2); and a 2 x 2 minor that is even but nonzero
    assert integer_rank([[2, 0], [0, 2]]) == 2
    assert integer_rank([[1, 1], [1, 3]]) == 2
    assert integer_det([[1, 1], [1, 3]]) == 2
