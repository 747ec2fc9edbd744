"""Fraction-free exact linear algebra over the integers.

Bareiss elimination (Bareiss 1968) keeps every intermediate value an integer
(each division is exact), so ranks and determinants of integer matrices come
out exact with no rational blow-up.  One elimination routine, `_bareiss`,
serves both: the rank is its pivot count, and the determinant is the last
pivot, signed by the row swaps, or 0 as soon as a column has no pivot.

Pivot rule: among the rows that can pivot a column, the one with the fewest
nonzeros wins (ties go to the topmost), a Markowitz-style choice (Markowitz
1957).  Any choice of pivot row keeps Bareiss exact, since it is Bareiss on
a row permutation of the input; the sparse one keeps the entries small on
nearly diagonal matrices such as the Gram audit's.  A row whose entry in
the pivot column is 0 is only scaled, by pivot / previous pivot.

Matrices are plain lists of lists of ints; inputs are never mutated.
"""

__all__ = ["integer_det", "integer_rank"]


def _bareiss(m):
    """Eliminate the list-of-lists matrix `m` in place, one pivot at a time.

    Yields (rank, col, swapped) as the pivot of column `col` is moved to
    row `rank`, before the rows below it are eliminated; `swapped` tells
    whether that took a row swap.  Columns with no pivot are skipped.
    """
    nrows = len(m)
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        candidates = [r for r in range(rank, nrows) if m[r][col] != 0]
        if not candidates:
            continue
        pivot_row = max(candidates, key=lambda r: m[r].count(0))
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
        yield rank, col, pivot_row != rank
        top = m[rank]
        p = top[col]
        right = top[col + 1 :]
        for r in range(rank + 1, nrows):
            row = m[r]
            a = row[col]
            if a:
                row[col + 1 :] = [(x * p - a * y) // prev for x, y in zip(row[col + 1 :], right)]
                row[col] = 0
            elif p != prev:
                row[col + 1 :] = [x * p // prev for x in row[col + 1 :]]
        prev = p
        rank += 1
        if rank == nrows:
            return


def integer_det(matrix):
    """Exact determinant of a square integer matrix via Bareiss elimination."""
    m = [list(row) for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant requires a square matrix")
    if size == 0:
        return 1
    sign = 1
    for rank, col, swapped in _bareiss(m):
        if col != rank:
            return 0
        if swapped:
            sign = -sign
    # A column left without a pivot leaves m[size - 1][size - 1] at 0.
    return sign * m[size - 1][size - 1]


def integer_rank(matrix):
    """Exact rank of an arbitrary integer matrix via Bareiss elimination."""
    m = [list(row) for row in matrix]
    if not m:
        return 0
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return sum(1 for _ in _bareiss(m))
