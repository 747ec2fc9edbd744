"""Fraction-free exact linear algebra over the integers.

Entries must be ints; a bool or a float raises `TypeError`, so no float
ever decides a rank or a determinant.

Rank over GF(2) first.  `integer_rank` packs each row's parities into one
int and builds an XOR basis.  An integer matrix's rank over GF(2) is at
most its rank over Q, because a minor that is odd is nonzero; so a GF(2)
rank of min(rows, cols) is the exact rank, and no elimination runs.  Only
a shortfall (even entries, or n = 2 incidence matrices) goes on to Bareiss.

Bareiss elimination (Bareiss 1968) keeps every intermediate value an integer
(each division is exact), so ranks and determinants of integer matrices come
out exact with no rational blow-up.  One elimination routine, `_bareiss`,
serves both: the rank is its pivot count, and the determinant is the last
pivot, signed by the row swaps, or 0 as soon as a column has no pivot.

Sparse rows.  Each row keeps only its nonzeros, as a {col: value} dict, and
a column-to-rows index lists the rows that can pivot each column, so one
pivot step costs in proportion to the nonzeros of the rows it touches.
Bareiss scales a row whose entry in the pivot column is 0 by pivot /
previous pivot; those factors telescope, so such a row is left alone and
remembers the pivot at which its entries are current.  When a later pivot
touches it, it is caught up in one exact division, x * prev // base.

Pivot rule: among the rows that can pivot a column, the one with the fewest
nonzeros wins (ties go to the topmost), a Markowitz-style choice (Markowitz
1957), and the pivot row is swapped into place.  Any choice of pivot row
keeps Bareiss exact, since it is Bareiss on a row permutation of the input;
the sparse one keeps the entries small on nearly diagonal matrices such as
the Gram audit's.

Matrices are sequences of int sequences; inputs are never mutated.
"""

__all__ = ["integer_det", "integer_rank"]


def _bareiss(rows, ncols):
    """Eliminate the integer matrix `rows` column by column.

    Yields (col, pivot, swapped) for each pivot in column order: `pivot` is
    the eliminated value of the pivot entry in column `col`, and `swapped`
    tells whether moving its row into place took a row swap.  Columns with
    no pivot are skipped.
    """
    m = [{j: x for j, x in enumerate(row) if x} for row in rows]
    base = [1] * len(m)  # the pivot at which each row's entries are current
    at = list(range(len(m)))  # the row at each position
    pos = list(range(len(m)))  # the position of each row
    where = [set() for _ in range(ncols)]  # column -> rows not yet pivots with an entry there
    for i, row in enumerate(m):
        for j in row:
            where[j].add(i)
    rank = 0
    prev = 1

    def current(i):
        # Row i caught up to pivot prev: the factors since pivot base[i] telescope to prev / base[i].
        b = base[i]
        return m[i] if b == prev else {j: x * prev // b for j, x in m[i].items()}

    for col in range(ncols):
        touched = where[col]
        if not touched:
            continue
        r = min(touched, key=lambda i: (len(m[i]), pos[i]))
        touched.discard(r)
        swapped = pos[r] != rank
        if swapped:
            other = at[rank]
            at[rank], at[pos[r]] = r, other
            pos[other], pos[r] = pos[r], rank
        top = current(r)
        p = top.pop(col)
        yield col, p, swapped
        rank += 1
        for j in top:
            where[j].discard(r)
        for i in touched:
            row = current(i)
            a = row.pop(col)
            new = {j: x * p // prev for j, x in row.items()}
            for j, y in top.items():
                v = (row.get(j, 0) * p - a * y) // prev
                if v:
                    if j not in row:
                        where[j].add(i)
                    new[j] = v
                elif j in row:
                    where[j].discard(i)
                    del new[j]
            m[i] = new
            base[i] = p
        prev = p


def _require_ints(rows):
    # bools and floats are rejected: no float may decide a rank or a determinant
    if not all({int}.issuperset(map(type, row)) for row in rows):
        raise TypeError("matrix entries must be ints")


def _gf2_rank(rows, limit):
    """Rank over GF(2) of the integer rows, counted up to `limit`."""
    basis = {}  # leading bit -> basis vector
    for row in rows:
        # one byte per column, holding the parity of its entry
        v = int.from_bytes(bytes(map((1).__and__, row)), "little")
        while v:
            lead = v.bit_length()
            if lead not in basis:
                basis[lead] = v
                if len(basis) == limit:
                    return limit
                break
            v ^= basis[lead]
    return len(basis)


def integer_det(matrix):
    """Exact determinant of a square integer matrix via Bareiss elimination."""
    rows = [tuple(row) for row in matrix]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant requires a square matrix")
    _require_ints(rows)
    sign, pivot, rank = 1, 1, 0
    for col, pivot, swapped in _bareiss(rows, size):
        if col != rank:
            return 0
        if swapped:
            sign = -sign
        rank += 1
    # A column left without a pivot leaves fewer than `size` pivots.
    return sign * pivot if rank == size else 0


def integer_rank(matrix):
    """Exact rank of an arbitrary integer matrix: GF(2) first, then Bareiss."""
    rows = [tuple(row) for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    _require_ints(rows)
    full = min(len(rows), ncols)
    if _gf2_rank(rows, full) == full:
        return full
    return sum(1 for _ in _bareiss(rows, ncols))
