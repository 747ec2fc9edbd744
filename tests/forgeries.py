"""Forged arrays for the tests: valid arrays with cells changed.

Not a test module; the test modules import it.
"""

from oakit import OrthogonalArray


def corrupt(array):
    """Replace the last row so the strength-2 property breaks."""
    rows = list(array.rows)
    rows[-1] = (1,) * array.k
    return OrthogonalArray(array.n, array.k, tuple(rows))


def forged(array, i, j, symbol):
    """Put `symbol` in cell (i, j): a one-cell forgery."""
    rows = list(array.rows)
    rows[i] = rows[i][:j] + (symbol,) + rows[i][j + 1 :]
    return OrthogonalArray(array.n, array.k, tuple(rows))


def shift_cell(array, i, j):
    """Add 1 mod n to cell (i, j)."""
    return forged(array, i, j, (array.rows[i][j] + 1) % array.n)


def mutants(array):
    """Every one-cell forgery, row by row, column by column, symbol by symbol."""
    for i, row in enumerate(array.rows):
        for j, symbol in enumerate(row):
            for other in range(array.n):
                if other != symbol:
                    yield forged(array, i, j, other)
