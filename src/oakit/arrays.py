"""Data model for orthogonal arrays and block designs.

Symbols are integers 0..n-1; the designated symbol used by normalization and
the counting arguments is 0.  Arrays are equal up to row order for
multiplicity purposes: rows are stored in the order given, and the census
operations treat them as a multiset.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .errors import FormatError, NotADesign, NotAnOA, NonintegralIndex

__all__ = [
    "OrthogonalArray",
    "BlockDesign",
    "MultiplicityReport",
    "strength_lambda",
    "row_multiplicities",
    "block_multiplicities",
    "normalize_to_row",
    "normalize_repeated_row",
    "rows_before_zero_tail",
    "symbol_counts",
    "stack",
    "verify_bibd",
    "parse_oa",
    "format_oa",
    "parse_bibd",
    "format_bibd",
]


@dataclass(frozen=True)
class OrthogonalArray:
    """An N x k array over the alphabet {0, ..., n-1}; n, k and entries are ints."""

    n: int
    k: int
    rows: tuple

    def __post_init__(self):
        # bools and floats are rejected: format_oa would write them as
        # `True` or `2.0`, which parse_oa does not read back
        if type(self.n) is not int or type(self.k) is not int:
            raise ValueError("alphabet size n and column count k must be ints")
        if self.n < 2:
            raise ValueError("alphabet size n must be at least 2")
        if self.k < 2:
            raise ValueError("column count k must be at least 2")
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("array must have at least one row")
        for i, row in enumerate(rows):
            if len(row) != self.k:
                raise ValueError(f"row {i} has {len(row)} entries, expected {self.k}")
            for e in row:
                if type(e) is not int or not 0 <= e < self.n:
                    raise ValueError(f"row {i}: entry {e!r} outside 0..{self.n - 1}")

    @property
    def N(self):
        return len(self.rows)


@dataclass(frozen=True)
class BlockDesign:
    """A multiset of k-element blocks over points {0, ..., v-1}."""

    v: int
    k: int
    blocks: tuple

    def __post_init__(self):
        # bools and floats are rejected, as in OrthogonalArray: format_bibd
        # would write them as `True` or `4.0`, which parse_bibd does not read back
        if type(self.v) is not int or type(self.k) is not int:
            raise ValueError("point count v and block size k must be ints")
        if not 2 <= self.k <= self.v:
            raise ValueError("need 2 <= k <= v")
        blocks = tuple(tuple(b) for b in self.blocks)
        for i, block in enumerate(blocks):
            if any(type(p) is not int for p in block):
                raise ValueError(f"block {i} has a point that is not an int")
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        for i, block in enumerate(blocks):
            if len(block) != self.k or len(set(block)) != self.k:
                raise ValueError(f"block {i} is not a {self.k}-element set")
            if block[0] < 0 or block[-1] >= self.v:
                raise ValueError(f"block {i} has a point outside 0..{self.v - 1}")

    @property
    def b(self):
        return len(self.blocks)


@dataclass(frozen=True)
class MultiplicityReport:
    """Census of a row (or block) multiset.

    `counts` is a `Counter` of each distinct item's multiplicity, in
    first-occurrence order, so an item that does not occur counts 0;
    `witness_index` is the index of the first item achieving the maximum.
    """

    counts: dict
    max_multiplicity: int
    witness_index: int

    def __post_init__(self):
        if self.max_multiplicity != max(self.counts.values()):
            raise ValueError(
                f"max multiplicity {self.max_multiplicity} disagrees with the counts"
            )


def strength_lambda(array, t=2):
    """Index of `array` as a strength-t orthogonal array.

    Returns the integer lambda = N / n**t after checking that within every
    t-subset of columns every ordered t-tuple occurs exactly lambda times.
    Raises NonintegralIndex when n**t does not divide N, and NotAnOA with the
    first offending column subset and tuple, in lexicographic order, otherwise.

    A subset passes when its tuples take all n**t values, each lambda times;
    only a failing subset is scanned tuple by tuple for the one to name.
    """
    if not 2 <= t <= array.k:
        raise ValueError("need 2 <= t <= k")
    denom = array.n ** t
    if array.N % denom:
        raise NonintegralIndex(array.N, array.n, t)
    lam = array.N // denom
    columns = tuple(zip(*array.rows))
    for cols in combinations(range(array.k), t):
        freq = Counter(zip(*(columns[c] for c in cols)))
        if len(freq) == denom and set(freq.values()) == {lam}:
            continue
        for tup in product(range(array.n), repeat=t):
            if freq[tup] != lam:
                raise NotAnOA(cols, tup, freq[tup], lam)
    return lam


def _census(items):
    counts = Counter(items)
    best = max(counts.values())
    witness = next(i for i, item in enumerate(items) if counts[item] == best)
    return MultiplicityReport(counts, best, witness)


def row_multiplicities(array):
    """Exact multiset census of the rows."""
    return _census(array.rows)


def block_multiplicities(design):
    """Exact multiset census of the blocks."""
    return _census(design.blocks)


def normalize_to_row(array, index):
    """Relabel symbols per column so row `index` becomes all-zeros.

    Each column applies the transposition swapping the target row's symbol
    with 0 (identity when it is already 0), which preserves all tuple
    frequencies.  All copies of the target row are then moved to the end of
    the row order; the order of the other rows is preserved.
    """
    if not 0 <= index < array.N:
        raise ValueError(f"row index {index} out of range")

    def swap(s):
        table = list(range(array.n))
        table[0], table[s] = s, 0
        return table.__getitem__

    columns = [map(swap(s), col) for s, col in zip(array.rows[index], zip(*array.rows))]
    rows = list(zip(*columns))
    zero = tuple([0] * array.k)
    kept = [r for r in rows if r != zero]
    return OrthogonalArray(array.n, array.k, tuple(kept) + (zero,) * (len(rows) - len(kept)))


def normalize_repeated_row(array, m):
    """`normalize_to_row` at the first row that occurs at least m times.

    The result has that row's copies, all-zeros, as its last rows.  Raises
    ValueError when no row occurs m times.
    """
    counts = row_multiplicities(array).counts
    target = next((i for i, row in enumerate(array.rows) if counts[row] >= m), None)
    if target is None:
        raise ValueError(f"no row has multiplicity >= {m}")
    return normalize_to_row(array, target)


def rows_before_zero_tail(array, m):
    """The rows before the last m, which must be all-zeros.

    The last m rows are the repeated row as `normalize_repeated_row` leaves
    it; ValueError when m is out of range or one of them is not all-zeros.
    """
    if not 0 <= m <= array.N:
        raise ValueError(f"tail length {m} out of range")
    zero = tuple([0] * array.k)
    for i in range(array.N - m, array.N):
        if array.rows[i] != zero:
            raise ValueError(f"row {i} is not all-zeros; normalize first")
    return array.rows[: array.N - m]


def symbol_counts(array, exclude_last):
    """Per-row counts of the designated symbol 0, excluding the last rows.

    Requires the last `exclude_last` rows to be all-zeros (the normalized
    repeated row); returns the counts a_i for the remaining rows in order.
    """
    return tuple(row.count(0) for row in rows_before_zero_tail(array, exclude_last))


def stack(array, copies):
    """Vertical concatenation of `copies` copies of the array.

    Multiplies the index and every row multiplicity by `copies`.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    return OrthogonalArray(array.n, array.k, array.rows * copies)


def verify_bibd(design, t=2):
    """Index of `design` as a t-design.

    Returns lambda if every t-subset of points lies in exactly lambda
    blocks; raises NotADesign with the first offending subset otherwise.
    """
    if not 1 <= t <= design.k:
        raise ValueError("need 1 <= t <= k")
    cover = Counter()
    for block in design.blocks:
        for sub in combinations(block, t):
            cover[sub] += 1
    lam = None
    for sub in combinations(range(design.v), t):
        if lam is None:
            lam = cover[sub]
        if cover[sub] != lam:
            raise NotADesign(sub, cover[sub], lam)
    return lam


# ---------------------------------------------------------------------------
# Text formats.
#
# OA:   line 1 `n k`; each further non-empty line k space-separated symbols
#       in 0..n-1.  BIBD: line 1 `v k`; each line k point indices.  Lines
#       whose first non-blank character is `#` are comments.
# ---------------------------------------------------------------------------


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(line, lineno, names):
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: expected `{names}` header")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header") from None


def _parse_grid(text, make, header, entry, line_noun, distinct=False):
    """Parse a `size width` header and its grid lines into make(size, width, grid).

    Every entry must be an integer in 0..size-1; with `distinct`, no entry
    may repeat within a line.  `entry` and `line_noun` name the entries and
    the lines in the error messages.
    """
    lines = _data_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FormatError("empty input") from None
    size, width = _parse_header(line, lineno, header)
    grid = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != width:
            raise FormatError(f"line {lineno}: expected {width} {entry}s, got {len(parts)}")
        try:
            values = tuple(map(int, parts))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer {entry}") from None
        if not 0 <= min(values) <= max(values) < size:
            e = next(e for e in values if not 0 <= e < size)
            raise FormatError(f"line {lineno}: {entry} {e} outside 0..{size - 1}")
        if distinct and len(set(values)) != width:
            raise FormatError(f"line {lineno}: repeated {entry} in {line_noun}")
        grid.append(values)
    if not grid:
        raise FormatError(f"no {line_noun}s")
    try:
        return make(size, width, tuple(grid))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _format_grid(size, width, grid, comments):
    out = [f"# {c}" for c in comments]
    out.append(f"{size} {width}")
    out.extend(" ".join(str(e) for e in line) for line in grid)
    return "\n".join(out) + "\n"


def parse_oa(text):
    """Parse the OA text format into an OrthogonalArray."""
    return _parse_grid(text, OrthogonalArray, "n k", "symbol", "row")


def format_oa(array, comments=()):
    """Render an OrthogonalArray in the OA text format."""
    return _format_grid(array.n, array.k, array.rows, comments)


def parse_bibd(text):
    """Parse the BIBD text format into a BlockDesign."""
    return _parse_grid(text, BlockDesign, "v k", "point", "block", distinct=True)


def format_bibd(design, comments=()):
    """Render a BlockDesign in the BIBD text format."""
    return _format_grid(design.v, design.k, design.blocks, comments)
