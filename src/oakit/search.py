"""Exhaustive canonical backtracking search for strength-2 orthogonal arrays.

The search enumerates arrays whose rows are in nondecreasing lexicographic
order (one representative per row multiset), with an optional forced
multiplicity m that pins the first m rows to all-zeros.  Sorting makes the
first two columns a function of the row index alone, so only cells from
column 2 on branch: a free row checks and places its forced cell of block
(0, 1) once, then its cells branch from column 2.  The DFS is one loop over
an explicit stack of free rows, with no recursion.  The pinned rows are
placed whole before the DFS starts and are not search nodes.  One list of
remaining capacities drives the pruning: the symbol-pair capacities of
every column pair.  No column keeps a symbol capacity (colcap): colcap[c][s]
would be the sum of the cells at s of block (0, c), or of block (0, 1) for
c = 0, none of them negative, so the block's own cell check rejects every
row the colcap would.  Every ordered symbol pair in every column pair must
be used exactly lambda times, a capacity may never go negative, and a
Hall-type availability argument discards rows whose remaining demand
cannot be met.  Its rules each demand cap[d] <= sum(min(cap[x], cap[y]))
over fixed index pairs: each remaining demand in a column pair (a, b) with
b >= 2 and a != 1 must fit through column 1.  Because columns 0 and 1 are
forced, the rows still to come with the pair (s0, s1) in those columns
number cap[(0,1)][s0][s1], so the rules read only live capacities.  No
rule compares a demand with a symbol count or routes it through column 0:
on a complete row such a rule always holds (`_family_rules` shows why).
Every rule holds before the first row, so after placing a row only the
rules it can break are checked: in family (a, b), those whose demand
(sa, sb) matches the row in exactly one of columns a and b, 2(n-1) of the
n*n rules per family.  Such a rule reads the row's cells in one term only,
and one of that term's two cells went down by one, so its sum can only
have fallen if that cell is now the smaller one: one comparison skips
every other rule, and the verdict stays exact (`_hall`).

Everything a cell or a row needs that depends on the row prefix alone sits
in one trie of row prefixes, grown lazily for the whole run (in each worker
process apart): the node of a partial row holds the capacity indices that
each symbol takes in the next column, and the leaf of a complete row is its
recheck rule set.  A leaf is a tuple of references to rule objects, built
on first use and kept in a dict under (a, b, row[1], row[a], row[b]) for
family (a, b), which rows share.  No rule is built before the first node.

`maximize_stages` runs the exists-search at each forced multiplicity from
the counting bound's floor down; `oracle_max_multiplicity` and the CLI's
`search --maximize` both consume it.

Many row prefixes leave the same capacities up to symmetry, and at the
first row of a forced (s0, s1) block, where the last row bounds nothing,
the subtrees below such states then have the same node and solution
counts.  The symmetry is the group G that permutes the free columns
2..k-1 and relabels each one's symbols.  Below a block-start row a node is
a choice of row multisets per block whose state breaks no rule: placing a
row never raises a rule's slack, so that check is closed under taking
fewer rows and depends on the last state alone.  G maps the capacities,
and each rule family, onto themselves, so it maps the nodes below a state
one to one onto the nodes below its image.  A run keeps a memo of each
finished subtree below a block start, dead ends too, keyed by the capacity
list of one image of its state under G (`_key`), and counts a repeated
state's subtree from the memo instead of visiting it (`_kernel`).  Node
counts still count every node of the canonical tree: the repeated
subtrees are counted, node for node, through the memo.  Only the memo
uses G; pruning and the tree it prunes are those of the plain search.

Within a cell, candidate symbols are tried in descending order; the visit
order of a fully traversed tree does not affect which nodes are visited
(pruning depends only on the partial assignment), but descending order
reaches witnesses for the hardest in-scope instances far sooner.

Node budgets are exact: a search stops the moment the node counter would
pass the budget.  The multi-worker mode splits the tree into chunks of 1024
nodes, each of which hands back the rest of its subtree as row prefixes in
DFS order, and runs them leftmost first on worker processes; it replays the
chunks' node counts in DFS order, so that status, witness, node count and
solution count are identical to the single-worker run for any worker
count.  Besides its node budget, a kernel run ends early only through its
`stop`, asked at the first node at or past each multiple of 256, which
reads the wall budget's deadline.  Worker chunks run without one: the
parent alone watches the deadline, and it ends a parallel run by killing
its workers.
"""

import math
import os
import time
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import itemgetter

from .arrays import OrthogonalArray, row_multiplicities, strength_lambda
from .bounds import max_multiplicity
from .errors import BudgetExceeded, CeilingExceeded, OakitError, UnsupportedParameters

__all__ = [
    "FOUND",
    "EXHAUSTED",
    "BUDGET_EXCEEDED",
    "DEFAULT_CEILING",
    "SearchProblem",
    "SearchResult",
    "search_oa",
    "maximize_stages",
    "oracle_max_multiplicity",
    "generate_linear_oa",
]

FOUND = "found"
EXHAUSTED = "exhausted-no-solution"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_CEILING = 36


@dataclass(frozen=True)
class SearchProblem:
    """Parameters and limits of one search run.

    `m` = 0 leaves multiplicity free; m >= 1 forces the first m rows to
    all-zeros.  `mode` is "exists" (stop at the first solution) or "count"
    (traverse everything and count canonical solutions).  `node_budget` (an
    int >= 0) and `wall_budget` (seconds, an int or float >= 0) cap the run,
    and neither may be a bool; the row count lambda*n**2 must not exceed
    `ceiling`, an int >= 1.
    """

    n: int
    k: int
    lam: int
    t: int = 2
    m: int = 0
    mode: str = "exists"
    node_budget: int = None
    wall_budget: float = None
    ceiling: int = DEFAULT_CEILING

    def __post_init__(self):
        if self.t != 2:
            raise UnsupportedParameters("search supports strength 2 only")
        if any(type(v) is not int for v in (self.n, self.k, self.lam, self.m)):
            raise ValueError("n, k, lambda and m must be ints")
        if self.n < 2 or self.k < 2 or self.lam < 1:
            raise ValueError("need n >= 2, k >= 2, lambda >= 1")
        if self.mode not in ("exists", "count"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.m <= self.N:
            raise ValueError("forced multiplicity out of range")
        _check_limits(self.node_budget, self.wall_budget, self.ceiling)
        if self.N > self.ceiling:
            raise CeilingExceeded(
                f"{self.N} rows exceeds the configured ceiling of {self.ceiling}"
            )

    @property
    def N(self):
        return self.lam * self.n * self.n


def _check_limits(budget, wall, ceiling):
    """Raise ValueError unless the budgets and the ceiling are as `SearchProblem` states."""
    if budget is not None and (
        isinstance(budget, bool) or not isinstance(budget, int) or budget < 0
    ):
        raise ValueError("node budget must be a nonnegative int")
    if wall is not None and (
        isinstance(wall, bool) or not isinstance(wall, (int, float)) or not wall >= 0
    ):
        raise ValueError("wall budget must be a number >= 0")
    if type(ceiling) is not int or ceiling < 1:
        raise ValueError("ceiling must be an int >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: status, witness, and exact node count.

    `achieved_multiplicity` is the maximum row multiplicity of the witness
    (0 when there is none); `solution_count` is meaningful in count mode
    and equals 1/0 in exists mode; a budget-exceeded run has neither.
    """

    status: str
    witness: object
    nodes_explored: int
    achieved_multiplicity: int
    solution_count: int


# Nodes a chunked kernel run explores before it hands back the rest of its subtree.
_CHUNK_NODES = 1024
# States one subtree memo holds at most (`_kernel`).
_MEMO_STATES = 2**17


def _worker(conn, problem, tables, chunk, parent_ends=()):
    """A search worker: runs the chunk below each prefix it receives.

    A task is its prefix alone: the problem, `tables` with its trie, the
    chunk interval and one subtree memo (`_kernel`) serve every chunk of
    the run.  A chunk has neither a node budget nor a `stop`: the parent's
    replay enforces the node budget, the parent watches the wall budget,
    and the parent kills the worker when the search ends.

    `parent_ends` are the parent's pipe ends that a forked worker inherits,
    its own included; it closes them first, so that the parent's death
    closes its pipe.  A waiting worker then reads EOF, or a reset when the
    parent left an answer unread, and a busy one fails to send its answer
    once its chunk is done: each ends without a traceback.
    """
    for end in parent_ends:
        end.close()
    p = problem
    memo = {}
    with suppress(EOFError, ConnectionError):
        while True:
            prefix = conn.recv()
            conn.send(_kernel(p.n, p.k, p.lam, prefix, p.mode, None, tables, chunk, None, memo))


def _tables(n, k):
    """The trie's layout and the root of an empty trie.

    The layout is (pidx, families, shared, symmetry).  pidx[a][b] numbers
    the column pairs a < b, `families` is `_families(k)`, and `shared` is
    an empty dict that maps (a, b, row[1], row[a], row[b]) to the recheck
    rules of family (a, b) for rows with those cells (`_family_rules`),
    which `_node` adds when a leaf first needs them.  `symmetry` holds the
    tables of the memo key (`_symmetry`).  Nothing here depends on lambda,
    the prefix or the budgets, so one search run builds these once;
    `_kernel` grows the trie and fills `shared` and the key's block table
    as it places rows, and all live as long as the tables: one run, or one
    worker's life.
    """
    pidx = [[0] * k for _ in range(k)]
    for i, (a, b) in enumerate(combinations(range(k), 2)):
        pidx[a][b] = i
    layout = (pidx, _families(k), {}, _symmetry(n, k, pidx))
    return layout, _node(n, k, layout, (), 0)


def _cell(n, pidx, a, b, sa, sb):
    """The index in the capacity list of the cell (sa, sb) of columns a != b."""
    if a > b:
        a, b, sa, sb = b, a, sb, sa
    return (pidx[a][b] * n + sa) * n + sb


def _symmetry(n, k, pidx):
    """The tables `_key` reads: (sig, perms, pix, rows, pidx).

    `sig` is an itemgetter that reads, for each free column c >= 2 and
    each symbol s in turn, the signature of s in c: its 2n cells in
    blocks (0, c) and (1, c), the column s of each.  `perms` lists the
    symbol orders of one column and `pix` numbers them.  rows[a][b][p],
    for columns a != b, holds the capacity indices of block (a, b) read
    with a's symbols as rows and b's as columns in order perms[p], one
    tuple per row symbol.  `_key` builds each entry on first use, so the
    table holds at most k * k * n! of them.
    """
    sig = [
        _cell(n, pidx, x, c, t, s)
        for c in range(2, k)
        for s in range(n)
        for x in (0, 1)
        for t in range(n)
    ]
    perms = list(permutations(range(n)))
    pix = {p: i for i, p in enumerate(perms)}
    rows = [[[None] * len(perms) for _ in range(k)] for _ in range(k)]
    return itemgetter(*sig) if sig else None, perms, pix, rows, pidx


def _key(cap, symmetry, n, k):
    """The memo key of the capacities `cap`: the capacity list of g·cap.

    g lies in the group G that permutes the free columns 2..k-1 and
    relabels each free column's symbols; columns 0 and 1 stay fixed.  It
    is chosen from `cap` alone: each free column's symbols are sorted by
    their signatures (`_symmetry`), then the free columns by their sorted
    signature lists, both sorts stable.  So equal keys mean states in one
    orbit of G, whose subtrees have equal node and solution counts
    (`_kernel`).  A tie in either sort can give two states of one orbit
    different keys, which costs hits only.
    """
    sig, perms, pix, rows, pidx = symmetry
    w = 2 * n
    v = sig(cap) if sig else ()
    sigs = [v[i : i + w] for i in range(0, len(v), w)]
    order = [perms[0], perms[0]]
    ranked = [(), ()]
    for j in range(0, len(sigs), n):
        part = sigs[j : j + n]
        order.append(tuple(sorted(range(n), key=part.__getitem__)))
        ranked.append(sorted(part))
    cols = [0, 1] + sorted(range(2, k), key=ranked.__getitem__)
    perm = [pix[o] for o in order]
    idx = []
    for a, b in combinations(cols, 2):
        block = rows[a][b][perm[b]]
        if block is None:
            block = rows[a][b][perm[b]] = [
                tuple([_cell(n, pidx, a, b, sa, sb) for sb in order[b]]) for sa in range(n)
            ]
        for s in order[a]:
            idx += block[s]
    return itemgetter(*idx)(cap)


def _node(n, k, layout, row, c):
    """The trie node of the partial row row[:c].

    Below c == k it is a list: for each symbol s, the indices in the
    capacity list that s takes in column c (the (a, c) blocks at row[a]),
    then n child slots, filled on first use.  At c == k it is the leaf: the
    recheck rule set of the complete row: the `shared` entries of its
    families in family order, each added on first use.
    """
    pidx, families, shared, _ = layout
    if c == k:
        leaf = []
        for a, b in families:
            key = (a, b, row[1], row[a], row[b])
            try:
                rules = shared[key]
            except KeyError:
                rules = shared[key] = _family_rules(n, pidx, *key)
            leaf += rules
        return tuple(leaf)
    n2 = n * n
    base = [pidx[a][c] * n2 + row[a] * n for a in range(c)]
    return [tuple([o + s for o in base]) for s in range(n)] + [None] * n


def _families(k):
    """The rule families (a, b), in the order a leaf holds them.

    Each family routes the demands of column pair (a, b) through column 1:
    the inner (a, b >= 2) families first, because nearly every rejection
    happens there, then (0, b >= 2).  The verdict does not depend on the
    order.
    """
    inner = [(a, b) for a in range(2, k) for b in range(a + 1, k)]
    return inner + [(0, b) for b in range(2, k)]


def _family_rules(n, pidx, a, b, s, ra, rb):
    """The Hall rules of family (a, b) that a row with s, ra, rb in columns 1, a, b can break.

    A Hall rule (d, ((x, y), ...)) holds when cap[d] <= sum(min(cap[x],
    cap[y])).  Each remaining demand d = cap[(a,b)][sa][sb] with b >= 2 and
    a != 1 must fit through column 1: a row with (sa, sb) in (a, b) takes
    some symbol t in column 1, which needs room in both (1, a) and (1, b),
    so family (a, b) has one rule per demand (sa, sb), with the term
    (cap[(1,a)][t][sa], cap[(1,b)][t][sb]) for each t.

    `_hall` is only called on complete rows, and there two kinds of rules
    could never fail, so no family has them:

    - A bound on cap[(0,b)][s0][sb] by the rows still to come with s0 in
      column 0: that count is the sum of cap[(0,b)][s0][.], and no capacity
      is negative.
    - A demand routed through column 0.  Sorted rows make column 0 the block
      index r // (lambda*n).  After a row of block s0, every cell of a block
      (0, x) is 0 for s < s0 and lambda for s > s0, and a demand is at most
      lambda.  If s0 < n - 1, the term s = n - 1 alone covers it.  If
      s0 = n - 1, the one live term reads cap[(0,a)][n-1][sa], the rows
      still to come with sa in column a, which is the sum of
      cap[(a,b)][sa][.] and so at least the demand; likewise for b.

    A row lowers exactly one cell per column-pair block.  A rule's slack
    sum(min(cap[x], cap[y])) - cap[d] loses at most one per term that reads
    a lowered cell and gains one if d was lowered.  In family (a, b) only
    the term t = s can be touched: its x is lowered iff sa == ra, its y iff
    sb == rb, and when both are, d is lowered too.  So no rule's slack ever
    rises, and a rule that held before the row can only fail after it if
    (sa == ra) != (sb == rb): 2(n-1) of the family's n*n rules.

    Those rules come in the order of their demands, each as (lowered,
    other, d, rest): the term s has its cell x lowered when sa == ra, its y
    otherwise, `other` is the term's second cell, and `rest` holds the
    other n - 1 terms.
    """
    rules = []
    for sa in range(n):
        for sb in range(n):
            if (sa == ra) != (sb == rb):
                rest = [
                    (_cell(n, pidx, 1, a, t, sa), _cell(n, pidx, 1, b, t, sb)) for t in range(n)
                ]
                x, y = rest.pop(s)
                d = _cell(n, pidx, a, b, sa, sb)
                rules.append((x, y, d, tuple(rest)) if sa == ra else (y, x, d, tuple(rest)))
    return tuple(rules)


def _hall(cap, rules):
    """True when every rule holds for the capacities `cap`.

    Each rule is (lowered, other, d, rest) and holds when
    cap[d] <= min(cap[lowered], cap[other]) + sum(min(cap[x], cap[y])) over
    the terms (x, y) of `rest`.  It is only evaluated when
    cap[lowered] < cap[other], and then its first term is cap[lowered].

    On a leaf's recheck set (`_family_rules`) that filter is exact.  Every
    rule held before the row was placed.  The row lowered cell `lowered` by
    one and left d and the terms of `rest` alone, so the right side fell,
    by one, only if min(cap[lowered], cap[other]) fell, that is if
    cap[lowered] < cap[other] now.  A rule that fails the filter still
    holds.
    """
    for lowered, other, d, rest in rules:
        x = cap[lowered]
        if x < cap[other]:
            c = cap[d] - x
            if c > 0:
                for x, y in rest:
                    x = cap[x]
                    y = cap[y]
                    c -= x if x < y else y
                    if c <= 0:
                        break
                else:
                    return False
    return True


def _kernel(n, k, lam, prefix, mode, node_budget, tables=None, chunk=None, stop=None, memo=None):
    """Canonical DFS below a fixed row prefix.

    Returns a dict with keys status/nodes/witness/solutions/rest.  `tables`
    is `_tables(n, k)`, built here when not given.  The prefix rows are
    forced whole and are not nodes; they must be sorted and follow the
    forced columns 0 and 1, which the m all-zero rows and every handed-back
    prefix do.

    Every row is placed cell by cell along the trie of `_tables`: placing
    symbol s reads its capacity indices from the node of the row's partial
    prefix, undoing the cell reads the same tuple, and a complete row reads
    its recheck rule set from its leaf.  The prefix rows are placed once,
    in one loop before the DFS; a cell without room ends the run with no
    node.  Each complete row, prefix rows too, is checked against its
    leaf's recheck set (`_family_rules`, filtered by `_hall`) as it is
    placed.  That is exact for any prefix: every rule holds before the
    first row, and no rule's slack rises when a row is placed, so the state
    after the prefix breaks a rule exactly when some prefix row's check is
    the first to fail.

    The DFS is one loop, without recursion, over the stack of free rows
    grid[start_r:r + 1].  Each free row gets once per run its forced cell
    of block (0, 1), which each visit of its node places once, and its own
    `path` and `tight` lists, whose entry 2 the forced columns fix; its
    cells branch from column 2.  `c` is the loop's state: at c == k
    it enters the node of row r; for 2 <= c < k one candidate loop, the
    same for every cell, moves cell c of row r to its next symbol with room;
    at c < 2 row r is done and the loop goes back to the last cell of row
    r - 1.  At the last cell a symbol with room completes the row, and the
    candidate loop also checks it against its leaf's recheck set, so a
    rejected row costs no trip round the outer loop.

    With `chunk` set, the run stops entering nodes when its node counter
    reaches `chunk`, and `rest` hands back the rest of its subtree as
    prefixes in DFS order.  First comes the node it did not enter.  A flag
    then turns each further node the loop would enter into a hand-back: as
    the loop unwinds, each open row hands back its untried rows, from the
    deepest row to the shallowest, each passed by the same capacity and
    Hall checks as before entering a node.  Running the chunk and then
    each prefix of `rest` in order visits exactly the nodes of one
    unchunked run.  The budget and the interval share one `stop_at`; a
    budget that falls at the interval stops the run.

    `stop`, if given, is asked at the first node at or past each multiple
    of 256, 0 included; a true answer ends the run as budget-exceeded.

    `memo`, a dict built here when not given, maps the state of a node to
    its subtree's (nodes, solutions).  Row r is tight, `tight[2]`, exactly
    when r % lambda != 0: the rows of one lambda-block share their forced
    pair (s0, s1).  Below the prefix, the subtree of a block-start row r,
    one that is not tight, depends on the capacities alone: they fix r
    through their sum, and no cell of row r or below reads the previous row.
    Only such nodes are looked up and stored; a tight row's key would need
    the previous row as well, and such keys seldom repeat.  The subtree's
    counts are also those of every image of the capacities under G, the
    group of `_key` (see the module docstring): a node below is a choice of
    row multisets per block whose last state breaks no rule, and G maps
    such choices, and their states, one to one.  So the key is the capacity
    list of the image `_key` picks, each capacity at most lambda, packed as
    `bytes` when lambda <= 255 and as a tuple otherwise; any image picked
    from the capacities alone would be exact.  A block-start node that
    finishes stores its subtree's counts, a one-node dead end as (1, 0),
    unless a hand-back has begun or the memo holds `_MEMO_STATES` states; a
    run that ends early stores nothing for its open rows.  A node whose key
    is stored adds the stored counts and goes back, as a node that places no
    row does, when the run would have finished that subtree unchanged: it
    ends at or before `stop_at`, and, if it holds solutions, the witness is
    already set.  So node counts, budgets, chunks and witnesses are those of
    a run without the memo.  A memo serves one search: one call, or every
    chunk of one worker.  A stored state costs about 170 bytes: the first
    3 000 000 nodes of the (2, 7, 4) count store 10 117 states, 1.7 MiB of
    keys and values, and the full (3, 4, 2) count stores 893, a 0.17 MiB
    tracemalloc peak.  The cap holds however long a wall budget runs.  A
    state the memo does not hold is visited, so the cap changes no count.
    """
    rest = []
    out = {"status": EXHAUSTED, "nodes": 0, "witness": None, "solutions": 0, "rest": rest}
    N = lam * n * n
    lns = lam * n
    layout, root = tables or _tables(n, k)
    # the node count at which the budget ends the run or, sooner, the chunk ends
    stop_at = float("inf") if node_budget is None else node_budget
    if chunk is not None and chunk < stop_at:
        stop_at = chunk
    # the node count from which the next node asks `stop`
    poll_at = float("inf") if stop is None else 0
    if memo is None:
        memo = {}
    lookup = memo.get
    most = _MEMO_STATES
    pack = bytes if lam <= 255 else tuple
    keyof = _key
    symmetry = layout[3]
    # One capacity list: the pair blocks.  Sorted rows force columns 0 and
    # 1 as functions of the row index, so before row r, block (0, 1) counts
    # the rows >= r with forced pair (s0, s1): the Hall rules read only
    # live capacities, no per-row tables.
    cap = [lam] * (k * (k - 1) // 2 * n * n)
    start_r = len(prefix)

    grid = [[0] * k for _ in range(N)]
    for row, want in zip(grid, prefix):
        node = root
        for c, s in enumerate(want):
            ix = node[s]
            for o in ix:
                if cap[o] <= 0:
                    return out
            for o in ix:
                cap[o] -= 1
            row[c] = s
            child = node[n + s]
            if child is None:
                child = node[n + s] = _node(n, k, layout, row, c + 1)
            node = child
        if not _hall(cap, node):
            return out

    # Per free row r: (row, prev, path, tight, fixed) with prev the row
    # above, path[c] the trie node of row[:c], tight[c] whether
    # row[:c] == prev[:c] (for c = 2, whether r % lam > 0), and fixed its
    # forced cell.  row[c] is -1 for every cell c >= 2 that holds no symbol.
    frames = [None] * N
    # marks[r]: the memo key of block-start row r's node and the counters
    # at its entry; None for every other row
    marks = [None] * N
    for r in range(start_r, N):
        row = grid[r]
        s0 = r // lns
        s1 = (r % lns) // lam
        row[:] = [s0, s1] + [-1] * (k - 2)
        one = root[n + s0]
        if one is None:
            one = root[n + s0] = _node(n, k, layout, row, 1)
        two = one[n + s1]
        if two is None:
            two = one[n + s1] = _node(n, k, layout, row, 2)
        path = [None, None, two] + [None] * (k - 2)
        tight = [False, False, r % lam > 0] + [False] * (k - 2)
        frames[r] = (row, grid[r - 1], path, tight, one[s1])

    hall = _hall
    exists = mode == "exists"
    last = k - 1
    nodes = solutions = 0
    witness = None
    split = False
    r = start_r
    c = k
    # The open row's frame; prev is only read while tight, never at row 0.
    row = prev = path = tight = None
    fixed = ()
    while True:
        if c < k:
            if c < 2:
                # row r is done: lift its forced cell and go back to the
                # last cell of the row above
                for o in fixed:
                    cap[o] += 1
                if fixed and marks[r] and not split and len(memo) < most:
                    key, entry, found = marks[r]
                    memo[key] = (nodes - entry, solutions - found)
                r -= 1
                if r < start_r:
                    break
                row, prev, path, tight, fixed = frames[r]
                c = last
                continue
            # cell c: lift its current symbol, then take the next one below
            # it with room; at the last cell that symbol completes the row,
            # which must also pass its leaf's recheck set
            node = path[c]
            s = row[c]
            if s >= 0:
                for o in node[s]:
                    cap[o] += 1
                s -= 1
            else:
                s = n - 1
            for s in range(s, prev[c] - 1 if tight[c] else -1, -1):
                ix = node[s]
                for o in ix:
                    if cap[o] <= 0:
                        break
                else:
                    for o in ix:
                        cap[o] -= 1
                    row[c] = s
                    child = node[n + s]
                    if child is None:
                        child = node[n + s] = _node(n, k, layout, row, c + 1)
                    if c < last:
                        break
                    if hall(cap, child):
                        if not split:
                            break
                        # rest[0] is the node not entered; its first r
                        # rows are the rows above this one
                        rest.append(rest[0][:r] + (tuple(row),))
                    for o in ix:
                        cap[o] += 1
            else:
                row[c] = -1
                c -= 1
                continue
            if c < last:
                c += 1
                tight[c] = tight[c - 1] and s == prev[c - 1]
                path[c] = child
            else:
                r += 1
                c = k
            continue
        # c == k: enter the node of row r, below complete rows
        if nodes >= poll_at:
            poll_at = (nodes | 255) + 1
            if stop():
                return dict(out, status=BUDGET_EXCEEDED, nodes=nodes)
        if nodes == stop_at:
            if stop_at == node_budget:
                return dict(out, status=BUDGET_EXCEEDED, nodes=nodes)
            # the chunk ends: this node goes back first, and from here on
            # the last cells hand back each row they would have entered
            rest.append(tuple(map(tuple, grid[:r])))
            split = True
        elif r == N:
            nodes += 1
            solutions += 1
            if witness is None:
                witness = [tuple(row) for row in grid]
            if exists:
                break
        else:
            row, prev, path, tight, fixed = frames[r]
            if r > start_r and not tight[2]:
                key = pack(keyof(cap, symmetry, n, k))
                got = lookup(key)
                if got is not None:
                    size, found = got
                    if nodes + size <= stop_at and (witness is not None or not found):
                        # a state seen before: its subtree, counted node
                        # for node without a visit
                        nodes += size
                        solutions += found
                        fixed = ()
                        c = 1
                        continue
                marks[r] = (key, nodes, solutions)
            nodes += 1
            for o in fixed:
                if cap[o] <= 0:
                    break
            else:
                for o in fixed:
                    cap[o] -= 1
                if k > 2:
                    c = 2
                else:
                    # two columns: no rule family, so the forced cell completes the row
                    r += 1
                continue
        # no row placed at r: go back to the row above, with nothing to lift
        fixed = ()
        c = 1

    status = FOUND if witness is not None else EXHAUSTED
    return dict(out, status=status, nodes=nodes, witness=witness, solutions=solutions)


def _pool_size(workers, tasks):
    """Processes worth starting: no more than the tasks on hand or the CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, tasks, cpus)


def _finish(problem, raw):
    witness = None
    achieved = 0
    if raw["witness"] is not None:
        witness = OrthogonalArray(problem.n, problem.k, tuple(raw["witness"]))
        strength_lambda(witness, 2)
        achieved = row_multiplicities(witness).max_multiplicity
    return SearchResult(raw["status"], witness, raw["nodes"], achieved, raw["solutions"])


def _check_workers(workers):
    """Raise ValueError unless `workers` is an int >= 1 (a bool is not)."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError("workers must be an int >= 1")


def search_oa(problem, workers=1):
    """Run the canonical search; results are identical for any worker count.

    One kernel run is the whole search on one worker.  With workers > 1 the
    search runs in chunks of `_CHUNK_NODES` nodes.  The first chunk runs in
    this process, so a search that ends inside it starts no process and
    imports no multiprocessing.  Otherwise its hand-back becomes an ordered
    replay list, and worker processes start, each with its own pipe.
    Whenever a worker is free it gets the leftmost prefix not yet sent, one
    task in flight per worker, and each chunk's hand-back is spliced in
    right behind it; no task starts to the right of a result that ends the
    search.  Results are replayed from the head of the list, and the replay
    alone applies the node budget, with the exact single-worker accounting:
    a worker's chunk has none.  A found witness therefore is the one the
    sequential search would report, and exhaustion still means the full
    tree was traversed.  Only this process watches the wall budget.  Once
    the answer is known or the deadline has passed, it kills every worker,
    running or not, and reads no pipe again.  A worker that exits before it
    answers raises OakitError.

    A run stopped by a budget reports no witness and solution_count 0.  A
    run stopped by its wall budget reports the nodes of the chunks replayed
    in DFS order before the deadline, never the node budget unless that
    budget was reached.  `workers` must be an int >= 1.
    """
    _check_workers(workers)
    p = problem
    prefix = ((0,) * p.k,) * p.m
    deadline = None if p.wall_budget is None else time.monotonic() + p.wall_budget
    stop = None if deadline is None else lambda: time.monotonic() > deadline
    tables = _tables(p.n, p.k)
    chunk = _CHUNK_NODES if workers > 1 else None
    raw = _kernel(p.n, p.k, p.lam, prefix, p.mode, p.node_budget, tables, chunk, stop)
    if not raw["rest"]:
        return _finish(p, raw)

    # imported here: a search that ends in its first chunk never loads them
    from multiprocessing import get_context
    from multiprocessing.connection import wait

    limit = float("inf") if p.node_budget is None else p.node_budget
    # The rest of the search in DFS order: [prefix, sent, result or None].
    # Prefixes are distinct nodes, so `tasks.index` finds the entry itself.
    tasks = [[q, False, None] for q in raw.pop("rest")]
    ctx = get_context()
    conns = []
    procs = []
    running = {}  # connection -> the task its worker runs
    try:
        for _ in range(_pool_size(workers, len(tasks))):
            conn, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker,
                args=(child, p, tables, chunk, (*conns, conn)),
                daemon=True,
            )
            proc.start()
            child.close()
            conns.append(conn)
            procs.append(proc)
        while tasks:
            res = tasks[0][2]
            if res is not None:
                del tasks[0]
                raw["nodes"] += res["nodes"]
                if raw["nodes"] > limit:
                    return SearchResult(BUDGET_EXCEEDED, None, limit, 0, 0)
                raw["solutions"] += res["solutions"]
                raw["witness"] = raw["witness"] or res["witness"]
                if raw["witness"] and p.mode == "exists":
                    break
                continue
            idle = [conn for conn in conns if conn not in running]
            for task in tasks:
                if not idle or p.mode == "exists" and task[2] and task[2]["witness"]:
                    break
                if not task[1]:
                    task[1] = True
                    conn = idle.pop()
                    conn.send(task[0])
                    running[conn] = task
            # wait() overflows past 2**31 - 1 ms, so a long budget is waited out a
            # day at a time: an empty `ready` alone does not mean the deadline passed
            timeout = None if deadline is None else min(deadline - time.monotonic(), 86400)
            ready = wait(list(running), timeout)
            if stop and stop():
                return SearchResult(BUDGET_EXCEEDED, None, raw["nodes"], 0, 0)
            for conn in ready:
                task = running.pop(conn)
                try:
                    task[2] = res = conn.recv()
                except EOFError:
                    raise OakitError("a search worker exited before answering") from None
                at = tasks.index(task) + 1
                tasks[at:at] = [[q, False, None] for q in res.pop("rest")]
        raw["status"] = FOUND if raw["witness"] is not None else EXHAUSTED
        return _finish(p, raw)
    finally:
        # No chunk still running can change the answer, and no worker holds a
        # lock or queue that another process needs: each is killed where it is.
        for proc in procs:
            proc.kill()
            proc.join()


def maximize_stages(
    n, k, lam, node_budget=None, wall_budget=None, ceiling=DEFAULT_CEILING, workers=1
):
    """Yield (m, SearchResult) of the exists-search at each forced multiplicity m.

    Walks m down from the counting bound's floor to 1 and stops after the
    first stage that is not exhausted: a found witness, or a budget that ran
    out.  Each stage gets the full node and wall budgets.  `workers`, the
    budgets and the ceiling are checked before the first stage, also when
    no stage runs.
    """
    _check_workers(workers)
    _check_limits(node_budget, wall_budget, ceiling)
    for m in range(max_multiplicity(k, n, lam).integer_form, 0, -1):
        problem = SearchProblem(
            n, k, lam, m=m, node_budget=node_budget, wall_budget=wall_budget, ceiling=ceiling
        )
        result = search_oa(problem, workers=workers)
        yield m, result
        if result.status != EXHAUSTED:
            return


def oracle_max_multiplicity(
    n, k, lam, node_budget=None, wall_budget=None, ceiling=DEFAULT_CEILING, workers=1
):
    """Largest multiplicity m for which a witness array exists, with witness.

    Consumes `maximize_stages`; every `no` along the way is an exhaustive
    traversal, so the answer is ground truth, never a guess.  Returns
    (0, None) when no array with these parameters exists at all.  Raises
    BudgetExceeded if any stage hits its budget, since a truncated search
    cannot certify nonexistence.
    """
    for m, result in maximize_stages(n, k, lam, node_budget, wall_budget, ceiling, workers):
        if result.status == BUDGET_EXCEEDED:
            raise BudgetExceeded(
                f"search with forced multiplicity {m} exceeded its budget",
                nodes=result.nodes_explored,
            )
        if result.status == FOUND:
            return m, result.witness
    return 0, None


def generate_linear_oa(q, k):
    """Index-1 strength-2 array over a prime alphabet from affine functions.

    Rows are indexed by (x, b) in Z_q x Z_q; the first column records x and
    column a+1 records a*x + b mod q for slopes a = 0..k-2.  Any two columns
    determine (x, b) uniquely, so every symbol pair appears exactly once.
    """
    if k < 2:
        raise UnsupportedParameters("need at least two columns")
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise UnsupportedParameters(f"alphabet size {q} is not prime")
    if k > q + 1:
        raise UnsupportedParameters(f"at most q+1 = {q + 1} columns exist for q = {q}")
    rows = []
    for x in range(q):
        for b in range(q):
            rows.append(tuple([x] + [(a * x + b) % q for a in range(k - 1)]))
    return OrthogonalArray(q, k, tuple(rows))
