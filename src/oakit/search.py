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

Many row prefixes leave the same capacities and the same last row, and
below them the search is the same subtree.  A run keeps a memo of each
finished subtree's node and solution counts, keyed by that state (the last
row only where it bounds the next one), and counts a repeated state's
subtree from the memo instead of visiting it (`_kernel`).  Node counts
still count every node of the canonical tree: the repeated subtrees are
counted, node for node, through the memo.

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
count.  Besides its node budget, a run ends early only through its `stop`,
asked at the first node at or past each multiple of 256, which reads the
wall budget's one deadline, shared by every chunk, and a worker's pipe.
"""

import os
import time
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations

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


def _worker(conn, problem, tables, chunk, deadline, parent_ends=()):
    """A search worker: runs the chunk below each prefix received until None.

    A task is its prefix alone: the problem, `tables` with its trie, the
    chunk interval, the deadline and one subtree memo (`_kernel`) serve
    every chunk of the run.  A chunk has no node budget; the parent's
    replay enforces it.  A busy worker is sent nothing but the None that
    ends it, so its `stop` is `conn.poll`, or under a wall budget
    `conn.poll` or the clock.

    `parent_ends` are the parent's pipe ends that a forked worker inherits,
    its own included; it closes them first, so that the parent's death
    closes its pipe.  A waiting worker then reads EOF, or a reset when the
    parent left an answer unread, and a busy one sees `conn.poll` turn true
    and fails to send its answer: each ends without a traceback.
    """
    for end in parent_ends:
        end.close()
    p = problem
    stop = conn.poll if deadline is None else lambda: conn.poll() or time.monotonic() > deadline
    memo = {}
    with suppress(EOFError, ConnectionError):
        for prefix in iter(conn.recv, None):
            conn.send(_kernel(p.n, p.k, p.lam, prefix, p.mode, None, tables, chunk, stop, memo))


def _tables(n, k):
    """The trie's layout and the root of an empty trie.

    The layout is (pidx, families, shared).  pidx[a][b] numbers the column
    pairs a < b, `families` is `_families(k)`, and `shared` is an empty
    dict that maps (a, b, row[1], row[a], row[b]) to the recheck rules of
    family (a, b) for rows with those cells (`_family_rules`), which
    `_node` adds when a leaf first needs them.  Nothing here depends on
    lambda, the prefix or the budgets, so one search run builds these once;
    `_kernel` grows the trie and fills `shared` as it places rows, and both
    live as long as the tables: one run, or one worker's life.
    """
    pidx = [[0] * k for _ in range(k)]
    for i, (a, b) in enumerate(combinations(range(k), 2)):
        pidx[a][b] = i
    layout = (pidx, _families(k), {})
    return layout, _node(n, k, layout, (), 0)


def _node(n, k, layout, row, c):
    """The trie node of the partial row row[:c].

    Below c == k it is a list: for each symbol s, the indices in the
    capacity list that s takes in column c (the (a, c) blocks at row[a]),
    then n child slots, filled on first use.  At c == k it is the leaf: the
    recheck rule set of the complete row: the `shared` entries of its
    families in family order, each added on first use.
    """
    pidx, families, shared = layout
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
    n2 = n * n

    def cell(a, b, sa, sb):
        if a > b:
            a, b, sa, sb = b, a, sb, sa
        return pidx[a][b] * n2 + sa * n + sb

    rules = []
    for sa in range(n):
        for sb in range(n):
            if (sa == ra) != (sb == rb):
                rest = [(cell(1, a, t, sa), cell(1, b, t, sb)) for t in range(n)]
                x, y = rest.pop(s)
                d = cell(a, b, sa, sb)
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
    its subtree's (nodes, solutions).  Below the prefix, the subtree of
    row r's node depends on three things: the capacities, which fix r
    through their sum; whether row r is tight, which r fixes; and, only if
    it is, the previous row, the lexicographic bound of row r.  The key
    packs the capacities, plus the previous row for a tight row, as
    `bytes` when lambda <= 255 and n <= 256 and as a tuple otherwise.  A
    node that finishes stores its subtree's counts unless the subtree is
    the node alone, a hand-back has begun or the memo holds `_MEMO_STATES`
    states; a run that ends early stores nothing for its open rows.  A
    node whose key is stored adds the stored counts and goes back, as a
    node that places no row does, when the run would have finished that
    subtree unchanged: it ends at or before `stop_at`, and, if it holds
    solutions, the witness is already set.  So node counts, budgets,
    chunks and witnesses are those of a run without the memo.  A memo
    serves one search: one call, or every chunk of one worker.  A stored
    state costs about 200 bytes: the full (3, 4, 2) count stores 94 149 of
    them, a 19.7 MiB tracemalloc peak.
    The cap holds however long a wall budget runs: the (2, 7, 4) count
    keeps 121 037 states in 25.8 MiB.  A state the memo does not hold is
    visited, so the cap changes no count.
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
    pack = bytes if lam <= 255 and n <= 256 else tuple
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
    # row[:c] == prev[:c], and fixed its forced cell.  row[c] is -1 for
    # every cell c >= 2 that holds no symbol.
    frames = [None] * N
    # marks[r]: the memo key of row r's node and the counters at its entry
    marks = [None] * N
    for r in range(start_r, N):
        row = grid[r]
        prev = grid[r - 1]
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
        tight = [False, False, r > 0 and s0 == prev[0] and s1 == prev[1]] + [False] * (k - 2)
        frames[r] = (row, prev, path, tight, one[s1])

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
                if fixed and r > start_r and not split:
                    key, entry, found = marks[r]
                    if nodes - entry > 1 and len(memo) < most:
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
            if r > start_r:
                key = pack(cap) + pack(prev) if tight[2] else pack(cap)
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


def _ends_search(res, mode):
    """True when no node after the kernel result `res` can change the answer."""
    return res["status"] == BUDGET_EXCEEDED or (mode == "exists" and res["witness"] is not None)


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
    tree was traversed.  Once the answer is known, each worker is sent
    None, which a running chunk reads at its next poll.  A worker that
    exits before it answers raises OakitError.

    A run stopped by a budget reports no witness and solution_count 0.  A
    run stopped by its wall budget reports the nodes replayed in DFS order,
    never the node budget unless that budget was reached.  `workers` must
    be an int >= 1.
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
                args=(child, p, tables, chunk, deadline, (*conns, conn)),
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
                if res["status"] == BUDGET_EXCEEDED or raw["nodes"] > limit:
                    return SearchResult(BUDGET_EXCEEDED, None, min(raw["nodes"], limit), 0, 0)
                raw["solutions"] += res["solutions"]
                raw["witness"] = raw["witness"] or res["witness"]
                if raw["witness"] and p.mode == "exists":
                    break
                continue
            idle = [conn for conn in conns if conn not in running]
            for task in tasks:
                if not idle or (task[2] is not None and _ends_search(task[2], p.mode)):
                    break
                if not task[1]:
                    task[1] = True
                    conn = idle.pop()
                    conn.send(task[0])
                    running[conn] = task
            for conn in wait(list(running)):
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
        # Each worker is sent None and exits; a running chunk stops at its next
        # poll, and its result is read so that no worker waits on a full pipe.
        for conn in conns:
            with suppress(OSError):  # that worker has exited already
                conn.send(None)
        for conn in running:
            with suppress(EOFError, OSError):
                conn.recv()
        for proc in procs:
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
    if q < 2 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
        raise UnsupportedParameters(f"alphabet size {q} is not prime")
    if k > q + 1:
        raise UnsupportedParameters(f"at most q+1 = {q + 1} columns exist for q = {q}")
    rows = []
    for x in range(q):
        for b in range(q):
            rows.append(tuple([x] + [(a * x + b) % q for a in range(k - 1)]))
    return OrthogonalArray(q, k, tuple(rows))
