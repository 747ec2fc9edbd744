import functools
import gc
import hashlib
import itertools
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oakit.cli as cli
import oakit.search as search_module
from oakit import (
    CeilingExceeded,
    OrthogonalArray,
    SearchProblem,
    UnsupportedParameters,
    generate_linear_oa,
    maximize_stages,
    oracle_max_multiplicity,
    row_multiplicities,
    search_oa,
    strength_lambda,
)


def brute_count(n, k, lam, m=0):
    """Count row multisets forming an index-lam array, by full enumeration."""
    tuples = list(itertools.product(range(n), repeat=k))
    total = 0
    for rows in itertools.combinations_with_replacement(tuples, lam * n * n):
        if m and rows[:m] != ((0,) * k,) * m:
            continue
        try:
            strength_lambda(OrthogonalArray(n, k, rows))
        except Exception:
            continue
        total += 1
    return total


def assert_valid_witness(result, n, k, lam, m):
    a = result.witness
    assert a.n == n and a.k == k and a.N == lam * n * n
    assert strength_lambda(a) == lam
    assert row_multiplicities(a).max_multiplicity >= m
    assert result.achieved_multiplicity >= m
    # rows come out in nondecreasing lexicographic order
    assert list(a.rows) == sorted(a.rows)
    if m:
        assert a.rows[:m] == ((0,) * k,) * m


# ---------------------------------------------------------------------------
# existence mode
# ---------------------------------------------------------------------------


def test_no_doubled_row_at_index_two():
    result = search_oa(SearchProblem(2, 4, 2, m=2))
    assert result.status == "exhausted-no-solution"
    assert result.witness is None
    assert result.nodes_explored == 1  # pruned immediately at the root


def test_doubled_row_at_index_two_exists():
    result = search_oa(SearchProblem(2, 3, 2, m=2))
    assert result.status == "found"
    assert result.nodes_explored == 7
    assert_valid_witness(result, 2, 3, 2, 2)
    # the only such multiset is the doubled parity-check array
    doubled = sorted(generate_linear_oa(2, 3).rows * 2)
    assert sorted(result.witness.rows) == doubled


def test_triple_index_doubled_row():
    result = search_oa(SearchProblem(3, 5, 3, m=2))
    assert result.status == "found"
    assert result.nodes_explored == 11614
    assert_valid_witness(result, 3, 5, 3, 2)


def test_frozen_witness_is_rederived(oa353_m2):
    result = search_oa(SearchProblem(3, 5, 3, m=2))
    assert result.witness == oa353_m2


def test_tripled_row_is_impossible():
    # the multiplicity bound floor(27/11) = 2 predicts this exhaustion
    result = search_oa(SearchProblem(3, 5, 3, m=3))
    assert result.status == "exhausted-no-solution"
    assert result.nodes_explored == 15149


@pytest.mark.parametrize(
    "n,k,lam,m,status,nodes",
    [
        (2, 4, 3, 2, "found", 23),
        (2, 4, 3, 0, "found", 47),
        (2, 4, 3, 3, "exhausted-no-solution", 1),
        (3, 4, 2, 2, "found", 17),
        (3, 4, 1, 1, "found", 9),
    ],
)
def test_pinned_search_outcomes(n, k, lam, m, status, nodes):
    result = search_oa(SearchProblem(n, k, lam, m=m))
    assert result.status == status
    assert result.nodes_explored == nodes
    if status == "found":
        assert_valid_witness(result, n, k, lam, m)


# ---------------------------------------------------------------------------
# count mode and completeness
# ---------------------------------------------------------------------------


def test_count_agrees_with_brute_force_enumeration():
    # every case with lambda*n*n <= 8 whose brute force enumerates at most
    # about 1e5 row multisets, at every forced multiplicity and one past
    # lambda, where the forced rows alone overflow a pair capacity
    for k, lam in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)]:
        for m in range(lam + 2):
            result = search_oa(SearchProblem(2, k, lam, m=m, mode="count"))
            assert result.solution_count == brute_count(2, k, lam, m), (k, lam, m)
            if m > lam:
                assert result.nodes_explored == 0
    result = search_oa(SearchProblem(2, 2, 1, mode="count"))
    assert result.solution_count == brute_count(2, 2, 1) == 1
    assert result.nodes_explored == 5
    result = search_oa(SearchProblem(2, 3, 1, mode="count"))
    assert result.solution_count == brute_count(2, 3, 1) == 2
    result = search_oa(SearchProblem(2, 3, 2, mode="count"))
    assert result.solution_count == brute_count(2, 3, 2) == 3
    assert result.nodes_explored == 27


def test_count_mode_with_forced_rows():
    result = search_oa(SearchProblem(2, 3, 2, m=2, mode="count"))
    assert result.solution_count == brute_count(2, 3, 2, m=2) == 1
    assert result.witness is not None


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def test_node_budget_is_exact():
    # one node short of the full traversal stops with exactly the budget spent
    short = search_oa(SearchProblem(2, 4, 3, node_budget=46))
    assert short.status == "budget-exceeded"
    assert short.nodes_explored == 46
    exact = search_oa(SearchProblem(2, 4, 3, node_budget=47))
    assert exact.status == "found"
    assert exact.nodes_explored == 47


def test_zero_node_budget():
    result = search_oa(SearchProblem(2, 2, 1, node_budget=0))
    assert result.status == "budget-exceeded"
    assert result.nodes_explored == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [None, 0])
def test_forced_rows_past_lambda_fail_before_the_budget(budget, workers):
    # four all-zero rows overflow the pair capacity lambda = 3 while they
    # are placed, before the first node and so before any budget check
    result = search_oa(SearchProblem(3, 5, 3, m=4, node_budget=budget), workers=workers)
    assert (result.status, result.nodes_explored) == ("exhausted-no-solution", 0)


def test_exhaustion_needs_full_traversal():
    short = search_oa(SearchProblem(3, 5, 3, m=3, node_budget=15148))
    assert short.status == "budget-exceeded"
    assert short.nodes_explored == 15148
    full = search_oa(SearchProblem(3, 5, 3, m=3, node_budget=15149))
    assert full.status == "exhausted-no-solution"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "budgets",
    [
        dict(node_budget=100.5),  # once ran out at 100.5 nodes on 2 workers, never on 1
        dict(node_budget=True),
        dict(wall_budget=float("nan")),  # once ignored
        dict(wall_budget=-1.0),
        dict(wall_budget="1"),
        dict(wall_budget=True),  # once ran as a 1 s budget
        dict(wall_budget=False),  # once ran as a passed deadline
    ],
)
def test_budgets_are_validated(budgets, workers):
    with pytest.raises(ValueError):
        search_oa(SearchProblem(3, 5, 3, m=3, **budgets), workers=workers)


def test_wall_clock_budget():
    result = search_oa(SearchProblem(3, 5, 3, m=2, wall_budget=0.0))
    assert result.status == "budget-exceeded"


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_strength_two_only():
    with pytest.raises(UnsupportedParameters):
        SearchProblem(2, 3, 1, t=3)


def test_ceiling():
    with pytest.raises(CeilingExceeded):
        SearchProblem(7, 3, 1)  # 49 rows > default ceiling 36
    SearchProblem(7, 3, 1, ceiling=49)  # explicit ceiling admits it
    SearchProblem(3, 5, 4)  # 36 rows sits exactly at the ceiling


def test_argument_validation():
    with pytest.raises(ValueError):
        SearchProblem(2, 3, 1, mode="enumerate")
    with pytest.raises(ValueError):
        SearchProblem(2, 3, 1, m=-1)
    with pytest.raises(ValueError):
        SearchProblem(2, 3, 1, m=5)  # exceeds the row count
    # n, k, lambda and m must be ints; a bool is not taken as 0 or 1
    for bad in (dict(n=2.0), dict(k=3.0), dict(lam=1.5), dict(m=True), dict(n=True), dict(m=1.0)):
        with pytest.raises(ValueError):
            SearchProblem(**{"n": 2, "k": 3, "lam": 1, **bad})
    # the ceiling must be an int >= 1 too; True is not taken as a ceiling of 1
    for bad in (dict(ceiling="36"), dict(ceiling=None), dict(ceiling=True)):
        with pytest.raises(ValueError):
            SearchProblem(**{"n": 2, "k": 3, "lam": 1, **bad})


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True, False, None])
def test_workers_are_validated(workers):
    # a worker count must be an int >= 1; a bool is not taken as 0 or 1
    with pytest.raises(ValueError, match="workers"):
        search_oa(SearchProblem(2, 4, 3), workers=workers)
    with pytest.raises(ValueError, match="workers"):
        next(maximize_stages(2, 4, 3, workers=workers))
    with pytest.raises(ValueError, match="workers"):
        oracle_max_multiplicity(2, 4, 3, workers=workers)
    # also where the counting bound leaves no stage to search
    with pytest.raises(ValueError, match="workers"):
        oracle_max_multiplicity(2, 6, 1, workers=workers)


@pytest.mark.parametrize(
    "limits,match",
    [
        (dict(node_budget=-1, wall_budget="x"), "node budget"),
        (dict(wall_budget="x"), "wall budget"),
        (dict(ceiling=0), "ceiling"),
    ],
)
def test_maximize_checks_its_limits_before_the_first_stage(limits, match):
    # (2, 100, 1) leaves no stage to search: its counting bound's floor is 0.
    # Bad budgets and ceilings once returned (0, None) there.
    with pytest.raises(ValueError, match=match):
        next(maximize_stages(2, 100, 1, **limits))
    with pytest.raises(ValueError, match=match):
        oracle_max_multiplicity(2, 100, 1, **limits)


# ---------------------------------------------------------------------------
# determinism and parallel workers
# ---------------------------------------------------------------------------

SNAPSHOT_PROBLEMS = [
    dict(n=2, k=3, lam=2, m=2),
    dict(n=2, k=4, lam=2, m=2),
    dict(n=2, k=4, lam=3, m=0),
    dict(n=2, k=3, lam=2, m=0, mode="count"),
    dict(n=2, k=4, lam=3, m=0, node_budget=30),
]


@pytest.mark.parametrize("spec", SNAPSHOT_PROBLEMS)
def test_runs_are_reproducible(spec):
    first = search_oa(SearchProblem(**spec))
    second = search_oa(SearchProblem(**spec))
    assert first == second


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("spec", SNAPSHOT_PROBLEMS)
def test_workers_do_not_change_results(spec, workers):
    sequential = search_oa(SearchProblem(**spec))
    parallel = search_oa(SearchProblem(**spec), workers=workers)
    assert parallel == sequential


def test_parallel_triple_index_run():
    sequential = search_oa(SearchProblem(3, 5, 3, m=2))
    parallel = search_oa(SearchProblem(3, 5, 3, m=2), workers=3)
    assert parallel == sequential
    assert parallel.nodes_explored == 11614


# Every case whose full count-mode tree takes at most about 0.1 s.
SMALL = [(2, k, lam) for lam in (1, 2) for k in range(2, 7)]
SMALL += [(2, k, 3) for k in range(2, 6)] + [(3, k, 1) for k in range(2, 5)]
SMALL += [(3, 2, 2), (3, 3, 2)]


@settings(max_examples=100)
@given(
    case=st.sampled_from(SMALL),
    data=st.data(),
    mode=st.sampled_from(["exists", "count"]),
    budget=st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(2, 300)),
)
def test_two_workers_agree_with_one(case, data, mode, budget):
    n, k, lam = case
    m = data.draw(st.integers(0, lam), label="m")
    problem = SearchProblem(n, k, lam, m=m, mode=mode, node_budget=budget)
    sequential = search_oa(problem)
    parallel = search_oa(problem, workers=2)
    assert parallel == sequential


@pytest.mark.parametrize("interval", [1, 3, 17])
@settings(max_examples=40)
@given(
    case=st.sampled_from(SMALL),
    data=st.data(),
    workers=st.sampled_from([2, 3]),
    mode=st.sampled_from(["exists", "count"]),
    budget=st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(2, 300)),
)
def test_chunked_runs_agree_with_one_worker(interval, case, data, workers, mode, budget):
    # Small chunks split these small trees many times over, so hand-backs,
    # splicing and the replay of budgets all take part.
    n, k, lam = case
    m = data.draw(st.integers(0, lam), label="m")
    problem = SearchProblem(n, k, lam, m=m, mode=mode, node_budget=budget)
    sequential = search_oa(problem)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "_CHUNK_NODES", interval)
        parallel = search_oa(problem, workers=workers)
    assert parallel == sequential


@pytest.mark.parametrize("m,nodes", [(2, 11614), (3, 15149)])
def test_chunked_pinned_case_matches_the_sequential_run(monkeypatch, m, nodes):
    monkeypatch.setattr(search_module, "_CHUNK_NODES", 64)
    parallel = search_oa(SearchProblem(3, 5, 3, m=m), workers=2)
    assert parallel.nodes_explored == nodes
    assert parallel == search_oa(SearchProblem(3, 5, 3, m=m))


def test_kernel_hands_back_the_rest_of_its_subtree_in_dfs_order():
    # the chunk and then each handed-back prefix in order visit the nodes of
    # one unchunked run: the same count and the same first witness
    tables = search_module._tables(2, 4)
    whole = search_module._kernel(2, 4, 3, (), "count", None, tables)
    pending = [()]
    nodes = solutions = 0
    witnesses = []
    while pending:
        raw = search_module._kernel(2, 4, 3, pending.pop(0), "count", None, tables, 5)
        assert raw["nodes"] <= 5
        nodes += raw["nodes"]
        solutions += raw["solutions"]
        witnesses += [raw["witness"]] if raw["witness"] else []
        pending[:0] = raw["rest"]
    assert (nodes, solutions) == (whole["nodes"], whole["solutions"]) == (343, 16)
    assert witnesses[0] == whole["witness"]


@pytest.mark.parametrize("n,k,lam,m", [(2, 4, 3, 0), (2, 4, 3, 2), (3, 4, 2, 1), (3, 5, 3, 2)])
def test_handed_back_prefix_rows_carry_the_forced_columns(n, k, lam, m):
    # A free row r places the forced pair (r // (lam*n), (r % (lam*n)) // lam)
    # in columns 0 and 1, which never decreases as r grows.  Every handed-back
    # prefix row past the m all-zero rows was placed by the kernel, so it
    # carries that pair, and a free row never sorts before the prefix row
    # above it in columns 0 and 1.
    tables = search_module._tables(n, k)
    pending = [((0,) * k,) * m]
    for _ in range(300):
        if not pending:
            break
        raw = search_module._kernel(n, k, lam, pending.pop(0), "count", None, tables, 7)
        for prefix in raw["rest"]:
            assert list(prefix) == sorted(prefix)
            assert prefix[:m] == ((0,) * k,) * m
            for r, row in enumerate(prefix[m:], m):
                assert row[:2] == (r // (lam * n), (r % (lam * n)) // lam)
        pending[:0] = raw["rest"]


def test_kernel_places_a_whole_prefix_before_the_first_node():
    # a complete valid prefix is one node and one solution, returned as
    # the witness; a prefix that overflows a pair capacity is no node
    tables = search_module._tables(2, 4)
    rows = search_oa(SearchProblem(2, 4, 3, m=2)).witness.rows
    raw = search_module._kernel(2, 4, 3, rows, "exists", None, tables)
    assert (raw["status"], raw["nodes"], raw["solutions"]) == ("found", 1, 1)
    assert tuple(raw["witness"]) == rows
    # the last row doubles the one before it: still sorted, but where the
    # two rows differ, a symbol pair of that row now appears lambda + 1 times
    bad = rows[:-1] + rows[-2:-1]
    assert rows[-2] != rows[-1] and list(bad) == sorted(bad)
    raw = search_module._kernel(2, 4, 3, bad, "exists", None, tables)
    assert (raw["status"], raw["nodes"]) == ("exhausted-no-solution", 0)


@pytest.mark.parametrize(
    "n,k,lam,prefixes,overfilled",
    [(2, 4, 1, 968, 592), (2, 3, 2, 1286, 272), (3, 3, 1, 31464, 4077)],
)
def test_a_prefix_that_overfills_a_column_is_no_node(n, k, lam, prefixes, overfilled):
    # No column keeps a symbol capacity.  A prefix that puts a symbol s in
    # column c more than lambda*n times puts it there with some column-0
    # symbol more than lambda times, by pigeonhole, so a cell of block
    # (0, c), or of block (0, 1) for c = 0, overflows and the prefix is no
    # node.  Every sorted prefix of 1 to lambda*n + 1 rows is tried.
    tables = search_module._tables(n, k)
    rows = list(itertools.product(range(n), repeat=k))
    seen = over = 0
    for size in range(1, lam * n + 2):
        for prefix in itertools.combinations_with_replacement(rows, size):
            seen += 1
            if any(max(map(column.count, column)) > lam * n for column in zip(*prefix)):
                over += 1
                raw = search_module._kernel(n, k, lam, prefix, "count", None, tables)
                assert (raw["status"], raw["nodes"]) == ("exhausted-no-solution", 0)
    assert (seen, over) == (prefixes, overfilled)


@pytest.mark.parametrize(
    "n,k,lam,most,prefixes,broken", [(2, 4, 1, 3, 8, 4), (2, 4, 2, 5, 66, 8), (2, 5, 2, 5, 336, 52)]
)
def test_the_prefix_check_is_exact_for_any_prefix(n, k, lam, most, prefixes, broken):
    # Each prefix row is checked against its own leaf as it is placed.  No
    # rule's slack rises when a row is placed, so a prefix run ends with no
    # node exactly when the state after the whole prefix breaks a rule of
    # the whole table.  Every sorted prefix of 1 to `most` rows that carries
    # the forced columns 0 and 1 and fits every capacity is tried.
    pidx, _, _ = reference_tables(n, k, lam)
    rules = hall_rules(n, k)
    tables = search_module._tables(n, k)
    rows = list(itertools.product(range(n), repeat=k))
    seen = bad = 0
    for size in range(1, most + 1):
        forced = [(r // (lam * n), (r % (lam * n)) // lam) for r in range(size)]
        for prefix in itertools.product(*[[row for row in rows if row[:2] == f] for f in forced]):
            if list(prefix) != sorted(prefix):
                continue
            cap = [lam] * (k * (k - 1) // 2 * n * n)
            for row in prefix:
                for c in range(k):
                    for a in range(c):
                        cap[pidx[a][c] * n * n + row[a] * n + row[c]] -= 1
            if min(cap) < 0:
                continue
            seen += 1
            breaks = any(cap[d] > sum(min(cap[x], cap[y]) for x, y in pairs) for d, pairs in rules)
            bad += breaks
            raw = search_module._kernel(n, k, lam, prefix, "exists", 0, tables)
            assert (raw["status"] == "exhausted-no-solution") == breaks
    assert (seen, bad) == (prefixes, broken)


def test_kernel_runs_share_one_trie():
    # The row-prefix trie of `_tables` depends on (n, k) alone: runs with
    # other lambdas, prefixes, modes and chunk intervals grow one shared
    # trie and return what a run on fresh tables returns.
    for n, k, lams in [(2, 4, (1, 2, 3)), (3, 4, (1, 2))]:
        shared = search_module._tables(n, k)
        for lam, m, mode, chunk in itertools.product(lams, (0, 1), ("exists", "count"), (None, 7)):
            prefix = ((0,) * k,) * m
            # then up to two nodes a chunk did not enter: longer prefixes
            for _ in range(3):
                args = (n, k, lam, prefix, mode, 2000)
                raw = search_module._kernel(*args, shared, chunk)
                assert raw == search_module._kernel(*args, search_module._tables(n, k), chunk)
                if not raw["rest"]:
                    break
                prefix = raw["rest"][0]


def refuse_to_start(*args, **kwargs):
    raise AssertionError("a worker process was started")


@pytest.mark.parametrize(
    "spec",
    [
        dict(n=2, k=4, lam=3, m=2),  # found at node 23
        dict(n=2, k=4, lam=3, m=3),  # exhausted at the root
        dict(n=3, k=5, lam=3, m=3, node_budget=1024),  # the budget ends the first chunk
        dict(n=2, k=4, lam=3, mode="count"),  # 343 nodes
    ],
)
def test_a_search_that_ends_in_the_first_chunk_starts_no_process(monkeypatch, spec):
    context = multiprocessing.get_context()
    monkeypatch.setattr(context, "Process", refuse_to_start)
    monkeypatch.setattr(context, "Pool", refuse_to_start)
    assert search_oa(SearchProblem(**spec), workers=2) == search_oa(SearchProblem(**spec))
    # a search that outgrows its first chunk does reach the patched context
    with pytest.raises(AssertionError, match="worker process"):
        search_oa(SearchProblem(3, 5, 3, m=3, node_budget=1025), workers=2)


def test_parallel_wall_budget_never_reports_more_than_the_tree():
    # The full count-mode tree of (2, 6, 3) has 74 921 nodes.  A subtree
    # stopped by the deadline once made the run report the node budget.
    problem = SearchProblem(2, 6, 3, mode="count", node_budget=10**9, wall_budget=0.5)
    result = search_oa(problem, workers=2)
    assert result.nodes_explored <= 74921


@pytest.mark.parametrize(
    "workers,tasks,cpus,size",
    [
        (2, 5, 8, 2),
        (64, 5, 8, 5),  # no more processes than tasks
        (64, 500, 8, 8),  # nor than CPUs
        (4, 9, None, 1),  # an unknown CPU count allows one
    ],
)
def test_pool_size_is_capped(monkeypatch, workers, tasks, cpus, size):
    # where the affinity mask cannot be read, the host's CPU count caps the pool
    monkeypatch.delattr(search_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: cpus)
    assert search_module._pool_size(workers, tasks) == size


def test_pool_size_counts_the_cpus_this_process_may_use(monkeypatch):
    # pinned to one CPU of an 8-CPU host, as under `taskset -c 0`
    monkeypatch.setattr(search_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 8)
    assert search_module._pool_size(2, 5) == 1


def test_subtree_search_honours_an_absolute_deadline():
    # a wall budget is one point in time, not a fresh allowance per kernel
    # run, so a run that starts after the deadline stops before its first node
    prefix = ((0,) * 5,) * 2
    deadline = time.monotonic() - 1

    def stop():
        return time.monotonic() > deadline

    raw = search_module._kernel(3, 5, 3, prefix, "exists", None, stop=stop)
    assert raw["status"] == "budget-exceeded"
    assert raw["nodes"] == 0


EARLY_EXITS = """
from oakit import SearchProblem, search_oa
for _ in range(10):
    for n, k, lam, m in [(2, 4, 3, 0), (2, 5, 2, 1), (3, 4, 1, 1), (2, 4, 3, 2), (3, 3, 2, 1)]:
        for budget in (None, 8, 20):
            search_oa(SearchProblem(n, k, lam, m=m, node_budget=budget), workers=4)
"""


def test_parallel_runs_that_stop_early_never_hang():
    # Killing the workers of a pool that still had subtrees running once hung
    # now and then: a worker killed while it held the result queue's lock
    # left the pool's shutdown waiting forever.  Each worker now has a pipe
    # of its own and shares no lock, and the parent kills workers that are
    # still running.  Run in a child process, so a hang fails the test at
    # the timeout instead of stalling the suite.
    src = pathlib.Path(search_module.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", EARLY_EXITS], env=env, check=True, timeout=120)


class StopAfterCalls:
    """A kernel `stop` that says stop from call `calls` + 1 on."""

    def __init__(self, calls):
        self.calls = calls
        self.made = 0

    def __call__(self):
        self.made += 1
        return self.made > self.calls


@pytest.mark.parametrize("calls,nodes", [(0, 0), (1, 256), (2, 512), (45, 11520)])
def test_stop_callable_stops_a_chunk_within_256_nodes(calls, nodes):
    # A kernel run asks its stop before its first node and every 256 nodes
    # after, so a wall budget ends a sequential run, or the first chunk of a
    # parallel one, within 256 nodes.  (3,5,3) m=2 finds its witness at node
    # 11 614.
    stop = StopAfterCalls(calls)
    raw = search_module._kernel(3, 5, 3, ((0,) * 5,) * 2, "exists", None, stop=stop)
    assert (raw["status"], raw["nodes"], raw["witness"]) == ("budget-exceeded", nodes, None)
    assert stop.made == calls + 1


def test_a_stop_that_never_says_stop_changes_nothing():
    stop = StopAfterCalls(10**9)
    args = (3, 5, 3, ((0,) * 5,) * 2, "exists", None)
    assert search_module._kernel(*args, stop=stop) == search_module._kernel(*args)
    assert stop.made == 46  # nodes 0, 256, ..., 11 520 of 11 614


# Tests that patch the kernel in this process and need the workers to inherit it.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked worker inherits the patched kernel",
)


@fork_only
def test_a_worker_that_dies_ends_the_search_with_one_error_line(monkeypatch, capsys):
    # A worker whose pipe closed before it answered once ended the CLI in an
    # EOFError traceback.  Every worker here exits at its first chunk.
    kernel = search_module._kernel
    caller = os.getpid()

    def dying_kernel(*args):
        if os.getpid() != caller:
            os._exit(1)
        return kernel(*args)

    monkeypatch.setattr(search_module, "_kernel", dying_kernel)
    argv = ["search", "--n", "3", "--k", "5", "--lambda", "3", "--m", "3", "--workers", "2"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "oakit: a search worker exited before answering\n")
    assert multiprocessing.active_children() == []


def stuck_in_workers(monkeypatch, stuck):
    """Make a forked worker's `_kernel` sleep 20 s on each prefix for which `stuck` holds."""
    kernel = search_module._kernel
    caller = os.getpid()

    def stuck_kernel(*args):
        if os.getpid() != caller and stuck(args[3]):
            time.sleep(20)
        return kernel(*args)

    monkeypatch.setattr(search_module, "_kernel", stuck_kernel)


@fork_only
def test_a_found_witness_ends_the_search_while_later_chunks_are_stuck(monkeypatch):
    # A chunk after the witness in DFS order cannot change the answer, so the
    # parent kills its worker instead of waiting for the chunk to finish.
    # Symbols are tried in descending order: later prefixes sort lower.
    problem = SearchProblem(3, 5, 3, m=2)
    sequential = search_oa(problem)
    rows = sequential.witness.rows
    stuck_in_workers(monkeypatch, lambda prefix: prefix < rows[: len(prefix)])
    began = time.monotonic()
    assert search_oa(problem, workers=2) == sequential
    assert time.monotonic() - began < 5
    assert multiprocessing.active_children() == []


@fork_only
def test_a_wall_budget_ends_the_search_while_every_chunk_is_stuck(monkeypatch):
    # Worker chunks have no stop: the parent alone waits no longer than the
    # deadline, and it reports the nodes replayed before it.
    stuck_in_workers(monkeypatch, lambda prefix: True)
    began = time.monotonic()
    result = search_oa(SearchProblem(3, 5, 3, m=3, wall_budget=0.5), workers=2)
    assert time.monotonic() - began < 5
    assert (result.status, result.witness, result.solution_count) == ("budget-exceeded", None, 0)
    assert result.nodes_explored == 1024  # the first chunk, run in this process
    assert multiprocessing.active_children() == []


# A lone worker that dies at its first chunk; run as EARLY_EXITS is.
LONE_DEAD_WORKER = """
import os
import oakit.search as search
from oakit import SearchProblem
from oakit.errors import OakitError
kernel = search._kernel
caller = os.getpid()
def dying_kernel(*args):
    if os.getpid() != caller:
        os._exit(1)
    return kernel(*args)
search._kernel = dying_kernel
search._pool_size = lambda workers, tasks: 1
try:
    search.search_oa(SearchProblem(3, 5, 3, m=3), workers=2)
except OakitError as error:
    if str(error) != "a search worker exited before answering":
        raise
else:
    raise AssertionError("the search did not fail")
"""


@fork_only
def test_the_parent_reads_eof_from_a_lone_dead_worker():
    # The parent closes the worker's end of each pipe once the worker has
    # started.  If it kept that end open, the pipe of a lone worker that died
    # would never read EOF, and the search would wait forever.
    src = pathlib.Path(search_module.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", LONE_DEAD_WORKER], env=env, check=True, timeout=60)


ORPHANS = """
from oakit import SearchProblem, search_oa
while True:
    search_oa(SearchProblem(2, 6, 3, mode="count"), workers=2)
"""


def proc_state(pid):
    """(state, ppid) of process `pid` from /proc; ("X", 0), dead, once it is gone."""
    try:
        fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    except OSError:
        return "X", 0
    return fields[0], int(fields[1])


def test_workers_end_when_their_parent_dies():
    # A worker once inherited the parent's end of its own pipe and of each
    # earlier worker's, so a parent killed by a signal left its workers
    # waiting forever, reparented.  Where nothing reaps orphans, an ended
    # worker stays a zombie (state Z).  A worker writes nothing to the
    # stderr it inherited as it ends.
    src = pathlib.Path(search_module.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    parent = subprocess.Popen([sys.executable, "-c", ORPHANS], env=env, stderr=subprocess.PIPE)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            pids = [int(path.name) for path in pathlib.Path("/proc").glob("[0-9]*")]
            workers = [pid for pid in pids if proc_state(pid)[1] == parent.pid]
        assert len(workers) == 2
        parent.terminate()
        assert parent.wait(timeout=60) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        left = workers
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [pid for pid in workers if proc_state(pid)[0] not in "XZ"]
        assert left == []
        assert parent.stderr.read() == b""
    finally:
        parent.kill()
        parent.wait()
        parent.stderr.close()
        for pid in workers:
            if proc_state(pid)[0] not in "XZ":
                os.kill(pid, signal.SIGKILL)


# What a fresh interpreter has imported after each script; run as EARLY_EXITS is.
LOADED = """
import sys
import oakit, oakit.cli
from oakit import SearchProblem, search_oa
assert search_oa(SearchProblem(3, 5, 3, m=2)).nodes_explored == 11614
assert search_oa(SearchProblem(2, 4, 3, m=2), workers=2).nodes_explored == 23
if sys.argv[1] == "workers":
    assert search_oa(SearchProblem(3, 5, 3, m=3), workers=2).nodes_explored == 15149
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize(
    "case,loaded,absent",
    [
        ("first-chunk", [], ["multiprocessing"]),
        ("workers", ["multiprocessing"], ["multiprocessing.sharedctypes", "ctypes"]),
    ],
)
def test_a_search_loads_only_the_process_machinery_it_uses(case, loaded, absent):
    # Importing the package and the CLI, a sequential search and a parallel
    # search that ends in its first chunk load no multiprocessing at all; a
    # search that starts workers talks to them through pipes and kills them
    # at its end, with no shared memory.
    src = pathlib.Path(search_module.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", LOADED, case],
        env=env,
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    modules = set(run.stdout.split())
    assert [name for name in loaded + absent if name in modules] == loaded


def test_a_zero_budget_run_builds_no_rule():
    # The Hall rules are built when a leaf first needs them, so the setup
    # before the first node stays small at any width.
    tracemalloc.start()
    try:
        raw = search_module._kernel(2, 240, 1, (), "exists", 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (raw["status"], raw["nodes"]) == ("budget-exceeded", 0)
    assert peak < 16 * 2**20


def test_kernel_runs_leave_no_reference_cycle():
    # A kernel run's grid, capacities and trie must go when it returns, not
    # wait for the cyclic collector: a count run, a chunked run that hands
    # back and a run stopped by its node budget leave nothing unreachable.
    gc.collect()
    gc.disable()
    try:
        raw = search_module._kernel(3, 3, 3, (), "count", None)
        assert (raw["nodes"], raw["solutions"]) == (21466, 847)
        raw = search_module._kernel(2, 8, 1, (), "count", None)
        assert raw["status"] == "exhausted-no-solution"
        raw = search_module._kernel(2, 4, 3, (), "count", None, None, 5)
        assert raw["nodes"] == 5 and raw["rest"]
        raw = search_module._kernel(3, 5, 3, ((0,) * 5,) * 3, "exists", 100)
        assert (raw["status"], raw["nodes"]) == ("budget-exceeded", 100)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("workers", [1, 2])
def test_passed_wall_budget_stops_at_once(workers):
    result = search_oa(SearchProblem(2, 4, 3, wall_budget=0.0), workers=workers)
    assert result.status == "budget-exceeded"
    assert result.nodes_explored == 0


@pytest.mark.parametrize("wall_budget", [float("inf"), 1e9])
def test_a_wall_budget_past_the_longest_wait_changes_nothing(wall_budget):
    # a wait for results takes at most 2**31 - 1 ms; a longer budget once
    # raised OverflowError in a parallel run and its maximize loop
    problem = SearchProblem(3, 5, 3, m=3, wall_budget=wall_budget)
    sequential = search_oa(problem)
    assert sequential.nodes_explored == 15149
    assert search_oa(problem, workers=2) == sequential
    oracle = oracle_max_multiplicity(3, 5, 3, wall_budget=wall_budget, workers=2)
    assert oracle == oracle_max_multiplicity(3, 5, 3)


# ---------------------------------------------------------------------------
# subtree memo
# ---------------------------------------------------------------------------


class HitSizes(dict):
    """A subtree memo that records the node count of each stored subtree it hands out."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def get(self, key):
        got = super().get(key)
        if got is not None:
            self.sizes.append(got[0])
        return got


@pytest.mark.parametrize(
    "spec,nodes,solutions",
    [
        (dict(n=2, k=6, lam=3, mode="count"), 74921, 2688),
        (dict(n=2, k=5, lam=4, mode="count"), 66005, 1932),
        (dict(n=3, k=5, lam=3, m=2), 11614, 1),
        (dict(n=3, k=5, lam=3, m=3), 15149, 0),
    ],
)
def test_memo_runs_agree_across_worker_counts(spec, nodes, solutions):
    # each worker keeps one memo for all its chunks, so hits cross chunks
    sequential = search_oa(SearchProblem(**spec))
    assert (sequential.nodes_explored, sequential.solution_count) == (nodes, solutions)
    assert search_oa(SearchProblem(**spec), workers=2) == sequential


@pytest.mark.parametrize(
    "n,k,lam,m,mode,added",
    [(3, 5, 3, 3, "exists", 112), (2, 5, 3, 0, "count", 129), (2, 4, 3, 0, "count", 86)],
)
def test_every_node_budget_up_to_600_is_exact(n, k, lam, m, mode, added):
    # Memo hits add `added` nodes within the first 600 of each run; a
    # budget that falls inside a hit's subtree still stops the run at
    # exactly that node.  (2, 4, 3) ends at node 343.
    full = search_oa(SearchProblem(n, k, lam, m=m, mode=mode))
    for budget in range(601):
        result = search_oa(SearchProblem(n, k, lam, m=m, mode=mode, node_budget=budget))
        if budget < full.nodes_explored:
            assert (result.status, result.nodes_explored, result.witness) == (
                "budget-exceeded",
                budget,
                None,
            )
        else:
            assert result == full
    hits = HitSizes()
    search_module._kernel(n, k, lam, ((0,) * k,) * m, mode, 600, memo=hits)
    assert sum(size - 1 for size in hits.sizes) == added


@pytest.mark.parametrize(
    "m,budget",
    [
        (m, budget)
        for m, full in [(2, 11614), (3, 15149)]
        for budget in (1023, 1024, 1025, 2048, full - 1, full)
    ],
)
def test_parallel_budgets_at_the_chunk_edges_match_the_sequential_run(m, budget):
    # Chunks run with no node budget of their own: the replay alone stops a
    # two-worker run at its budget, here at the edges of the first two
    # chunks, one short of the full tree and at the full tree.
    problem = SearchProblem(3, 5, 3, m=m, node_budget=budget)
    assert search_oa(problem, workers=2) == search_oa(problem)


def test_a_memo_passed_to_two_runs_keeps_their_witness():
    # In the second run every subtree is stored already.  A stored subtree
    # with solutions is visited until the run has its own witness.
    memo = {}
    args = (2, 6, 3, (), "count", None)
    first = search_module._kernel(*args, memo=memo)
    second = search_module._kernel(*args, memo=memo)
    assert (first["nodes"], first["solutions"]) == (74921, 2688)
    assert first["witness"] is not None
    assert second == first


def test_polls_fall_on_the_same_nodes_through_memo_hits(monkeypatch):
    # A run asks its stop at the first node it reaches at or past each
    # multiple of 256, so a memo hit may pass a multiple.  Polled or not,
    # the (2, 6, 3) count adds 39 242 of its 74 921 nodes through memo hits,
    # and polled it asks 293 times, once for each of 0, 256, ..., 74 752.
    # Every node reached but the root follows a passing leaf check.
    real = search_module._hall
    verdicts = []

    def hall(cap, rules):
        verdicts.append(real(cap, rules))
        return verdicts[-1]

    monkeypatch.setattr(search_module, "_hall", hall)
    for stop in (None, StopAfterCalls(10**9)):
        verdicts.clear()
        raw = search_module._kernel(2, 6, 3, (), "count", None, stop=stop)
        assert (raw["nodes"], raw["solutions"]) == (74921, 2688)
        assert raw["nodes"] - (verdicts.count(True) + 1) == 39242
    assert stop.made == 293


def test_the_memo_stores_subtrees_larger_than_their_node():
    memo = {}
    raw = search_module._kernel(2, 6, 3, (), "count", None, memo=memo)
    assert (raw["nodes"], raw["solutions"]) == (74921, 2688)
    assert len(memo) == 13751
    assert {type(key) for key in memo} == {bytes}
    assert min(size for size, _ in memo.values()) == 2


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_memo_keys_are_tuples_past_byte_values():
    # lambda = 256 does not fit a byte: the keys are tuples.  The first
    # 6 000 nodes of the count, with the three subtrees the memo adds and
    # the hand-back of the rest, are those of a run that visits every node.
    hits = HitSizes()
    raw = search_module._kernel(2, 3, 256, (), "count", None, None, 6000, memo=hits)
    outcome = (raw["status"], raw["nodes"], raw["solutions"], len(raw["rest"]))
    assert outcome == ("found", 6000, 3, 3)
    assert (digest(raw["rest"]), digest(raw["witness"])) == ("c44e6262eadcd6a4", "1a630294a799a809")
    assert (len(hits.sizes), sum(size - 1 for size in hits.sizes)) == (3, 760)
    assert {type(key) for key in hits} == {tuple}


# ---------------------------------------------------------------------------
# multiplicity oracle
# ---------------------------------------------------------------------------


def test_oracle_values():
    m, witness = oracle_max_multiplicity(2, 3, 1)
    assert m == 1 and witness is not None
    m, witness = oracle_max_multiplicity(2, 3, 2)
    assert m == 2
    assert row_multiplicities(witness).max_multiplicity >= 2
    m, witness = oracle_max_multiplicity(2, 4, 3)
    assert m == 2  # the bound allows floor(12/5) = 2 and search attains it
    m, witness = oracle_max_multiplicity(3, 5, 3)
    assert m == 2
    assert strength_lambda(witness) == 3


def test_maximize_stages_stop_after_the_first_stage_not_exhausted():
    def walk(*args, **options):
        return [(m, r.status, r.nodes_explored) for m, r in maximize_stages(*args, **options)]

    # floor(16/5) = 3, but no 16-run array of 4 binary columns repeats a row 3 times
    assert walk(2, 4, 4) == [(3, "exhausted-no-solution", 20), (2, "found", 37)]
    assert walk(2, 4, 4, node_budget=10) == [(3, "budget-exceeded", 10)]
    assert walk(2, 5, 1) == []


def test_oracle_when_no_array_exists():
    # 4 rows cannot support 5 binary columns, and the bound floor is 0
    m, witness = oracle_max_multiplicity(2, 5, 1)
    assert (m, witness) == (0, None)


# ---------------------------------------------------------------------------
# differential test of the Hall pruning rules
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def reference_tables(n, k, lam):
    """pidx and the per-row availability tables the original kernel precomputed."""
    N = lam * n * n
    lns = lam * n
    n2 = n * n
    pidx = [[0] * k for _ in range(k)]
    npairs = 0
    for a in range(k):
        for b in range(a + 1, k):
            pidx[a][b] = npairs
            npairs += 1
    # avail0[r][s]: rows >= r whose forced column 0 equals s; slots2 likewise
    # for the forced (column 0, column 1) pair.
    avail0 = []
    slots2 = []
    for r in range(N + 1):
        a0 = [0] * n
        s2 = [0] * n2
        for s in range(n):
            lo = s * lns
            a0[s] = max(0, lo + lns - max(r, lo))
        for s0 in range(n):
            for s1 in range(n):
                lo = s0 * lns + s1 * lam
                s2[s0 * n + s1] = max(0, lo + lam - max(r, lo))
        avail0.append(a0)
        slots2.append(s2)
    return pidx, avail0, slots2


def hall_rules(n, k):
    """The whole Hall rule table by its definition, in family order: for
    each family (a, b) and demand (sa, sb), the rule (d, ((x, y), ...))
    that routes the demand through column 1, to hold when
    cap[d] <= sum(min(cap[x], cap[y]))."""
    pidx, _, _ = reference_tables(n, k, 1)
    n2 = n * n

    def cell(a, b, sa, sb):
        if a > b:
            a, b, sa, sb = b, a, sb, sa
        return pidx[a][b] * n2 + sa * n + sb

    return tuple(
        (cell(a, b, sa, sb), tuple((cell(1, a, s, sa), cell(1, b, s, sb)) for s in range(n)))
        for a, b in search_module._families(k)
        for sa in range(n)
        for sb in range(n)
    )


def scanned_recheck(n, k, rules, row):
    """The recheck set by its definition: a scan of the whole rule table for
    the rules with more terms reading a lowered cell than lowered demands."""
    pidx, _, _ = reference_tables(n, k, 1)
    low = {pidx[a][c] * n * n + row[a] * n + row[c] for c in range(k) for a in range(c)}
    return tuple(
        rule
        for rule in rules
        if sum(x in low or y in low for x, y in rule[1]) > (rule[0] in low)
    )


def recheck_rules(n, k, rules, row):
    """The rules the complete row `row` can break, in table order: in each
    family (a, b), the demands (sa, sb) with (sa == row[a]) != (sb == row[b])."""
    return tuple(
        rules[(f * n + sa) * n + sb]
        for f, (a, b) in enumerate(search_module._families(k))
        for sa in range(n)
        for sb in range(n)
        if (sa == row[a]) != (sb == row[b])
    )


@pytest.mark.parametrize("n,k", [(2, 4), (3, 4), (2, 7), (4, 3)])
def test_recheck_rules_match_the_scan_on_every_row(n, k):
    rules = hall_rules(n, k)
    for row in itertools.product(range(n), repeat=k):
        picked = recheck_rules(n, k, rules, row)
        assert picked == scanned_recheck(n, k, rules, row)
        assert len(picked) == len(search_module._families(k)) * 2 * (n - 1)


def trie_leaves(node, n, k, row=()):
    """Every leaf of a row-prefix trie, as {row: leaf}."""
    if len(row) == k:
        return {row: node}
    leaves = {}
    for s in range(n):
        if node[n + s] is not None:
            leaves.update(trie_leaves(node[n + s], n, k, row + (s,)))
    return leaves


@pytest.mark.parametrize("n,k,lam", [(2, 5, 2), (3, 4, 1), (2, 6, 3)])
def test_leaves_share_their_rules_per_family(n, k, lam):
    # A leaf is its row's recheck set, each rule (d, pairs) as (lowered,
    # other, d, rest): `lowered` is the cell of term row[1] that the row
    # lowered, `other` the term's second cell, `rest` the other terms.
    # Within family (a, b) the rules depend on row[1], row[a] and row[b]
    # alone, and rows that agree there hold the same rule objects.
    # The `shared` store holds exactly the keys of the grown leaves.
    tables = search_module._tables(n, k)
    (_, families, store), root = tables
    rules = hall_rules(n, k)
    search_module._kernel(n, k, lam, (), "count", None, tables)
    leaves = trie_leaves(root, n, k)
    assert len(leaves) > n**3
    assert set(store) == {(a, b, row[1], row[a], row[b]) for row in leaves for a, b in families}
    pidx, _, _ = reference_tables(n, k, 1)
    width = 2 * (n - 1)
    for row, leaf in leaves.items():
        low = {pidx[a][c] * n * n + row[a] * n + row[c] for c in range(k) for a in range(c)}
        plain = recheck_rules(n, k, rules, row)
        assert len(leaf) == len(plain) == len(families) * width
        for (lowered, other, d, rest), (d_plain, pairs) in zip(leaf, plain):
            assert d == d_plain and lowered in low and other not in low
            term = pairs[row[1]]
            assert term in ((lowered, other), (other, lowered))
            assert rest == pairs[: row[1]] + pairs[row[1] + 1 :]
    shared = 0
    for (row, leaf), (other_row, other_leaf) in itertools.combinations(leaves.items(), 2):
        for f, (a, b) in enumerate(families):
            part = slice(f * width, (f + 1) * width)
            if (row[1], row[a], row[b]) == (other_row[1], other_row[a], other_row[b]):
                assert all(x is y for x, y in zip(leaf[part], other_leaf[part]))
                shared += 1
    assert shared > 0


def test_fresh_tables_hold_no_rules():
    # the rule store grows with the leaves: a wide search holds nothing for
    # its 28 441 families before its first complete row
    (_, families, store), _ = search_module._tables(2, 240)
    assert len(families) == 28_441 and len(store) == 0


def trie_inner_nodes(node, n, depth):
    """The nodes above the leaves, root included, of a row-prefix trie `depth` cells deep."""
    if depth == 0:
        return 0
    return 1 + sum(trie_inner_nodes(child, n, depth - 1) for child in node[n:] if child is not None)


@pytest.mark.parametrize(
    "n,k,lam,m,mode,size",
    [
        (3, 5, 3, 3, "exists", (44, 45, 81)),
        (3, 5, 3, 2, "exists", (83, 115, 151)),
        (3, 3, 3, 0, "count", (13, 27, 27)),
    ],
)
def test_trie_grows_only_along_symbols_with_room(n, k, lam, m, mode, size):
    # a cell builds its child only after its symbol took capacity, so the
    # trie and the rule store hold exactly the prefixes the search placed
    tables = search_module._tables(n, k)
    (_, _, store), root = tables
    search_module._kernel(n, k, lam, ((0,) * k,) * m, mode, None, tables)
    assert (trie_inner_nodes(root, n, k), len(trie_leaves(root, n, k)), len(store)) == size


def reference_hall(n, k, lam, r_next, cap):
    """The original per-row Hall predicate, kept verbatim as the reference."""
    n2 = n * n
    pidx, avail0, slots2 = reference_tables(n, k, lam)
    # Each remaining demand cap[(a,b)][sa][sb] must fit under both the
    # availability of forced column values and the propagated capacity
    # through columns 0 and 1 (a min-sum relaxation of a flow bound).
    a0 = avail0[r_next]
    s2 = slots2[r_next]
    for b in range(1, k):
        base0b = pidx[0][b] * n2
        if b >= 2:
            base1b = pidx[1][b] * n2
            for s0 in range(n):
                lim = a0[s0]
                s2row = s0 * n
                for sb in range(n):
                    c = cap[base0b + s0 * n + sb]
                    if c > lim:
                        return False
                    if c:
                        ub = 0
                        for s1 in range(n):
                            avail = s2[s2row + s1]
                            q = cap[base1b + s1 * n + sb]
                            ub += avail if avail < q else q
                            if ub >= c:
                                break
                        if c > ub:
                            return False
        else:
            for s0 in range(n):
                lim = a0[s0]
                for sb in range(n):
                    if cap[base0b + s0 * n + sb] > lim:
                        return False
    for b in range(2, k):
        base1b = pidx[1][b] * n2
        base0b = pidx[0][b] * n2
        for s1 in range(n):
            for sb in range(n):
                c = cap[base1b + s1 * n + sb]
                if c:
                    ub = 0
                    for s0 in range(n):
                        avail = s2[s0 * n + s1]
                        q = cap[base0b + s0 * n + sb]
                        ub += avail if avail < q else q
                        if ub >= c:
                            break
                    if c > ub:
                        return False
    for a in range(2, k):
        base0a = pidx[0][a] * n2
        base1a = pidx[1][a] * n2
        for b in range(a + 1, k):
            baseab = pidx[a][b] * n2
            base0b = pidx[0][b] * n2
            base1b = pidx[1][b] * n2
            for sa in range(n):
                for sb in range(n):
                    c = cap[baseab + sa * n + sb]
                    if c:
                        ub = 0
                        for s0 in range(n):
                            x = cap[base0a + s0 * n + sa]
                            y = cap[base0b + s0 * n + sb]
                            ub += x if x < y else y
                            if ub >= c:
                                break
                        if c > ub:
                            return False
                        ub = 0
                        for s1 in range(n):
                            x = cap[base1a + s1 * n + sa]
                            y = cap[base1b + s1 * n + sb]
                            ub += x if x < y else y
                            if ub >= c:
                                break
                        if c > ub:
                            return False
    return True


def differential_search(monkeypatch, n, k, lam, **options):
    """Run a search checking every Hall verdict against the reference.

    The kernel's capacity list is the pair blocks, block (0, 1) first.  The
    row about to be placed is the number of rows already placed, read from
    the sum of block (0, 1); at that row, the block and its row sums,
    column 0's availability, must equal the original availability tables.
    """
    N = lam * n * n
    _, avail0, slots2 = reference_tables(n, k, lam)
    real = search_module._hall
    verdicts = []

    def checked(cap, rules):
        verdict = real(cap, rules)
        block = cap[: n * n]
        r_next = N - sum(block)
        assert [sum(block[s * n : s * n + n]) for s in range(n)] == avail0[r_next]
        assert block == slots2[r_next]
        assert verdict == reference_hall(n, k, lam, r_next, cap)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(search_module, "_hall", checked)
    result = search_oa(SearchProblem(n, k, lam, **options))
    return result, verdicts


@pytest.mark.parametrize(
    "m,status,nodes,calls,rejections",
    [
        # memo hits skip the Hall checks of the subtrees they count
        (2, "found", 11614, 34000, 22524),
        (3, "exhausted-no-solution", 15149, 40903, 30808),
    ],
)
def test_hall_matches_reference_on_pinned_case(monkeypatch, m, status, nodes, calls, rejections):
    result, verdicts = differential_search(monkeypatch, 3, 5, 3, m=m)
    assert (result.status, result.nodes_explored) == (status, nodes)
    assert len(verdicts) == calls
    assert verdicts.count(False) == rejections


def test_hall_matches_reference_in_count_mode(monkeypatch):
    result, verdicts = differential_search(monkeypatch, 3, 3, 3, mode="count")
    assert (result.nodes_explored, result.solution_count) == (21466, 847)
    assert verdicts.count(False) > 0


# Every forced multiplicity of the arrays with at most 60 cells (N*k), plus
# the 18-row three-column case; the full traversals stay within seconds.
SWEEP = [
    (n, k, lam, m)
    for n, lam in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
    for k in range(3, 7)
    for m in range(lam + 1)
    if lam * n * n * k <= 60 or (k == 3 and m)
]


# (status, nodes_explored, solution_count) of each SWEEP case in count mode,
# as a run that visits every node of the canonical tree reports them.
SWEEP_OUTCOMES = {
    (2, 3, 1, 0): ("found", 9, 2),
    (2, 3, 1, 1): ("found", 4, 1),
    (2, 4, 1, 0): ("exhausted-no-solution", 5, 0),
    (2, 4, 1, 1): ("exhausted-no-solution", 1, 0),
    (2, 5, 1, 0): ("exhausted-no-solution", 9, 0),
    (2, 5, 1, 1): ("exhausted-no-solution", 1, 0),
    (2, 6, 1, 0): ("exhausted-no-solution", 17, 0),
    (2, 6, 1, 1): ("exhausted-no-solution", 1, 0),
    (2, 3, 2, 0): ("found", 27, 3),
    (2, 3, 2, 1): ("found", 18, 2),
    (2, 3, 2, 2): ("found", 7, 1),
    (2, 4, 2, 0): ("found", 99, 10),
    (2, 4, 2, 1): ("found", 47, 5),
    (2, 4, 2, 2): ("exhausted-no-solution", 1, 0),
    (2, 5, 2, 0): ("found", 525, 60),
    (2, 5, 2, 1): ("found", 129, 15),
    (2, 5, 2, 2): ("exhausted-no-solution", 1, 0),
    (2, 6, 2, 0): ("found", 2169, 240),
    (2, 6, 2, 1): ("found", 269, 30),
    (2, 6, 2, 2): ("exhausted-no-solution", 1, 0),
    (2, 3, 3, 0): ("found", 58, 4),
    (2, 3, 3, 1): ("found", 45, 3),
    (2, 3, 3, 2): ("found", 27, 2),
    (2, 3, 3, 3): ("found", 10, 1),
    (2, 4, 3, 0): ("found", 343, 16),
    (2, 4, 3, 1): ("found", 217, 11),
    (2, 4, 3, 2): ("found", 34, 1),
    (2, 4, 3, 3): ("exhausted-no-solution", 1, 0),
    (2, 5, 3, 0): ("found", 4901, 224),
    (2, 5, 3, 1): ("found", 1768, 83),
    (2, 5, 3, 2): ("found", 62, 1),
    (2, 5, 3, 3): ("exhausted-no-solution", 1, 0),
    (3, 3, 1, 0): ("found", 88, 12),
    (3, 3, 1, 1): ("found", 29, 4),
    (3, 4, 1, 0): ("found", 514, 72),
    (3, 4, 1, 1): ("found", 57, 8),
    (3, 5, 1, 0): ("exhausted-no-solution", 460, 0),
    (3, 5, 1, 1): ("exhausted-no-solution", 17, 0),
    (3, 6, 1, 0): ("exhausted-no-solution", 2674, 0),
    (3, 6, 1, 1): ("exhausted-no-solution", 33, 0),
    (3, 3, 2, 0): ("found", 1963, 132),
    (3, 3, 2, 1): ("found", 1129, 76),
    (3, 3, 2, 2): ("found", 178, 12),
}


@pytest.mark.parametrize("n,k,lam,m", SWEEP)
def test_sweep_counts_are_those_of_the_full_tree(n, k, lam, m):
    result = search_oa(SearchProblem(n, k, lam, m=m, mode="count"))
    outcome = (result.status, result.nodes_explored, result.solution_count)
    assert outcome == SWEEP_OUTCOMES[n, k, lam, m]
    assert len(SWEEP_OUTCOMES) == len(SWEEP)


def test_a_memo_at_its_bound_changes_no_count(monkeypatch):
    # A state the memo no longer stores is visited instead.  Forked workers
    # inherit the patched bound.
    monkeypatch.setattr(search_module, "_MEMO_STATES", 4)
    for (n, k, lam, m), outcome in SWEEP_OUTCOMES.items():
        for workers in (1, 2):
            result = search_oa(SearchProblem(n, k, lam, m=m, mode="count"), workers=workers)
            assert (result.status, result.nodes_explored, result.solution_count) == outcome
    memo = {}
    raw = search_module._kernel(2, 6, 3, (), "count", None, memo=memo)
    assert (raw["nodes"], raw["solutions"], len(memo)) == (74921, 2688, 4)


@pytest.mark.parametrize("n,k,lam,m", SWEEP)
def test_hall_matches_reference_on_small_parameters(monkeypatch, n, k, lam, m):
    # Every node reached but the root follows a passing leaf check, and so
    # does each of the m prefix rows.  A memo hit reaches its subtree's root
    # and counts the rest without reaching it.  Without budgets every hit
    # is taken: a stored subtree holds solutions only after a first one set
    # the witness.
    hits = HitSizes()
    kernel = search_module._kernel
    monkeypatch.setattr(search_module, "_kernel", lambda *args: kernel(*args, memo=hits))
    result, verdicts = differential_search(monkeypatch, n, k, lam, m=m, mode="count")
    reached = result.nodes_explored - sum(size - 1 for size in hits.sizes)
    assert verdicts.count(True) == reached - 1 + m


class ReadCounter(list):
    """A capacity list that counts the reads of chosen indices."""

    def __init__(self, cap, watched):
        super().__init__(cap)
        self.watched = watched
        self.reads = 0

    def __getitem__(self, i):
        self.reads += i in self.watched
        return super().__getitem__(i)


def test_hall_filter_is_exact_and_skips_rules(monkeypatch):
    # Every call of `_hall` on the SWEEP cases is judged again without the
    # filter: the leaf's rules are mapped back to its `recheck_rules` set,
    # and each plain rule (d, pairs) is summed.  The filtered verdict must
    # agree.  A passing leaf call must take the sum (read cap[d]) on exactly
    # the rules whose lowered cell is now below the other one, and over the
    # sweep those must be fewer than the leaves hold (with lambda = 1 they
    # are not).
    real = search_module._hall
    counts = {"calls": 0, "held": 0, "summed": 0}
    for n, k, lam, m in SWEEP:
        rules = hall_rules(n, k)
        plain = {tuple(d for d, _ in rules): rules}
        for row in itertools.product(range(n), repeat=k):
            recheck = recheck_rules(n, k, rules, row)
            plain[tuple(d for d, _ in recheck)] = recheck

        def checked(cap, leaf):
            table = plain[tuple(d for _, _, d, _ in leaf)]
            exact = all(cap[d] <= sum(min(cap[x], cap[y]) for x, y in pairs) for d, pairs in table)
            spy = ReadCounter(cap, {d for d, _ in table})
            verdict = real(spy, leaf)
            assert verdict == exact
            if table is not rules and verdict:
                passing = sum(cap[lowered] < cap[other] for lowered, other, _, _ in leaf)
                assert spy.reads == passing
                counts["calls"] += 1
                counts["held"] += len(leaf)
                counts["summed"] += spy.reads
            return verdict

        monkeypatch.setattr(search_module, "_hall", checked)
        result = search_oa(SearchProblem(n, k, lam, m=m, mode="count"))
        assert result.nodes_explored > 0
    assert counts["calls"] > 1000
    assert counts["summed"] < counts["held"]


# Wide arrays under a node budget: many column pairs, so many distinct
# recheck sets, each checked against the full reference predicate; and a
# 27-row case where the rules on column 0's demands reject too.
WIDE = [(2, 8, 2, 0), (2, 8, 2, 1), (2, 12, 3, 1), (3, 7, 2, 0), (3, 7, 2, 1), (3, 6, 3, 1)]


@pytest.mark.parametrize("n,k,lam,m", WIDE)
def test_hall_matches_reference_on_wide_arrays(monkeypatch, n, k, lam, m):
    result, verdicts = differential_search(monkeypatch, n, k, lam, m=m, node_budget=2000)
    assert result.nodes_explored <= 2000
    assert True in verdicts and False in verdicts


def column0_rules(n, k, pidx):
    """The Hall rules that route a demand through column 0, which the kernel
    leaves out: the (a, b >= 2) demands for a = 1 and a >= 2, each as
    (d, ((x, y), ...)) with cap[d] <= sum(min(cap[x], cap[y])) to hold."""
    n2 = n * n
    return [
        (
            pidx[a][b] * n2 + sa * n + sb,
            [(pidx[0][a] * n2 + s * n + sa, pidx[0][b] * n2 + s * n + sb) for s in range(n)],
        )
        for a in range(1, k)
        for b in range(max(a + 1, 2), k)
        for sa in range(n)
        for sb in range(n)
    ]


# Alphabets of 4 and 5 symbols: more column-0 blocks than any case above.
LARGE_ALPHABETS = [
    (4, 3, 1, dict(mode="count")),
    (4, 4, 1, dict(m=1, mode="count")),
    (4, 5, 2, dict(m=1, node_budget=2000)),
    (5, 3, 1, dict(m=1, mode="count", node_budget=5000)),
]


@pytest.mark.parametrize("n,k,lam,options", LARGE_ALPHABETS)
def test_rules_through_column_0_never_fail(monkeypatch, n, k, lam, options):
    pidx, _, _ = reference_tables(n, k, lam)
    dropped = column0_rules(n, k, pidx)
    assert len(dropped) == ((k - 2) * (k - 3) // 2 + (k - 2)) * n * n
    assert len(hall_rules(n, k)) == len(dropped)
    real = search_module._hall

    def hall(cap, rules):
        # on every call, rejected ones included
        for d, pairs in dropped:
            assert cap[d] <= sum(min(cap[x], cap[y]) for x, y in pairs)
        return real(cap, rules)

    monkeypatch.setattr(search_module, "_hall", hall)
    result, verdicts = differential_search(monkeypatch, n, k, lam, **options)
    assert result.nodes_explored > 0
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# linear construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,k", [(2, 3), (3, 4), (5, 6), (7, 4), (11, 3)])
def test_linear_arrays_verify(q, k):
    a = generate_linear_oa(q, k)
    assert a.N == q * q
    assert strength_lambda(a) == 1
    assert row_multiplicities(a).max_multiplicity == 1


def test_linear_construction_validation():
    with pytest.raises(UnsupportedParameters):
        generate_linear_oa(4, 3)  # not prime
    with pytest.raises(UnsupportedParameters):
        generate_linear_oa(1, 2)
    with pytest.raises(UnsupportedParameters):
        generate_linear_oa(3, 5)  # k > q + 1
    with pytest.raises(UnsupportedParameters):
        generate_linear_oa(2, 1)
