"""Question lists, seeded inputs and expected answers of the oakit benchmark.

A workload is a fixed list of questions, asked in order through oakit's
public entry points: `oakit.cli.main(argv)` for the CLI, and
`oakit.search.search_oa` for count mode, which the CLI does not offer.
Every question carries its own check, which returns a list of mismatches
(empty when the answer is right).

Two kinds of checks are used:

* Questions whose output is the same whatever the seed (the search
  workloads, the README examples, the plain `bounds` question) are pinned by
  a SHA-256 digest of their stdout and their exit code, recorded from
  oakit 0.1.0 at commit 5355af4, plus the pinned invariants (node counts,
  m-star, solution counts).
* The seeded `audit-sweep` arrays are checked against answers derived here
  from the theory of the arrays, independently of oakit: exit code, every
  CHECK id with its PASS or FAIL, the IMPLIES line, the Gram determinant
  (lambda*n)**(nk) * lambda * k**2, the `error` line kind and the failing
  check.
"""

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("search-exists", "search-count", "search-par", "audit-sweep")

AUDIT_METHODS = ("variance", "td-rank", "gram", "roots", "shortened", "cwc")

# The documented outcome for a forged array is exit 1 on every method, but
# these two methods never check strength, and the forged cell is chosen so
# that the designated-symbol counts they audit are unchanged.  The questions
# are counted as failed; the expectation is not relaxed to match.
KNOWN_DEFECTS = {
    "forged audit variance": "variance audit accepts a forged array (exit 0)",
    "forged audit cwc": "cwc audit accepts a forged array (exit 0)",
}

SEARCH_M3 = ("search", "--n", "3", "--k", "5", "--lambda", "3", "--m", "3")
SEARCH_MAX = ("search", "--n", "3", "--k", "5", "--lambda", "3", "--maximize")

# (stdout SHA-256, exit code) of the seed-independent questions.
DIGESTS = {
    "search m=3": ("4caacf20d9e3f96a082ac259064e2d3a33a352b073dcc5ff2fd658ee6fe647d9", 1),
    "search maximize": ("76f06f1563a33a226f502bae2bd45d813ee0e3f5b720e18c3dfbc39dd03c362a", 0),
    "count 2,6,3": ("89b84f090ca4d9c5f5ea9303d4ddcfa3624e07dea07f7907fa9e7e09e2345a0e", None),
    "count 2,5,4": ("c43560839ac1cb81ee45ced24701719c78c0b2b418b49d0f260eb48868bff05e", None),
    "count 3,3,3": ("ba4a5ff463bbd6c2075ea47d19d93ab860d8eee0f2485bd48b401773f3ee7129", None),
    "bounds 2,14,13,1,1": ("bf16e536d04ef9293e3460ec405746ca9232c3c7a8b68130487a621a73ffc939", 0),
    "readme verify parity": ("ba0f968d9859de0d907ee1a683cdf9bc560c9cf28cab7b94a89dd1af12544e1d", 0),
    "readme audit gram parity": ("6b815460b358338995bf9e1590c850fe3101093498a38837e2a4eccac95288b1", 0),
    "readme verify oa353_m2": ("e211a78b331943195a6123c7bb927fe04bc1c5f6c4715465e13e3b1227a5b6bf", 0),
    "readme bounds 2,5,3,3": ("0a4412ba26747263ba5e4bd6eef9e7050d94f84bcb6fca8467b7e005b3a1561d", 0),
    "readme bounds design": ("79bf29fc485eb2a7597b2dbf5f5721de25c1aaf261de5a5855426c280bcc37a2", 0),
}

# (n, k, lambda): (nodes, solutions) of count mode.
COUNT_CASES = {
    (2, 6, 3): (74921, 2688),
    (2, 5, 4): (66005, 1932),
    (3, 3, 3): (21466, 847),
}


@dataclass
class Question:
    """One question: `kind` "cli" passes `args` to main, "count" to search_oa."""

    label: str
    kind: str
    args: tuple
    check: object
    known_defect: str = None


@dataclass
class Answer:
    """Exit code and stdout of a question; count mode reports its result text."""

    code: object
    stdout: str


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def count_answer_text(result, format_oa):
    """Canonical text of a count-mode SearchResult, the bytes its digest covers."""
    lines = [
        f"# status {result.status}",
        f"# nodes {result.nodes_explored}",
        f"# solutions {result.solution_count}",
        f"# achieved-multiplicity {result.achieved_multiplicity}",
    ]
    if result.witness is not None:
        lines.append(format_oa(result.witness).rstrip("\n"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _meta(stdout):
    """Key/value pairs of the `# key value` comment lines of a search report."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            out.setdefault(key, value)
    return out


def pinned(label, invariants=None):
    """Check the stdout digest and exit code, and the named `# key value` lines."""
    digest, code = DIGESTS[label]

    def check(answer):
        bad = []
        if code is not None and answer.code != code:
            bad.append(f"exit {answer.code}, expected {code}")
        meta = _meta(answer.stdout)
        for key, value in (invariants or {}).items():
            if meta.get(key) != value:
                bad.append(f"{key} {meta.get(key)!r}, expected {value!r}")
        if sha256(answer.stdout) != digest:
            bad.append(f"stdout digest {sha256(answer.stdout)[:16]}..., expected {digest[:16]}...")
        return bad

    return check


ANY = object()


def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_report(stdout):
    checks, fields = [], {}
    for line in stdout.splitlines():
        if line.startswith("CHECK "):
            _, cid, lhs, _, verdict = line.split()
            checks.append((cid, lhs, verdict))
        elif not line.startswith("#"):
            key, _, value = line.partition(" ")
            fields.setdefault(key, value)
    return checks, fields


def report_check(code, checks, implies, error=None, failing=None, lhs=None):
    """Check an audit report against expected values.

    `checks` lists (id, verdict) in output order, verdict ANY accepting
    either; `lhs` maps a check id to its expected computed value.
    """
    lhs = lhs or {}

    def check(answer):
        bad = []
        if answer.code != code:
            bad.append(f"exit {answer.code}, expected {code}")
        got, fields = _parse_report(answer.stdout)
        if [c[0] for c in got] != [c[0] for c in checks]:
            bad.append(f"CHECK ids differ ({len(got)} lines, expected {len(checks)})")
        else:
            for (cid, value, verdict), (_, want) in zip(got, checks):
                if want is not ANY and verdict != want:
                    bad.append(f"CHECK {cid} {verdict}, expected {want}")
                if cid in lhs and value != lhs[cid]:
                    bad.append(f"CHECK {cid} computed {value}, expected {lhs[cid]}")
        for key, want in (("IMPLIES", implies), ("error", error), ("failing-check", failing)):
            if fields.get(key) != want:
                bad.append(f"{key} {fields.get(key)!r}, expected {want!r}")
        return bad

    return check


def exact_check(code, stdout):
    def check(answer):
        bad = []
        if answer.code != code:
            bad.append(f"exit {answer.code}, expected {code}")
        if answer.stdout != stdout:
            bad.append("stdout differs from the expected report")
        return bad

    return check


def rejected_check(error=ANY):
    """Exit 1 with an `error` line (of the given kind unless ANY)."""

    def check(answer):
        bad = []
        if answer.code != 1:
            bad.append(f"exit {answer.code}, expected 1")
        kind = _parse_report(answer.stdout)[1].get("error")
        if kind is None or (error is not ANY and kind != error):
            bad.append(f"error {kind!r}, expected {'any kind' if error is ANY else error!r}")
        return bad

    return check


# ---------------------------------------------------------------------------
# expected audit answers for strength-2 arrays with parameters (n, k, lambda)
# ---------------------------------------------------------------------------


def _root_labels(n, k):
    return ["C0"] + [f"{mult}C{j + 1}" for j in range(k) for mult in range(1, n)]


def _implied(method, n, k, lam, m):
    N = lam * n * n
    return {
        "variance": (k, Fraction(N - m, m * (n - 1))),
        "cwc": (k, Fraction(N - m, m * (n - 1))),
        "td-rank": (n * k, N + k - 1),
        "gram": (n * k + 1, N + k),
        "roots": (1 + k * (n - 1), N),
        "shortened": (1 + k * (n - 1), N - m + 1),
    }[method]


def _implies_line(method, n, k, lam, m, passed):
    lhs, rhs = _implied(method, n, k, lam, m)
    verdict = "FAIL" if not passed else ("TIGHT" if lhs == rhs else "PASS")
    return f"{_fmt(lhs)}<={_fmt(rhs)} {verdict}"


def _check_ids(method, n, k, lam, m):
    if method == "variance":
        ids = ["sum-a", "sum-a(a-1)", "sum-a^2", "ssd-nonnegative"]
        lhs, rhs = _implied(method, n, k, lam, m)
        return ids + ["equality-counts"] if lhs == rhs else ids
    if method == "td-rank":
        return ["rank", "rank-without-last-group"]
    if method == "gram":
        return ["lemma-entrywise", "det-positive"]
    if method in ("roots", "shortened"):
        labels = _root_labels(n, k)
        return (
            ["family-size"]
            + [f"self@{a}" for a in labels]
            + [f"orth@{a},{b}" for a, b in combinations(labels, 2)]
        )
    if method == "cwc":
        return (
            [f"weight@{j + 1}" for j in range(k)]
            + [f"ip@{a + 1},{b + 1}" for a, b in combinations(range(k), 2)]
            + ["johnson-hypothesis", "hypothesis-margin", "johnson-equals-rr-bound"]
        )
    raise ValueError(method)


def valid_audit_check(method, n, k, lam, m):
    """Every check passes; Gram determinant (lambda*n)**(nk) * lambda * k**2."""
    ids = _check_ids(method, n, k, lam, m)
    lhs = {"det-positive": str((lam * n) ** (n * k) * lam * k * k)} if method == "gram" else {}
    return report_check(
        0, [(cid, "PASS") for cid in ids], _implies_line(method, n, k, lam, m, True), lhs=lhs
    )


def forged_audit_check(method, n, k, lam, col):
    """Expected rejection of an array with one forged cell in column `col`.

    The forged cell moves one point of its row from symbol `old` to `new` in
    that column, so 2 + 4(k-1) Gram entries are off by one, and every
    roots-of-unity product involving a vector of column `col` no longer
    vanishes (n prime).  Whether the perturbed Gram determinant stays
    positive is not fixed by theory, so its verdict is not pinned.
    """
    if method in ("variance", "cwc"):
        return rejected_check()
    if method == "td-rank":
        return rejected_check("not-an-oa")
    implies = _implies_line(method, n, k, lam, 1, False)
    if method == "gram":
        checks = [("lemma-entrywise", "FAIL"), ("det-positive", ANY)]
        return report_check(
            1, checks, implies, "audit-failed", "lemma-entrywise",
            lhs={"lemma-entrywise": str(2 + 4 * (k - 1))},
        )
    group = {f"{mult}C{col + 1}" for mult in range(1, n)}
    checks = []
    for cid in _check_ids(method, n, k, lam, 1):
        pair = cid[5:].split(",") if cid.startswith("orth@") else ()
        checks.append((cid, "FAIL" if group.intersection(pair) else "PASS"))
    return report_check(1, checks, implies, "audit-failed", f"orth@C0,1C{col + 1}")


def verify_text(n, k, lam, rows):
    """The full `verify` report of a valid strength-2 array."""
    counts = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    top = max(counts.values())
    witness = next(i for i, row in enumerate(rows) if counts[row] == top)
    bound = Fraction(lam * n * n, k * (n - 1) + 1)
    verdict = "TIGHT" if bound == top else "SATISFIED"
    lines = [
        "#REPORT v1",
        f"n {n}",
        f"k {k}",
        f"N {len(rows)}",
        "strength 2",
        f"lambda {lam}",
        f"distinct-rows {len(counts)}",
        f"max-multiplicity {top}",
        f"witness-row {witness}",
        f"bound max-multiplicity {_fmt(bound)} {bound.numerator // bound.denominator} {verdict}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def scramble(rows, n, k, rng):
    """Apply a row permutation, a column permutation and per-column relabelling."""
    rows = list(rows)
    rng.shuffle(rows)
    cols = list(range(k))
    rng.shuffle(cols)
    relabel = [rng.sample(range(n), n) for _ in range(k)]
    return [tuple(relabel[j][row[cols[j]]] for j in range(k)) for row in rows]


def forge(rows, n, k, rng):
    """Change one cell whose old and new symbols both differ from row 0's.

    Row 0 is the row the m=1 audits normalize to, so the designated-symbol
    counts of the audited row stay unchanged.  Returns (rows, column).
    """
    while True:
        i, j = rng.randrange(1, len(rows)), rng.randrange(k)
        old, audited = rows[i][j], rows[0][j]
        if old != audited:
            break
    new = rng.choice([s for s in range(n) if s not in (old, audited)])
    forged = list(rows)
    forged[i] = rows[i][:j] + (new,) + rows[i][j + 1:]
    return forged, j


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _search_questions(workers):
    extra = ("--workers", str(workers)) if workers > 1 else ()
    return [
        Question(
            "search m=3", "cli", SEARCH_M3 + extra,
            pinned("search m=3", {"nodes": "15149", "status": "exhausted-no-solution"}),
        ),
        Question(
            "search maximize", "cli", SEARCH_MAX + extra,
            pinned("search maximize", {"nodes": "11614", "m-star": "2", "status": "found"}),
        ),
    ]


def _count_questions():
    questions = []
    for (n, k, lam), (nodes, solutions) in COUNT_CASES.items():
        label = f"count {n},{k},{lam}"
        questions.append(
            Question(
                label, "count", (n, k, lam),
                pinned(label, {"nodes": str(nodes), "solutions": str(solutions), "status": "found"}),
            )
        )
    return questions


def _write(path, oakit, n, k, rows):
    path.write_text(oakit.format_oa(oakit.OrthogonalArray(n, k, tuple(rows))))
    return str(path)


def _audit_sweep_questions(seed, oakit, workdir, root):
    rng = random.Random(seed)
    stacked = oakit.stack(oakit.generate_linear_oa(11, 12), 2).rows
    linear = oakit.generate_linear_oa(13, 14).rows
    arrays = [
        ("stacked", 11, 12, 2, 2, scramble(stacked, 11, 12, rng)),
        ("linear", 13, 14, 1, 1, scramble(linear, 13, 14, rng)),
    ]
    forged_rows, forged_col = forge(arrays[1][5], 13, 14, rng)

    questions = []
    for name, n, k, lam, m, rows in arrays:
        path = _write(workdir / f"{name}.txt", oakit, n, k, rows)
        questions.append(
            Question(f"{name} verify", "cli", ("verify", path), exact_check(0, verify_text(n, k, lam, rows)))
        )
        for method in AUDIT_METHODS:
            questions.append(
                Question(
                    f"{name} audit {method}", "cli",
                    ("audit", path, "--method", method, "--m", str(m)),
                    valid_audit_check(method, n, k, lam, m),
                )
            )
    path = _write(workdir / "forged.txt", oakit, 13, 14, forged_rows)
    questions.append(Question("forged verify", "cli", ("verify", path), rejected_check("not-an-oa")))
    for method in AUDIT_METHODS:
        label = f"forged audit {method}"
        questions.append(
            Question(
                label, "cli", ("audit", path, "--method", method),
                forged_audit_check(method, 13, 14, 1, forged_col),
                KNOWN_DEFECTS.get(label),
            )
        )

    questions.append(
        Question(
            "bounds 2,14,13,1,1", "cli",
            ("bounds", "--t", "2", "--k", "14", "--n", "13", "--lambda", "1", "--m", "1"),
            pinned("bounds 2,14,13,1,1"),
        )
    )
    parity = _write(workdir / "parity.txt", oakit, 2, 3, oakit.generate_linear_oa(2, 3).rows)
    oa353 = str(root / "tests" / "data" / "oa353_m2.txt")
    readme = [
        ("readme verify parity", ("verify", parity)),
        ("readme audit gram parity", ("audit", parity, "--method", "gram")),
        ("readme verify oa353_m2", ("verify", oa353)),
        ("readme bounds 2,5,3,3", ("bounds", "--t", "2", "--k", "5", "--n", "3", "--lambda", "3")),
        ("readme bounds design", ("bounds", "--design", "7,3,1,7,2,1,1")),
    ]
    questions.extend(Question(label, "cli", argv, pinned(label)) for label, argv in readme)
    return questions


def build(workload, seed, oakit, workdir, root):
    """Questions of `workload`; writes the audit-sweep input files to `workdir`."""
    if workload == "search-exists":
        return _search_questions(1)
    if workload == "search-par":
        return _search_questions(2)
    if workload == "search-count":
        return _count_questions()
    if workload == "audit-sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        return _audit_sweep_questions(seed, oakit, workdir, root)
    raise ValueError(f"unknown workload {workload!r}")
