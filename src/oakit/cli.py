"""Command-line interface: verify, bounds, audit, and search as batch runs.

Every command prints a machine-readable report headed by `#REPORT v1`.
Exit codes: 0 = success / all checks hold, 1 = a check failed or nothing
exists, 2 = usage or input-format error, 3 = a search budget ran out.  A
stdout closed before the report is written ends the run with one stderr
line and exit code 1.
Search output doubles as a valid array file (metadata on `#` comment
lines), so a printed witness feeds straight back into `verify`.

A failed check reaches its `error <tag>` line, stderr message and exit
code 1 through the one helper `_fail`.

The environment variable OAKIT_CEILING overrides the default row ceiling
of the search commands.
"""

import argparse
import os
import sys

from .arrays import (
    format_oa,
    normalize_repeated_row,
    parse_oa,
    row_multiplicities,
    strength_lambda,
)
from .bounds import (
    DesignParameters,
    OAParameters,
    bibd_bounds,
    equality_abar,
    max_multiplicity,
    mqw_min_rows,
    pb_min_lambda,
    rao_min_rows,
    rr_min_lambda,
)
from .certificates import (
    _fmt,
    cwc_certificate,
    gram_certificate,
    incidence_matrix,
    orthogonality_certificate,
    rank_bound_certificate,
    root_vector_family,
    shortened_family_certificate,
    to_transversal_design,
    variance_audit,
)
from .errors import (
    AuditFailure,
    CeilingExceeded,
    FormatError,
    NonintegralIndex,
    NotAnOA,
    OakitError,
)
from .search import (
    BUDGET_EXCEEDED,
    DEFAULT_CEILING,
    EXHAUSTED,
    FOUND,
    SearchProblem,
    maximize_stages,
    search_oa,
)

REPORT_HEADER = "#REPORT v1"

AUDIT_METHODS = ("variance", "td-rank", "gram", "roots", "shortened", "cwc")


class _UsageError(Exception):
    pass


def _verdict(result):
    if not result.applicable:
        return "INAPPLICABLE"
    if result.satisfied is None:
        return None
    if result.tight:
        return "TIGHT"
    return "SATISFIED" if result.satisfied else "VIOLATED"


def _bound_line(result):
    parts = ["bound", result.formula, _fmt(result.value), str(result.integer_form)]
    verdict = _verdict(result)
    if verdict is not None:
        parts.append(verdict)
    return " ".join(parts)


def _emit(lines):
    # line by line: a joined copy of a long report (over 14 000 lines for a
    # q = 13 roots audit) would add megabytes to the peak memory
    sys.stdout.writelines(f"{line}\n" for line in [REPORT_HEADER, *lines])


def _fail(lines, tag, exc, details=()):
    """Emit `lines`, then `error <tag>` and `details`; print `exc` to stderr.

    Every `error` line of the CLI comes from here, always with exit code 1.
    """
    _emit([*lines, f"error {tag}", *details])
    print(str(exc), file=sys.stderr)
    return 1


def _read_array(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        detail = f"not UTF-8 ({exc.reason} at byte {exc.start})"
        raise FormatError(f"cannot read {path}: {detail}") from None
    return parse_oa(text)


def _ceiling():
    raw = os.environ.get("OAKIT_CEILING")
    if raw is None:
        return DEFAULT_CEILING
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"OAKIT_CEILING must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    array = _read_array(args.file)
    if not 2 <= args.strength <= array.k:
        raise _UsageError(f"strength must be in 2..{array.k} for this file")
    lines = [f"n {array.n}", f"k {array.k}", f"N {array.N}", f"strength {args.strength}"]
    try:
        lam = strength_lambda(array, args.strength)
    except NonintegralIndex as exc:
        detail = f"detail {array.N} rows not divisible by {array.n}^{args.strength}"
        return _fail(lines, "non-integral-index", exc, [detail])
    except NotAnOA as exc:
        locus = [
            f"columns {','.join(map(str, exc.columns))}",
            f"tuple {','.join(map(str, exc.tup))}",
            f"count {exc.count}",
            f"expected {exc.expected}",
        ]
        return _fail(lines, "not-an-oa", exc, locus)
    census = row_multiplicities(array)
    lines.append(f"lambda {lam}")
    lines.append(f"distinct-rows {len(census.counts)}")
    lines.append(f"max-multiplicity {census.max_multiplicity}")
    lines.append(f"witness-row {census.witness_index}")
    lam2 = array.N // (array.n * array.n)
    bound = max_multiplicity(array.k, array.n, lam2, m=census.max_multiplicity)
    lines.append(_bound_line(bound))
    _emit(lines)
    return 0 if bound.satisfied else 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _parse_design(text):
    parts = text.split(",")
    if len(parts) != 7:
        raise _UsageError("--design expects v,k,lambda,b,t,s,m")
    try:
        v, k, lam, b, t, s, m = (int(p) for p in parts)
    except ValueError:
        raise _UsageError("--design fields must be integers") from None
    try:
        return DesignParameters(v, k, lam, b=b, t=t, s=s, m=m)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_bounds(args):
    if args.design is not None:
        if any(x is not None for x in (args.t, args.k, args.n, args.lam, args.m)):
            raise _UsageError("--design cannot be combined with array parameters")
        params = _parse_design(args.design)
        j = min(params.s, params.v - params.s)
        if j >= 1:
            _refuse_digits(params.v // j, j)  # C(v, s) >= (v // j)**j
        head = (
            f"design v={params.v} k={params.k} lambda={params.lam} b={params.b} "
            f"t={params.t} s={params.s} m={params.m}"
        )
        return _bound_report([head], bibd_bounds(params))

    if args.t is None or args.k is None or args.n is None:
        raise _UsageError("need --t, --k and --n (or --design)")
    t, k, n, lam, m = args.t, args.k, args.n, args.lam, args.m
    try:
        if lam is not None:
            OAParameters(t, k, n, lam, m if m is not None else 1)
        else:
            if t < 2 or not t <= k or n < 2:
                raise ValueError("need t >= 2, t <= k, n >= 2")
            if m is not None and m < 1:
                raise ValueError("multiplicity m must be at least 1")
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _refuse_digits((k // (t // 2)) * (n - 1), t // 2)  # Rao >= C(k, s)(n-1)**s, s = t // 2

    results = [pb_min_lambda(k, n, lam)]
    if m is not None:
        results.append(rr_min_lambda(k, n, m, lam))
    if lam is not None:
        results.append(max_multiplicity(k, n, lam, m))
    results.append(rao_min_rows(t, k, n, lam))
    if m is not None:
        results.append(mqw_min_rows(t, k, n, m, lam))

    with_abar = lam is not None and m is not None and lam * n * n > m
    return _bound_report([], results, equality_abar(k, n, lam, m) if with_abar else None)


def _too_many_digits():
    return _UsageError(f"a bound has more than {sys.get_int_max_str_digits()} digits")


def _refuse_digits(x, j):
    """Refuse, before computing it, a bound of at least x**j that has too many digits to print."""
    limit = sys.get_int_max_str_digits()
    if limit and j * (x.bit_length() - 1) >= (10**limit).bit_length():
        raise _too_many_digits()


def _bound_report(lines, results, abar=None):
    """Emit `lines`, a line per bound and the `abar` line; 1 if a bound is violated.

    A value longer than `sys.get_int_max_str_digits()` digits is a usage error; nothing prints.
    """
    try:
        lines = [*lines, *map(_bound_line, results)]
        if abar is not None:
            lines.append(f"abar {_fmt(abar)}")
    except ValueError:
        raise _too_many_digits() from None
    _emit(lines)
    return 1 if any(r.applicable and r.satisfied is False for r in results) else 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _audit_report(array, method, m):
    if method == "variance":
        audit = variance_audit(array, m)
        extra = [
            f"m {audit.m}",
            f"abar {_fmt(audit.abar)}",
            f"ssd {_fmt(audit.ssd)}",
            f"equality-case {'yes' if audit.equality_case else 'no'}",
        ]
        return extra, audit.report
    if method == "td-rank":
        td = to_transversal_design(array)
        return [], rank_bound_certificate(incidence_matrix(td))
    if method == "gram":
        return [], gram_certificate(array)
    if method == "roots":
        return [], orthogonality_certificate(root_vector_family(array))
    if method == "shortened":
        return [f"m {m}"], shortened_family_certificate(array, m)
    if method == "cwc":
        try:
            normalized = normalize_repeated_row(array, m)
        except ValueError as exc:
            raise AuditFailure(str(exc)) from None
        return [f"m {m}"], cwc_certificate(normalized, m)
    raise _UsageError(f"unknown method {method!r}")


def cmd_audit(args):
    array = _read_array(args.file)
    lines = [f"method {args.method}"]
    try:
        extra, report = _audit_report(array, args.method, args.m)
    except AuditFailure as exc:
        if exc.report is not None:
            lines.extend(exc.report.lines())
        if exc.check_id is not None:
            lines.append(f"failing-check {exc.check_id}")
        return _fail(lines, "audit-failed", exc)
    except NonintegralIndex as exc:
        return _fail(lines, "non-integral-index", exc)
    except NotAnOA as exc:
        return _fail(lines, "not-an-oa", exc)
    except ValueError as exc:
        return _fail(lines, "invalid-claim", exc)
    lines.extend(extra)
    lines.extend(report.lines())
    _emit(lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search_exit(status):
    return {FOUND: 0, EXHAUSTED: 1, BUDGET_EXCEEDED: 3}[status]


def cmd_search(args):
    if args.maximize and args.m is not None:
        raise _UsageError("--maximize cannot be combined with --m")
    ceiling = _ceiling()
    n, k, lam = args.n, args.k, args.lam
    lines = []
    try:
        if args.maximize:
            floor = max_multiplicity(k, n, lam).integer_form
            lines.append(f"# maximize n={n} k={k} lambda={lam} bound-floor={floor}")
            total = 0
            m_star, witness = 0, None
            status = EXHAUSTED
            stages = maximize_stages(
                n, k, lam, node_budget=args.budget, ceiling=ceiling, workers=args.workers
            )
            for m, result in stages:
                total += result.nodes_explored
                lines.append(f"# stage m={m} status {result.status} nodes {result.nodes_explored}")
                status = result.status
                if status == FOUND:
                    m_star, witness = m, result.witness
            lines.append(f"# nodes {total}")
            if status != BUDGET_EXCEEDED:
                lines.append(f"# m-star {m_star}")
            lines.append(f"# status {status}")
            if witness is not None:
                lines.append(format_oa(witness).rstrip("\n"))
            _emit(lines)
            return _search_exit(status)

        m = args.m if args.m is not None else 0
        problem = SearchProblem(n, k, lam, m=m, node_budget=args.budget, ceiling=ceiling)
        result = search_oa(problem, workers=args.workers)
    except (CeilingExceeded, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    lines.append(f"# search n={n} k={k} lambda={lam} m={m}")
    lines.append(f"# status {result.status}")
    lines.append(f"# nodes {result.nodes_explored}")
    lines.append(f"# achieved-multiplicity {result.achieved_multiplicity}")
    if result.witness is not None:
        lines.append(format_oa(result.witness).rstrip("\n"))
    _emit(lines)
    return _search_exit(result.status)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oakit",
        description="Exact verification, existence bounds, proof audits, and "
        "exhaustive search for orthogonal arrays and block designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify an array file and report its parameters")
    p.add_argument("file")
    p.add_argument("--strength", type=int, default=2)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bounds", help="evaluate existence bounds for given parameters")
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--design", help="v,k,lambda,b,t,s,m for block-design bounds")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("audit", help="re-run a proof technique on an array file")
    p.add_argument("file")
    p.add_argument("--method", required=True, choices=AUDIT_METHODS)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("search", help="exhaustive canonical search for small arrays")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--maximize", action="store_true")
    p.add_argument("--budget", type=int, help="node budget (per stage with --maximize)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=cmd_search)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (_UsageError, FormatError) as exc:
        print(f"oakit: {exc}", file=sys.stderr)
        return 2
    except OakitError as exc:
        print(f"oakit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone: what is left of the report goes to
        # devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("oakit: stdout closed before the report was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
