import contextlib
import io
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oakit import OrthogonalArray, format_oa, generate_linear_oa, stack
from oakit.cli import AUDIT_METHODS, main


@pytest.fixture
def parity_file(tmp_path, parity):
    path = tmp_path / "parity.txt"
    path.write_text(format_oa(parity))
    return str(path)


@pytest.fixture
def stacked_file(tmp_path, parity):
    path = tmp_path / "stacked.txt"
    path.write_text(format_oa(stack(parity, 2)))
    return str(path)


@pytest.fixture
def corrupt_file(tmp_path):
    path = tmp_path / "corrupt.txt"
    path.write_text("2 3\n0 0 0\n0 1 1\n1 0 1\n1 1 1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.startswith("#REPORT v1\n") or code == 2
    return code, out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_parameters(capsys, parity_file):
    code, out = run(capsys, "verify", parity_file)
    assert code == 0
    assert "n 2\nk 3\nN 4\n" in out
    assert "lambda 1" in out
    assert "max-multiplicity 1" in out
    assert "bound max-multiplicity 1 1 TIGHT" in out


def test_verify_reports_failure_locus(capsys, corrupt_file):
    code, out = run(capsys, "verify", corrupt_file)
    assert code == 1
    assert "error not-an-oa" in out
    assert "columns " in out and "tuple " in out
    assert "count 0" in out or "count " in out


def test_verify_strength_three(capsys, tmp_path, oa242):
    path = tmp_path / "oa242.txt"
    path.write_text(format_oa(oa242))
    code, out = run(capsys, "verify", str(path), "--strength", "3")
    assert code == 0
    assert "lambda 1" in out


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0 0 2\n")
    assert run(capsys, "verify", str(path))[0] == 2


def test_verify_missing_file(capsys):
    assert run(capsys, "verify", "/nonexistent/file.txt")[0] == 2


def test_verify_bad_strength(capsys, parity_file):
    assert run(capsys, "verify", parity_file, "--strength", "9")[0] == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_index_three_case(capsys):
    code, out = run(capsys, "bounds", "--t", "2", "--k", "5", "--n", "3", "--lambda", "3")
    assert code == 0
    assert "bound max-multiplicity 27/11 2" in out
    assert "bound pb-min-lambda 11/9 2 SATISFIED" in out


def test_bounds_minimum_rows_case(capsys):
    code, out = run(capsys, "bounds", "--t", "3", "--k", "4", "--n", "2", "--m", "2")
    assert code == 0
    assert "bound mqw-min-rows 16 16" in out


def test_bounds_violation_exits_nonzero(capsys):
    code, out = run(capsys, "bounds", "--t", "2", "--k", "4", "--n", "2", "--lambda", "1")
    assert code == 1
    assert "VIOLATED" in out


def test_bounds_design(capsys):
    code, out = run(capsys, "bounds", "--design", "7,3,1,7,2,1,1")
    assert code == 0
    for name in ("fisher", "mann", "rcw", "wilson"):
        assert f"bound {name} 7 7 TIGHT" in out


def test_bounds_doubled_design(capsys):
    code, out = run(capsys, "bounds", "--design", "7,3,2,14,2,1,2")
    assert code == 0
    assert "bound mann 14 14 TIGHT" in out
    assert "bound wilson 14 14 TIGHT" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds",),  # nothing given
        ("bounds", "--t", "2", "--k", "5"),  # missing --n
        ("bounds", "--design", "7,3,1,7"),  # wrong field count
        ("bounds", "--design", "7,3,1,7,2,1,1", "--k", "5"),  # inconsistent
        ("bounds", "--t", "5", "--k", "3", "--n", "2"),  # t > k
        ("bounds", "--t", "2", "--k", "5", "--n", "3", "--lambda", "2", "--m", "3"),
        # a value with more digits than str() converts at the default limit of 4300
        ("bounds", "--design", "100000,3,1,7,4400,2200,1"),  # design bounds
        ("bounds", "--t", "2", "--k", "1" + "0" * 2200, "--n", "1" + "0" * 2200),  # array bounds
        ("bounds", "--t", "2", "--k", "7" * 2200, "--n", "3", "--lambda", "7" * 2200, "--m", "1"),
        # a Rao sum of 10 001 terms and ~9 000 digits, built term by term in well under a second
        ("bounds", "--t", "20000", "--k", "20000", "--n", "3"),
    ],
)
def test_bounds_usage_errors(capsys, argv):
    # in the abar case only the abar value passes the limit; each bound value has ~2 200 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(list(argv))
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("oakit: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        # a Rao sum of 5 * 10**17 terms, and one of 10**6 terms
        ("--t", "1000000000000000000", "--k", "1000000000000000000", "--n", "3"),
        ("--t", "2000000", "--k", "2000000", "--n", "2", "--m", "1"),
        # C(2 000 000, 1 000 000), although the rcw bound does not apply
        ("--design", "2000000,3,1,7,2,1000000,1"),
    ],
)
def test_bounds_refuse_a_provably_long_bound_before_computing_it(argv):
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "oakit.cli", "bounds", *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "oakit: a bound has more than 4300 digits\n"


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["variance", "td-rank", "gram", "roots"])
def test_audit_methods_pass(capsys, parity_file, method):
    code, out = run(capsys, "audit", parity_file, "--method", method)
    assert code == 0
    assert "CHECK " in out
    assert out.rstrip().splitlines()[-1].startswith("IMPLIES ")
    assert out.rstrip().splitlines()[-1].endswith("TIGHT")


def test_audit_gram_pinned_line(capsys, parity_file):
    _, out = run(capsys, "audit", parity_file, "--method", "gram")
    assert "IMPLIES 7<=7 TIGHT" in out


def test_audit_variance_equality_case(capsys, stacked_file):
    code, out = run(capsys, "audit", stacked_file, "--method", "variance", "--m", "2")
    assert code == 0
    assert "equality-case yes" in out
    assert "abar 1" in out
    assert "IMPLIES 3<=3 TIGHT" in out


def test_audit_shortened_and_cwc_normalize_for_the_user(capsys, stacked_file):
    # the stacked file is not normalized; the command takes care of it
    code, out = run(capsys, "audit", stacked_file, "--method", "cwc", "--m", "2")
    assert code == 0
    assert "IMPLIES 3<=3 TIGHT" in out
    code, out = run(capsys, "audit", stacked_file, "--method", "shortened", "--m", "2")
    assert code == 0
    assert "IMPLIES 4<=7 PASS" in out


def test_audit_failure_reports_check(capsys, corrupt_file):
    code, out = run(capsys, "audit", corrupt_file, "--method", "gram")
    assert code == 1
    assert "FAIL" in out
    assert "failing-check lemma-entrywise" in out


def test_audit_variance_catches_corruption(capsys, corrupt_file):
    code, out = run(capsys, "audit", corrupt_file, "--method", "variance")
    assert code == 1
    assert "failing-check" in out


@pytest.mark.parametrize("method", ["variance", "cwc"])
def test_count_audits_reject_a_forged_array(capsys, tmp_path, oa65, method):
    # one cell of row 1 moves between two nonzero symbols: every zero count
    # the audit takes is unchanged, but the array loses a symbol pair
    rows = list(oa65.rows)
    rows[1] = (0, 2) + rows[1][2:]
    path = tmp_path / "forged.txt"
    path.write_text(format_oa(OrthogonalArray(5, 6, tuple(rows))))
    code, out = run(capsys, "audit", str(path), "--method", method)
    assert code == 1
    assert out.endswith("error not-an-oa\n")


@pytest.mark.parametrize("method", ["roots", "shortened"])
def test_root_audits_reject_a_nonintegral_index_at_once(capsys, tmp_path, method):
    # 2 rows over 400 symbols: the 799-vector family was built before the
    # index was checked, which took minutes
    path = tmp_path / "wide.txt"
    path.write_text("400 2\n0 0\n1 1\n")
    start = time.perf_counter()
    code, out = run(capsys, "audit", str(path), "--method", method)
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out.endswith("error non-integral-index\n")


def test_audit_td_rank_rejects_non_array(capsys, corrupt_file):
    code, out = run(capsys, "audit", corrupt_file, "--method", "td-rank")
    assert code == 1
    assert "error not-an-oa" in out


def test_audit_impossible_multiplicity(capsys, parity_file):
    code, _ = run(capsys, "audit", parity_file, "--method", "variance", "--m", "3")
    assert code == 1


def test_audit_unknown_method(capsys, parity_file):
    assert run(capsys, "audit", parity_file, "--method", "sudoku")[0] == 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_found_round_trips(capsys, tmp_path):
    code, out = run(capsys, "search", "--n", "2", "--k", "3", "--lambda", "2", "--m", "2")
    assert code == 0
    assert "# status found" in out
    assert "# nodes 7" in out
    witness = tmp_path / "witness.txt"
    witness.write_text(out)
    code, out = run(capsys, "verify", str(witness))
    assert code == 0
    assert "max-multiplicity 2" in out


def test_search_exhausted(capsys):
    code, out = run(capsys, "search", "--n", "2", "--k", "4", "--lambda", "2", "--m", "2")
    assert code == 1
    assert "# status exhausted-no-solution" in out


def test_search_budget(capsys):
    code, out = run(capsys, "search", "--n", "2", "--k", "4", "--lambda", "3", "--budget", "10")
    assert code == 3
    assert "# status budget-exceeded" in out
    assert "# nodes 10" in out


def test_search_over_ceiling(capsys):
    assert run(capsys, "search", "--n", "7", "--k", "3", "--lambda", "1")[0] == 2


def test_search_ceiling_override(capsys, monkeypatch):
    monkeypatch.setenv("OAKIT_CEILING", "49")
    code, out = run(capsys, "search", "--n", "7", "--k", "3", "--lambda", "1")
    assert code == 0
    assert "# status found" in out


def test_search_bad_ceiling_env(capsys, monkeypatch):
    monkeypatch.setenv("OAKIT_CEILING", "many")
    assert run(capsys, "search", "--n", "2", "--k", "3", "--lambda", "1")[0] == 2


def test_search_maximize(capsys):
    code, out = run(capsys, "search", "--n", "3", "--k", "5", "--lambda", "3", "--maximize")
    assert code == 0
    assert "# m-star 2" in out
    assert "# stage m=2 status found nodes 11614" in out


def test_search_maximize_budget_applies_per_stage(capsys):
    # each stage gets the full budget, so 57 nodes in total fit a budget of 40
    argv = ("--n", "2", "--k", "4", "--lambda", "4", "--maximize", "--budget", "40")
    code, out = run(capsys, "search", *argv)
    assert code == 0
    assert "# stage m=3 status exhausted-no-solution nodes 20" in out
    assert "# stage m=2 status found nodes 37" in out
    assert "# nodes 57\n# m-star 2\n# status found\n" in out


def test_search_maximize_conflicts_with_m(capsys):
    code, _ = run(capsys, "search", "--n", "2", "--k", "3", "--lambda", "2", "--m", "1", "--maximize")
    assert code == 2


BASE = ("--n", "2", "--k", "3", "--lambda", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "1", "--k", "3", "--lambda", "1"),  # alphabet below 2
        ("--n", "1", "--k", "3", "--lambda", "1", "--maximize"),
        BASE + ("--budget", "-1"),
        BASE + ("--budget", "-1", "--maximize"),
        BASE + ("--m", "99"),  # beyond the row count
        BASE + ("--workers", "0"),
        BASE + ("--workers", "0", "--maximize"),
        BASE + ("--workers", "-2"),
    ],
)
def test_search_usage_errors(capsys, argv):
    assert main(["search", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oakit: ")


def test_search_output_is_deterministic(capsys):
    argv = ("search", "--n", "2", "--k", "4", "--lambda", "3")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    _, parallel = run(capsys, *argv, "--workers", "2")
    assert parallel == first


# ---------------------------------------------------------------------------
# driver behavior
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "m,workers,one_cpu",
    [(2, 1, False), (2, 2, False), (2, 2, True), (3, 1, False), (3, 2, False)],
)
def test_search_runs_as_a_process_and_pipes_into_verify(capsys, m, workers, one_cpu):
    # Real processes: forked workers killed once the answer is known, a CPU mask
    # that leaves one worker of the two asked for, and README's promise that
    # search output pipes straight back into verify.  (3,5,3) m=2 finds a
    # witness; m=3 is exhausted after 15 149 nodes.
    argv = ["search", "--n", "3", "--k", "5", "--lambda", "3", "--m", str(m)]
    code = main(argv)
    expected = capsys.readouterr().out
    search = [sys.executable, "-m", "oakit.cli", *argv, "--workers", str(workers)]
    cpu = {min(os.sched_getaffinity(0))}
    pin = (lambda: os.sched_setaffinity(0, cpu)) if one_cpu else None
    alone = subprocess.run(search, capture_output=True, text=True, preexec_fn=pin, timeout=120)
    assert (alone.returncode, alone.stdout, alone.stderr) == (code, expected, "")
    if m == 3:
        assert code == 1 and "# nodes 15149" in expected.splitlines()
        return
    verify = [sys.executable, "-m", "oakit.cli", "verify", "/dev/stdin"]
    with subprocess.Popen(search, stdout=subprocess.PIPE, preexec_fn=pin) as producer:
        piped = subprocess.run(
            verify, stdin=producer.stdout, capture_output=True, text=True, timeout=120
        )
    assert (producer.returncode, piped.returncode, piped.stderr) == (0, 0, "")
    lines = piped.stdout.splitlines()
    assert lines[0] == "#REPORT v1" and "max-multiplicity 2" in lines


def test_a_closed_stdout_ends_the_run_with_one_line(tmp_path):
    # The roots audit of generate_linear_oa(11, 12) prints 7 385 lines, far
    # more than a pipe holds.  A reader that takes one line and closes the
    # pipe, as `| head -1` does, once ended the run in a BrokenPipeError
    # traceback.
    path = tmp_path / "oa1112.txt"
    path.write_text(format_oa(generate_linear_oa(11, 12)))
    argv = [sys.executable, "-m", "oakit.cli", "audit", str(path), "--method", "roots"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "#REPORT v1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == "oakit: stdout closed before the report was written\n"


def test_a_stdout_closed_before_a_short_report_ends_the_run_with_one_line(parity_file):
    # A buffered stdout writes a short report only when it is flushed.  Into
    # a pipe whose reader has already gone, that flush once failed at exit:
    # "Exception ignored" on stderr and exit code 120.
    read, write = os.pipe()
    os.close(read)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oakit.cli", "verify", parity_file],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "oakit: stdout closed before the report was written\n"


# ---------------------------------------------------------------------------
# random command lines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Valid, forged, malformed, non-UTF-8 and missing array files, by placeholder name."""
    root = tmp_path_factory.mktemp("argv")
    parity = generate_linear_oa(2, 3)
    oa65 = generate_linear_oa(5, 6)
    forged = list(oa65.rows)
    forged[1] = (0, 2) + forged[1][2:]
    texts = {
        "parity": format_oa(parity),
        "stacked": format_oa(stack(parity, 2)),
        "forged": format_oa(OrthogonalArray(5, 6, tuple(forged))),
        "short": "2 3\n0 0 0\n1 1 1\n0 1 1\n",  # N not a multiple of n^2
        "constant": "2 3\n" + "0 0 0\n" * 4,  # one row N times: --m up to N
        "malformed": "2 3\n0 0\n1 x 1\n",
    }
    files = {name: root / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        files[name].write_text(text)
    files["binary"] = root / "binary.txt"
    files["binary"].write_bytes(b"\xff\xfe\x00bad")  # not UTF-8
    files["oa353"] = pathlib.Path(__file__).parent / "data" / "oa353_m2.txt"
    files["missing"] = root / "missing.txt"
    return {name: str(path) for name, path in files.items()}


@st.composite
def _command_line(draw):
    """An argv for main() and an OAKIT_CEILING value (None: unset)."""

    def rarely():
        return draw(st.integers(0, 9)) == 9

    def value(low, top):
        # mostly an integer in low..top, now and then a negative or non-integer one
        if rarely():
            return draw(st.sampled_from(["-1", "x", "1.5", ""]))
        return str(draw(st.integers(low, top)))

    def option(flag, low, top):
        if draw(st.booleans()):
            argv.extend([flag, value(low, top)])

    command = draw(st.sampled_from(["verify", "bounds", "audit", "search"]))
    argv = [command]
    file = "{%s}" % draw(
        st.sampled_from(
            "parity stacked forged short constant malformed binary oa353 missing".split()
        )
    )
    if command == "verify":
        argv.append(file)
        option("--strength", 2, 4)
    elif command == "bounds":
        if draw(st.integers(0, 3)) < 3:
            # now and then --k, --n and --lambda are 10**2200, so a bound has more
            # digits than str() converts at its default limit of 4300
            huge = "1" + "0" * 2200 if rarely() else None
            for flag, low, top in (("--t", 2, 3), ("--k", 2, 9), ("--n", 2, 5)):
                if not rarely():
                    argv.extend([flag, huge if huge and flag != "--t" else value(low, top)])
            if draw(st.booleans()):
                argv.extend(["--lambda", huge or value(1, 4)])
            option("--m", 1, 4)
        if draw(st.integers(0, 2)) == 2:
            designs = ["7,3,1,7,2,1,1", "7,3,2,14,2,1,2", "7,3,1", "a,b,c,d,e,f,g", "7,3,1,7,2,1,-1"]
            argv.extend(["--design", draw(st.sampled_from(designs))])
    elif command == "audit":
        argv.extend([file, "--method", draw(st.sampled_from(AUDIT_METHODS + ("sudoku",)))])
        option("--m", 1, 4)
    else:
        # small problems only: n <= 3, k <= 8, lambda <= 3, at most 500 nodes
        # a stage and at most two worker processes
        for flag, low, top in (("--n", 2, 3), ("--k", 2, 8), ("--lambda", 1, 3)):
            if not rarely():  # now and then a required flag is missing
                argv.extend([flag, value(low, top)])
        claim = draw(st.sampled_from(["--m", "--maximize", ""]))
        if claim == "--m" or rarely():
            argv.extend(["--m", value(0, 4)])
        if claim == "--maximize" or rarely():
            argv.append("--maximize")
        argv.extend(["--budget", value(0, 500)])
        workers = draw(st.sampled_from(["0", "-1"] if rarely() else ["2", "1"]))
        argv.extend(["--workers", workers])
    ceiling = None
    if rarely():
        ceiling = draw(st.sampled_from(["36", "27", "4", "0", "-3", "abc", "1.5", ""]))
    return argv, ceiling


@settings(max_examples=200)
@given(command_line=_command_line())
# the random draws reach this case rarely: --m equal to N leaves no row to count
@example(command_line=(["audit", "{constant}", "--method", "variance", "--m", "4"], None))
def test_main_ends_every_command_line_with_a_documented_exit_code(argv_files, command_line):
    argv, ceiling = command_line
    argv = [arg.format(**argv_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if ceiling is None:
            patch.delenv("OAKIT_CEILING", raising=False)
        else:
            patch.setenv("OAKIT_CEILING", ceiling)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code != 2:
        assert out.getvalue().startswith("#REPORT v1\n")
