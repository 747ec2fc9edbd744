"""Golden output: the exact stdout and exit code of fixed CLI runs, and the
exact FormatError message of each malformed-input class of both parsers.

The expected text is literal and compared byte for byte, so a refactoring
that changes any report line, exit code or parser message fails here.
"""

import pathlib

import pytest

from oakit import (
    FormatError,
    OrthogonalArray,
    format_oa,
    generate_linear_oa,
    parse_bibd,
    parse_oa,
    stack,
)
from oakit.cli import main

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def files(tmp_path):
    parity = generate_linear_oa(2, 3)
    (tmp_path / "parity.txt").write_text(format_oa(parity))
    (tmp_path / "stacked.txt").write_text(format_oa(stack(parity, 2)))
    return {
        "oa353": str(DATA / "oa353_m2.txt"),
        "parity": str(tmp_path / "parity.txt"),
        "stacked": str(tmp_path / "stacked.txt"),
    }


CLI_CASES = [
    pytest.param(
        ("verify", "{oa353}"),
        0,
        """\
#REPORT v1
n 3
k 5
N 27
strength 2
lambda 3
distinct-rows 26
max-multiplicity 2
witness-row 0
bound max-multiplicity 27/11 2 SATISFIED
""",
        id="readme-verify",
    ),
    pytest.param(
        ("bounds", "--t", "2", "--k", "5", "--n", "3", "--lambda", "3"),
        0,
        """\
#REPORT v1
bound pb-min-lambda 11/9 2 SATISFIED
bound max-multiplicity 27/11 2
bound rao-min-rows 11 11 SATISFIED
""",
        id="readme-bounds",
    ),
    pytest.param(
        ("bounds", "--design", "7,3,1,7,2,1,1"),
        0,
        """\
#REPORT v1
design v=7 k=3 lambda=1 b=7 t=2 s=1 m=1
bound fisher 7 7 TIGHT
bound mann 7 7 TIGHT
bound rcw 7 7 TIGHT
bound wilson 7 7 TIGHT
""",
        id="readme-bounds-design",
    ),
    pytest.param(
        ("audit", "{parity}", "--method", "gram"),
        0,
        """\
#REPORT v1
method gram
CHECK lemma-entrywise 0 0 PASS
CHECK det-positive 576 0 PASS
IMPLIES 7<=7 TIGHT
""",
        id="readme-audit-gram",
    ),
    pytest.param(
        ("search", "--n", "2", "--k", "3", "--lambda", "2", "--m", "2"),
        0,
        """\
#REPORT v1
# search n=2 k=3 lambda=2 m=2
# status found
# nodes 7
# achieved-multiplicity 2
2 3
0 0 0
0 0 0
0 1 1
0 1 1
1 0 1
1 0 1
1 1 0
1 1 0
""",
        id="readme-search",
    ),
    pytest.param(
        ("search", "--n", "3", "--k", "5", "--lambda", "3", "--maximize"),
        0,
        """\
#REPORT v1
# maximize n=3 k=5 lambda=3 bound-floor=2
# stage m=2 status found nodes 11614
# nodes 11614
# m-star 2
# status found
3 5
0 0 0 0 0
0 0 0 0 0
0 0 2 2 2
0 1 1 2 2
0 1 2 1 2
0 1 2 2 1
0 2 0 1 1
0 2 1 0 1
0 2 1 1 0
1 0 1 2 1
1 0 2 1 0
1 0 2 1 1
1 1 0 0 2
1 1 1 0 1
1 1 2 0 0
1 2 0 1 2
1 2 0 2 2
1 2 1 2 0
2 0 0 2 1
2 0 1 0 2
2 0 1 1 2
2 1 0 1 1
2 1 0 2 0
2 1 1 1 0
2 2 2 0 1
2 2 2 0 2
2 2 2 2 0
""",
        id="readme-maximize",
    ),
    pytest.param(
        ("audit", "{oa353}", "--method", "variance", "--m", "2"),
        0,
        """\
#REPORT v1
method variance
m 2
abar 7/5
ssd 6
equality-case no
CHECK sum-a 35 35 PASS
CHECK sum-a(a-1) 20 20 PASS
CHECK sum-a^2 55 55 PASS
CHECK ssd-nonnegative 6 0 PASS
IMPLIES 5<=25/4 PASS
""",
        id="oa353-variance",
    ),
    pytest.param(
        ("audit", "{oa353}", "--method", "td-rank", "--m", "2"),
        0,
        """\
#REPORT v1
method td-rank
CHECK rank 15 15 PASS
CHECK rank-without-last-group 15 15 PASS
IMPLIES 15<=31 PASS
""",
        id="oa353-td-rank",
    ),
    pytest.param(
        ("audit", "{oa353}", "--method", "gram", "--m", "2"),
        0,
        """\
#REPORT v1
method gram
CHECK lemma-entrywise 0 0 PASS
CHECK det-positive 15441834907098675 0 PASS
IMPLIES 16<=32 PASS
""",
        id="oa353-gram",
    ),
    pytest.param(
        ("audit", "{oa353}", "--method", "roots", "--m", "2"),
        0,
        """\
#REPORT v1
method roots
CHECK family-size 11 11 PASS
CHECK self@C0 27 27 PASS
CHECK self@1C1 27 27 PASS
CHECK self@2C1 27 27 PASS
CHECK self@1C2 27 27 PASS
CHECK self@2C2 27 27 PASS
CHECK self@1C3 27 27 PASS
CHECK self@2C3 27 27 PASS
CHECK self@1C4 27 27 PASS
CHECK self@2C4 27 27 PASS
CHECK self@1C5 27 27 PASS
CHECK self@2C5 27 27 PASS
CHECK orth@C0,1C1 0 0 PASS
CHECK orth@C0,2C1 0 0 PASS
CHECK orth@C0,1C2 0 0 PASS
CHECK orth@C0,2C2 0 0 PASS
CHECK orth@C0,1C3 0 0 PASS
CHECK orth@C0,2C3 0 0 PASS
CHECK orth@C0,1C4 0 0 PASS
CHECK orth@C0,2C4 0 0 PASS
CHECK orth@C0,1C5 0 0 PASS
CHECK orth@C0,2C5 0 0 PASS
CHECK orth@1C1,2C1 0 0 PASS
CHECK orth@1C1,1C2 0 0 PASS
CHECK orth@1C1,2C2 0 0 PASS
CHECK orth@1C1,1C3 0 0 PASS
CHECK orth@1C1,2C3 0 0 PASS
CHECK orth@1C1,1C4 0 0 PASS
CHECK orth@1C1,2C4 0 0 PASS
CHECK orth@1C1,1C5 0 0 PASS
CHECK orth@1C1,2C5 0 0 PASS
CHECK orth@2C1,1C2 0 0 PASS
CHECK orth@2C1,2C2 0 0 PASS
CHECK orth@2C1,1C3 0 0 PASS
CHECK orth@2C1,2C3 0 0 PASS
CHECK orth@2C1,1C4 0 0 PASS
CHECK orth@2C1,2C4 0 0 PASS
CHECK orth@2C1,1C5 0 0 PASS
CHECK orth@2C1,2C5 0 0 PASS
CHECK orth@1C2,2C2 0 0 PASS
CHECK orth@1C2,1C3 0 0 PASS
CHECK orth@1C2,2C3 0 0 PASS
CHECK orth@1C2,1C4 0 0 PASS
CHECK orth@1C2,2C4 0 0 PASS
CHECK orth@1C2,1C5 0 0 PASS
CHECK orth@1C2,2C5 0 0 PASS
CHECK orth@2C2,1C3 0 0 PASS
CHECK orth@2C2,2C3 0 0 PASS
CHECK orth@2C2,1C4 0 0 PASS
CHECK orth@2C2,2C4 0 0 PASS
CHECK orth@2C2,1C5 0 0 PASS
CHECK orth@2C2,2C5 0 0 PASS
CHECK orth@1C3,2C3 0 0 PASS
CHECK orth@1C3,1C4 0 0 PASS
CHECK orth@1C3,2C4 0 0 PASS
CHECK orth@1C3,1C5 0 0 PASS
CHECK orth@1C3,2C5 0 0 PASS
CHECK orth@2C3,1C4 0 0 PASS
CHECK orth@2C3,2C4 0 0 PASS
CHECK orth@2C3,1C5 0 0 PASS
CHECK orth@2C3,2C5 0 0 PASS
CHECK orth@1C4,2C4 0 0 PASS
CHECK orth@1C4,1C5 0 0 PASS
CHECK orth@1C4,2C5 0 0 PASS
CHECK orth@2C4,1C5 0 0 PASS
CHECK orth@2C4,2C5 0 0 PASS
CHECK orth@1C5,2C5 0 0 PASS
IMPLIES 11<=27 PASS
""",
        id="oa353-roots",
    ),
    pytest.param(
        ("audit", "{oa353}", "--method", "shortened", "--m", "2"),
        0,
        """\
#REPORT v1
method shortened
m 2
# coordinate merging proves k(n-1)+m = 12 <= N = 27; the counting bound sharpens this to m(k(n-1)+1) = 22 <= N
CHECK family-size 11 11 PASS
CHECK self@C0 27 27 PASS
CHECK self@1C1 27 27 PASS
CHECK self@2C1 27 27 PASS
CHECK self@1C2 27 27 PASS
CHECK self@2C2 27 27 PASS
CHECK self@1C3 27 27 PASS
CHECK self@2C3 27 27 PASS
CHECK self@1C4 27 27 PASS
CHECK self@2C4 27 27 PASS
CHECK self@1C5 27 27 PASS
CHECK self@2C5 27 27 PASS
CHECK orth@C0,1C1 0 0 PASS
CHECK orth@C0,2C1 0 0 PASS
CHECK orth@C0,1C2 0 0 PASS
CHECK orth@C0,2C2 0 0 PASS
CHECK orth@C0,1C3 0 0 PASS
CHECK orth@C0,2C3 0 0 PASS
CHECK orth@C0,1C4 0 0 PASS
CHECK orth@C0,2C4 0 0 PASS
CHECK orth@C0,1C5 0 0 PASS
CHECK orth@C0,2C5 0 0 PASS
CHECK orth@1C1,2C1 0 0 PASS
CHECK orth@1C1,1C2 0 0 PASS
CHECK orth@1C1,2C2 0 0 PASS
CHECK orth@1C1,1C3 0 0 PASS
CHECK orth@1C1,2C3 0 0 PASS
CHECK orth@1C1,1C4 0 0 PASS
CHECK orth@1C1,2C4 0 0 PASS
CHECK orth@1C1,1C5 0 0 PASS
CHECK orth@1C1,2C5 0 0 PASS
CHECK orth@2C1,1C2 0 0 PASS
CHECK orth@2C1,2C2 0 0 PASS
CHECK orth@2C1,1C3 0 0 PASS
CHECK orth@2C1,2C3 0 0 PASS
CHECK orth@2C1,1C4 0 0 PASS
CHECK orth@2C1,2C4 0 0 PASS
CHECK orth@2C1,1C5 0 0 PASS
CHECK orth@2C1,2C5 0 0 PASS
CHECK orth@1C2,2C2 0 0 PASS
CHECK orth@1C2,1C3 0 0 PASS
CHECK orth@1C2,2C3 0 0 PASS
CHECK orth@1C2,1C4 0 0 PASS
CHECK orth@1C2,2C4 0 0 PASS
CHECK orth@1C2,1C5 0 0 PASS
CHECK orth@1C2,2C5 0 0 PASS
CHECK orth@2C2,1C3 0 0 PASS
CHECK orth@2C2,2C3 0 0 PASS
CHECK orth@2C2,1C4 0 0 PASS
CHECK orth@2C2,2C4 0 0 PASS
CHECK orth@2C2,1C5 0 0 PASS
CHECK orth@2C2,2C5 0 0 PASS
CHECK orth@1C3,2C3 0 0 PASS
CHECK orth@1C3,1C4 0 0 PASS
CHECK orth@1C3,2C4 0 0 PASS
CHECK orth@1C3,1C5 0 0 PASS
CHECK orth@1C3,2C5 0 0 PASS
CHECK orth@2C3,1C4 0 0 PASS
CHECK orth@2C3,2C4 0 0 PASS
CHECK orth@2C3,1C5 0 0 PASS
CHECK orth@2C3,2C5 0 0 PASS
CHECK orth@1C4,2C4 0 0 PASS
CHECK orth@1C4,1C5 0 0 PASS
CHECK orth@1C4,2C5 0 0 PASS
CHECK orth@2C4,1C5 0 0 PASS
CHECK orth@2C4,2C5 0 0 PASS
CHECK orth@1C5,2C5 0 0 PASS
IMPLIES 11<=26 PASS
""",
        id="oa353-shortened",
    ),
    pytest.param(
        ("audit", "{oa353}", "--method", "cwc", "--m", "2"),
        0,
        """\
#REPORT v1
method cwc
m 2
CHECK weight@1 7 7 PASS
CHECK weight@2 7 7 PASS
CHECK weight@3 7 7 PASS
CHECK weight@4 7 7 PASS
CHECK weight@5 7 7 PASS
CHECK ip@1,2 1 1 PASS
CHECK ip@1,3 1 1 PASS
CHECK ip@1,4 1 1 PASS
CHECK ip@1,5 1 1 PASS
CHECK ip@2,3 1 1 PASS
CHECK ip@2,4 1 1 PASS
CHECK ip@2,5 1 1 PASS
CHECK ip@3,4 1 1 PASS
CHECK ip@3,5 1 1 PASS
CHECK ip@4,5 1 1 PASS
CHECK johnson-hypothesis 24 0 PASS
CHECK hypothesis-margin 24 24 PASS
CHECK johnson-equals-rr-bound 25/4 25/4 PASS
IMPLIES 5<=25/4 PASS
""",
        id="oa353-cwc",
    ),
    pytest.param(
        ("audit", "{stacked}", "--method", "variance", "--m", "2"),
        0,
        """\
#REPORT v1
method variance
m 2
abar 1
ssd 0
equality-case yes
CHECK sum-a 6 6 PASS
CHECK sum-a(a-1) 0 0 PASS
CHECK sum-a^2 6 6 PASS
CHECK ssd-nonnegative 0 0 PASS
CHECK equality-counts 0 0 PASS
IMPLIES 3<=3 TIGHT
""",
        id="stacked-variance",
    ),
    pytest.param(
        ("audit", "{stacked}", "--method", "td-rank", "--m", "2"),
        0,
        """\
#REPORT v1
method td-rank
CHECK rank 6 6 PASS
CHECK rank-without-last-group 6 6 PASS
IMPLIES 6<=10 PASS
""",
        id="stacked-td-rank",
    ),
    pytest.param(
        ("audit", "{stacked}", "--method", "gram", "--m", "2"),
        0,
        """\
#REPORT v1
method gram
CHECK lemma-entrywise 0 0 PASS
CHECK det-positive 73728 0 PASS
IMPLIES 7<=11 PASS
""",
        id="stacked-gram",
    ),
    pytest.param(
        ("audit", "{stacked}", "--method", "roots", "--m", "2"),
        0,
        """\
#REPORT v1
method roots
CHECK family-size 4 4 PASS
CHECK self@C0 8 8 PASS
CHECK self@1C1 8 8 PASS
CHECK self@1C2 8 8 PASS
CHECK self@1C3 8 8 PASS
CHECK orth@C0,1C1 0 0 PASS
CHECK orth@C0,1C2 0 0 PASS
CHECK orth@C0,1C3 0 0 PASS
CHECK orth@1C1,1C2 0 0 PASS
CHECK orth@1C1,1C3 0 0 PASS
CHECK orth@1C2,1C3 0 0 PASS
IMPLIES 4<=8 PASS
""",
        id="stacked-roots",
    ),
    pytest.param(
        ("audit", "{stacked}", "--method", "shortened", "--m", "2"),
        0,
        """\
#REPORT v1
method shortened
m 2
# coordinate merging proves k(n-1)+m = 5 <= N = 8; the counting bound sharpens this to m(k(n-1)+1) = 8 <= N
CHECK family-size 4 4 PASS
CHECK self@C0 8 8 PASS
CHECK self@1C1 8 8 PASS
CHECK self@1C2 8 8 PASS
CHECK self@1C3 8 8 PASS
CHECK orth@C0,1C1 0 0 PASS
CHECK orth@C0,1C2 0 0 PASS
CHECK orth@C0,1C3 0 0 PASS
CHECK orth@1C1,1C2 0 0 PASS
CHECK orth@1C1,1C3 0 0 PASS
CHECK orth@1C2,1C3 0 0 PASS
IMPLIES 4<=7 PASS
""",
        id="stacked-shortened",
    ),
    pytest.param(
        ("audit", "{stacked}", "--method", "cwc", "--m", "2"),
        0,
        """\
#REPORT v1
method cwc
m 2
CHECK weight@1 2 2 PASS
CHECK weight@2 2 2 PASS
CHECK weight@3 2 2 PASS
CHECK ip@1,2 0 0 PASS
CHECK ip@1,3 0 0 PASS
CHECK ip@2,3 0 0 PASS
CHECK johnson-hypothesis 4 0 PASS
CHECK hypothesis-margin 4 4 PASS
CHECK johnson-equals-rr-bound 3 3 PASS
IMPLIES 3<=3 TIGHT
""",
        id="stacked-cwc",
    ),
    pytest.param(
        ("audit", "{parity}", "--method", "variance", "--m", "2"),
        1,
        """\
#REPORT v1
method variance
error invalid-claim
""",
        id="no-repeated-row-variance",
    ),
    pytest.param(
        ("audit", "{parity}", "--method", "shortened", "--m", "2"),
        1,
        """\
#REPORT v1
method shortened
error invalid-claim
""",
        id="no-repeated-row-shortened",
    ),
    pytest.param(
        ("audit", "{parity}", "--method", "cwc", "--m", "2"),
        1,
        """\
#REPORT v1
method cwc
error audit-failed
""",
        id="no-repeated-row-cwc",
    ),
]


@pytest.mark.parametrize("argv, code, stdout", CLI_CASES)
def test_cli_golden(capsys, files, argv, code, stdout):
    assert main([a.format(**files) for a in argv]) == code
    assert capsys.readouterr().out == stdout


PARSE_CASES = [
    (parse_oa, "", "empty input"),
    (parse_oa, "2\n0 0\n", "line 1: expected `n k` header"),
    (parse_oa, "x 2\n0 0\n", "line 1: non-integer header"),
    (parse_oa, "2 2\n0\n", "line 2: expected 2 symbols, got 1"),
    (parse_oa, "2 2\n0 a\n", "line 2: non-integer symbol"),
    (parse_oa, "2 2\n0 2\n", "line 2: symbol 2 outside 0..1"),
    (parse_oa, "2 2\n0 -1\n", "line 2: symbol -1 outside 0..1"),
    # the first bad entry of the line is named, wherever the min or max falls
    (parse_oa, "3 3\n0 5 1\n", "line 2: symbol 5 outside 0..2"),
    (parse_oa, "3 3\n0 1 2\n2 -4 1\n", "line 3: symbol -4 outside 0..2"),
    (parse_oa, "3 3\n1 7 -1\n", "line 2: symbol 7 outside 0..2"),
    (parse_oa, "3 3\n1 -1 7\n", "line 2: symbol -1 outside 0..2"),
    (parse_oa, "2 2\n# only a comment\n\n", "no rows"),
    (parse_oa, "1 2\n0 0\n", "alphabet size n must be at least 2"),
    (parse_oa, "2 1\n0\n", "column count k must be at least 2"),
    (parse_bibd, "", "empty input"),
    (parse_bibd, "7\n0 1 3\n", "line 1: expected `v k` header"),
    (parse_bibd, "7 x\n0 1 3\n", "line 1: non-integer header"),
    (parse_bibd, "7 3\n0 1\n", "line 2: expected 3 points, got 2"),
    (parse_bibd, "7 3\n0 1 b\n", "line 2: non-integer point"),
    (parse_bibd, "7 3\n0 1 7\n", "line 2: point 7 outside 0..6"),
    (parse_bibd, "7 3\n9 9 1\n", "line 2: point 9 outside 0..6"),
    (parse_bibd, "7 3\n0 8 -2\n", "line 2: point 8 outside 0..6"),
    (parse_bibd, "7 3\n0 1 1\n", "line 2: repeated point in block"),
    (parse_bibd, "7 3\n0 1 1\n0 1 9\n", "line 2: repeated point in block"),
    (parse_bibd, "7 3\n", "no blocks"),
    (parse_bibd, "5 1\n0\n", "need 2 <= k <= v"),
]


@pytest.mark.parametrize("parse, text, message", PARSE_CASES)
def test_parse_error_golden(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message


ARRAY_CASES = [
    (((0, 1, 2), (0, 5, 1)), "row 1: entry 5 outside 0..2"),
    (((0, 2, -1),), "row 0: entry -1 outside 0..2"),
    (((1, 7, -1),), "row 0: entry 7 outside 0..2"),
    (((0, 1, True),), "row 0: entry True outside 0..2"),
    (((2, 0, 2.0),), "row 0: entry 2.0 outside 0..2"),
    (((0, 1, 2), (2, 1)), "row 1 has 2 entries, expected 3"),
]


@pytest.mark.parametrize("rows, message", ARRAY_CASES)
def test_array_constructor_error_golden(rows, message):
    with pytest.raises(ValueError) as info:
        OrthogonalArray(3, 3, rows)
    assert str(info.value) == message
