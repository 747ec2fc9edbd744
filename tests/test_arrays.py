import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oakit import (
    BlockDesign,
    MultiplicityReport,
    FormatError,
    NonintegralIndex,
    NotADesign,
    NotAnOA,
    OrthogonalArray,
    block_multiplicities,
    format_bibd,
    format_oa,
    normalize_to_row,
    parse_bibd,
    parse_oa,
    row_multiplicities,
    stack,
    strength_lambda,
    symbol_counts,
    verify_bibd,
)


def brute_strength_index(array, t):
    """Reference check: project onto every t-subset and count tuples."""
    lam = array.N // array.n**t
    for cols in itertools.combinations(range(array.k), t):
        seen = {}
        for row in array.rows:
            key = tuple(row[c] for c in cols)
            seen[key] = seen.get(key, 0) + 1
        for tup in itertools.product(range(array.n), repeat=t):
            if seen.get(tup, 0) != lam:
                return None
    return lam


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_array_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OrthogonalArray(1, 3, ((0, 0, 0),))
    with pytest.raises(ValueError):
        OrthogonalArray(2, 1, ((0,),))
    with pytest.raises(ValueError):
        OrthogonalArray(2, 3, ())
    with pytest.raises(ValueError):
        OrthogonalArray(2, 3, ((0, 0),))  # short row
    with pytest.raises(ValueError):
        OrthogonalArray(2, 3, ((0, 0, 2),))  # symbol out of range
    with pytest.raises(ValueError):
        OrthogonalArray(2, 3, ((0, 0, -1),))


@pytest.mark.parametrize(
    "n,k,rows",
    [
        (2, 2, ((True, False), (False, True))),
        (2.0, 2, ((0, 1), (1, 0))),
        (2, 2.0, ((0, 1), (1, 0))),
        (2, 2, ((0, 1.0), (1, 0))),
        ("2", 2, ((0, 1), (1, 0))),
    ],
)
def test_array_constructor_rejects_non_int_values(n, k, rows):
    # format_oa once wrote these as `True False` or `2.0 2`, which parse_oa
    # and `oakit verify` reject; their int forms round-trip
    with pytest.raises(ValueError):
        OrthogonalArray(n, k, rows)
    array = OrthogonalArray(int(n), int(k), tuple(tuple(map(int, row)) for row in rows))
    text = format_oa(array)
    assert text == "2 2\n" + "\n".join(" ".join(map(str, row)) for row in array.rows) + "\n"
    assert parse_oa(text) == array


def test_array_rows_are_normalized_to_tuples():
    a = OrthogonalArray(2, 2, [[0, 1], [1, 0]])
    assert a.rows == ((0, 1), (1, 0))
    assert a.N == 2


def test_block_design_constructor():
    d = BlockDesign(4, 2, ((1, 0), (2, 3)))
    assert d.blocks == ((0, 1), (2, 3))  # blocks are sorted
    assert d.b == 2
    with pytest.raises(ValueError):
        BlockDesign(4, 2, ((0, 0),))  # repeated point
    with pytest.raises(ValueError):
        BlockDesign(4, 2, ((3, 4),))  # point out of range
    with pytest.raises(ValueError):
        BlockDesign(2, 3, ())  # k > v


# ---------------------------------------------------------------------------
# strength verification
# ---------------------------------------------------------------------------


def test_parity_array_has_index_one(parity):
    assert strength_lambda(parity) == 1
    assert brute_strength_index(parity, 2) == 1


def test_linear_arrays_have_index_one(oa43, oa65):
    assert strength_lambda(oa43) == 1
    assert strength_lambda(oa65) == 1


def test_index_two_array(oa242):
    assert strength_lambda(oa242) == 2
    assert brute_strength_index(oa242, 2) == 2
    # This particular array even has strength 3.
    assert strength_lambda(oa242, t=3) == 1


def test_frozen_witness_has_index_three(oa353_m2):
    assert oa353_m2.n == 3
    assert oa353_m2.k == 5
    assert oa353_m2.N == 27
    assert strength_lambda(oa353_m2) == 3


def test_strength_failure_reports_locus(parity):
    rows = list(parity.rows)
    rows[-1] = (1, 1, 1)  # break the parity relation
    bad = OrthogonalArray(2, 3, tuple(rows))
    with pytest.raises(NotAnOA) as exc:
        strength_lambda(bad)
    assert len(exc.value.columns) == 2
    assert exc.value.count != exc.value.expected
    assert exc.value.expected == 1


def test_nonintegral_row_count(parity):
    bad = OrthogonalArray(2, 3, parity.rows + ((0, 0, 0),))
    with pytest.raises(NonintegralIndex):
        strength_lambda(bad)


def test_strength_argument_validation(parity):
    with pytest.raises(ValueError):
        strength_lambda(parity, t=1)
    with pytest.raises(ValueError):
        strength_lambda(parity, t=4)


# ---------------------------------------------------------------------------
# multiplicities and normalization
# ---------------------------------------------------------------------------


def test_row_census(parity, stacked_parity):
    census = row_multiplicities(parity)
    assert census.max_multiplicity == 1
    assert len(census.counts) == 4
    census = row_multiplicities(stacked_parity)
    assert census.max_multiplicity == 2
    assert census.witness_index == 0
    assert all(c == 2 for c in census.counts.values())
    assert list(census.counts) == list(dict.fromkeys(stacked_parity.rows))


def test_census_witness_is_first_maximal(oa353_m2):
    census = row_multiplicities(oa353_m2)
    assert census.max_multiplicity == 2
    assert census.witness_index == 0
    assert oa353_m2.rows[0] == oa353_m2.rows[1] == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("index", [0, 3, 7, 12, 26])
def test_normalize_preserves_strength(oa353_m2, index):
    moved = normalize_to_row(oa353_m2, index)
    assert strength_lambda(moved) == 3
    mult = row_multiplicities(oa353_m2).counts[oa353_m2.rows[index]]
    zero = (0,) * 5
    assert moved.rows[-mult:] == (zero,) * mult
    assert row_multiplicities(moved).counts[zero] == mult


def test_normalize_is_a_column_relabeling(oa43):
    # Every column of the normalized array is a permuted copy of the original
    # column multiset, so symbol frequencies per column are unchanged.
    moved = normalize_to_row(oa43, 5)
    for j in range(oa43.k):
        before = sorted(r[j] for r in oa43.rows)
        after = sorted(r[j] for r in moved.rows)
        assert len(set(before)) == len(set(after))
        assert [before.count(s) for s in range(3)] == [
            after.count(s) for s in range(3)
        ]


def test_symbol_counts_requires_normalized_tail(parity):
    with pytest.raises(ValueError):
        symbol_counts(parity, 2)
    moved = normalize_to_row(parity, 2)
    counts = symbol_counts(moved, 1)
    assert len(counts) == 3
    assert sum(counts) == 3  # k(lambda n - m) = 3(2 - 1)


def test_stack_multiplies_index(parity):
    tripled = stack(parity, 3)
    assert tripled.N == 12
    assert strength_lambda(tripled) == 3
    assert row_multiplicities(tripled).max_multiplicity == 3
    with pytest.raises(ValueError):
        stack(parity, 0)


# ---------------------------------------------------------------------------
# block designs
# ---------------------------------------------------------------------------


def test_fano_is_a_2_design(fano):
    assert verify_bibd(fano) == 1
    assert verify_bibd(fano, t=1) == 3  # replication number r = 3


def test_doubled_fano(doubled_fano):
    assert verify_bibd(doubled_fano) == 2
    census = block_multiplicities(doubled_fano)
    assert census.max_multiplicity == 2
    assert len(census.counts) == 7


def test_broken_design_reports_subset(fano):
    broken = BlockDesign(7, 3, fano.blocks[:-1] + ((0, 1, 2),))
    with pytest.raises(NotADesign) as exc:
        verify_bibd(broken)
    assert len(exc.value.subset) == 2
    assert exc.value.count != exc.value.expected


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_oa_round_trip(oa353_m2):
    assert parse_oa(format_oa(oa353_m2)) == oa353_m2


def test_oa_format_comments(parity):
    text = format_oa(parity, comments=("four runs", "three factors"))
    assert text.startswith("# four runs\n# three factors\n2 3\n")
    assert parse_oa(text) == parity


def test_parse_oa_skips_blank_and_comment_lines():
    text = "\n# header comment\n2 2\n\n0 0\n # indented comment\n0 1\n1 0\n1 1\n"
    a = parse_oa(text)
    assert a.N == 4


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "2\n0 0\n",  # bad header
        "x 2\n0 0\n",  # non-integer header
        "2 2\n",  # no rows
        "2 2\n0\n",  # short row
        "2 2\n0 2\n",  # symbol out of range
        "2 2\n0 a\n",  # non-integer entry
    ],
)
def test_parse_oa_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_oa(text)


@pytest.mark.parametrize(
    "v,k,blocks",
    [
        (4.0, 2, ((0, 1), (2, 3))),
        (4, 2.0, ((0, 1), (2, 3))),
        (4, 2, ((True, 0), (2.0, 3))),
        (4, 2, ((0, 1), ("2", 3))),
    ],
)
def test_block_design_constructor_rejects_non_int_values(v, k, blocks):
    # format_bibd once wrote these as `4.0 2` or `0 True`, which parse_bibd
    # rejects; their int forms round-trip
    with pytest.raises(ValueError):
        BlockDesign(v, k, blocks)
    design = BlockDesign(int(v), int(k), tuple(tuple(map(int, b)) for b in blocks))
    text = format_bibd(design)
    assert text.splitlines()[0] == f"{int(v)} {int(k)}"
    assert parse_bibd(text) == design


def test_bibd_round_trip(fano):
    assert parse_bibd(format_bibd(fano)) == fano
    text = format_bibd(fano, comments=("seven points",))
    assert text.startswith("# seven points\n7 3\n")


@pytest.mark.parametrize(
    "text",
    [
        "7\n0 1 3\n",
        "7 3\n0 1\n",  # short block
        "7 3\n0 1 1\n",  # repeated point
        "7 3\n0 1 7\n",  # point out of range
    ],
)
def test_parse_bibd_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_bibd(text)


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=60), st.text(alphabet="0123 -x#\n\t", max_size=40)))
def test_parsers_raise_only_format_errors(text):
    # arbitrary text, and text made of the format's own characters
    for parse in (parse_oa, parse_bibd):
        try:
            parse(text)
        except FormatError:
            pass


def test_multiplicity_report_rejects_wrong_maximum():
    # explicit raise, so the invariant also holds under python -O
    MultiplicityReport({(0,): 2, (1,): 1}, 2, 0)
    with pytest.raises(ValueError):
        MultiplicityReport({(0,): 2, (1,): 1}, 1, 0)
