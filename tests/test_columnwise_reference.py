"""The column-wise array work against references written entry by entry.

`strength_lambda`, `normalize_to_row`, `root_vector_family`, the cwc
vectors and the Gram lemma check build their results from whole columns.
Each reference below is the plain per-row loop that states the definition;
results, exception types, attributes and messages must match it exactly.
"""

import itertools
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oakit.certificates as certificates
from oakit import (
    LemmaViolated,
    NonintegralIndex,
    NotAnOA,
    OrthogonalArray,
    extract_cwc,
    gram_certificate,
    generate_linear_oa,
    normalize_repeated_row,
    normalize_to_row,
    parse_oa,
    root_vector_family,
    stack,
    strength_lambda,
)
from forgeries import forged

DATA = pathlib.Path(__file__).parent / "data"

PARITY = generate_linear_oa(2, 3)
OA43 = generate_linear_oa(3, 4)


def sum_code(n):
    """All of Z_n^3 with the column x+y+z appended: strength 3, index 1."""
    rows = (r + (sum(r) % n,) for r in itertools.product(range(n), repeat=3))
    return OrthogonalArray(n, 4, tuple(rows))


BASES = {
    "parity": PARITY,
    "stacked_parity": stack(PARITY, 2),
    "oa43": OA43,
    "stacked_oa43": stack(OA43, 3),
    "oa65": generate_linear_oa(5, 6),
    "oa353_m2": parse_oa((DATA / "oa353_m2.txt").read_text()),
    "sum_code_2": sum_code(2),
    "sum_code_3": sum_code(3),
}

# (array, m) pairs with a row of multiplicity at least m, for the cwc vectors
CLAIMS = [
    (BASES["parity"], 1),
    (BASES["stacked_parity"], 2),
    (BASES["oa43"], 1),
    (BASES["stacked_oa43"], 3),
    (BASES["oa65"], 1),
    (BASES["oa353_m2"], 2),
]


# ---------------------------------------------------------------------------
# References: one row, one entry at a time.
# ---------------------------------------------------------------------------


def reference_strength_lambda(array, t):
    if array.N % array.n**t:
        raise NonintegralIndex(array.N, array.n, t)
    lam = array.N // array.n**t
    for cols in itertools.combinations(range(array.k), t):
        freq = Counter(tuple(row[c] for c in cols) for row in array.rows)
        for tup in itertools.product(range(array.n), repeat=t):
            if freq[tup] != lam:
                raise NotAnOA(cols, tup, freq[tup], lam)
    return lam


def reference_normalize_to_row(array, index):
    target = array.rows[index]

    def relabel(e, j):
        if e == target[j]:
            return 0
        if e == 0:
            return target[j]
        return e

    rows = [tuple(relabel(e, j) for j, e in enumerate(row)) for row in array.rows]
    zero = tuple([0] * array.k)
    kept = [r for r in rows if r != zero]
    moved = [r for r in rows if r == zero]
    return OrthogonalArray(array.n, array.k, tuple(kept + moved))


def reference_root_vectors(array):
    n = array.n
    labels = ["C0"]
    vectors = [tuple([0] * array.N)]
    for j in range(array.k):
        for mult in range(1, n):
            labels.append(f"{mult}C{j + 1}")
            vectors.append(tuple((mult * row[j]) % n for row in array.rows))
    return tuple(labels), tuple(vectors)


def reference_cwc_vectors(array, m):
    kept = array.rows[: array.N - m]
    return tuple(tuple(1 if row[j] == 0 else 0 for row in kept) for j in range(array.k))


def reference_gram_mismatches(array):
    """(count, first message) of the Gram entries off their predicted value."""
    n, k = array.n, array.k
    lam = array.N // (n * n)
    nk = n * k
    gram = [[lam if p // n == q // n else 0 for q in range(nk)] + [lam] for p in range(nk)]
    gram.append([lam] * nk + [k * lam])
    for row in array.rows:
        points = [j * n + row[j] for j in range(k)]
        for a in points:
            for b in points:
                gram[a][b] += 1

    def expected(p, q):
        if p == q == nk:
            return k * lam
        return lam * (n + 1) if p == q else lam

    bad = [(p, q) for p in range(nk + 1) for q in range(nk + 1) if gram[p][q] != expected(p, q)]
    if not bad:
        return 0, None
    p, q = bad[0]
    return len(bad), f"Gram entry {(p, q)}: got {gram[p][q]}, expected {expected(p, q)}"


def outcome(strength, array, t):
    """The index, or the type, message and attributes of the raised error."""
    try:
        return strength(array, t)
    except (NotAnOA, NonintegralIndex) as exc:
        return type(exc), str(exc), exc.args, vars(exc)


# ---------------------------------------------------------------------------
# strength_lambda
# ---------------------------------------------------------------------------


@st.composite
def small_arrays(draw):
    """A single-cell forgery of a base (the base itself when the symbol stays), or random rows."""
    if draw(st.booleans()):
        base = BASES[draw(st.sampled_from(sorted(BASES)))]
        i = draw(st.integers(0, base.N - 1), label="row")
        j = draw(st.integers(0, base.k - 1), label="column")
        return forged(base, i, j, draw(st.integers(0, base.n - 1), label="symbol"))
    n = draw(st.integers(2, 3), label="n")
    k = draw(st.integers(3, 4), label="k")
    N = draw(st.sampled_from([n * n, 2 * n * n, n**3, n * n + 1]), label="N")
    row = st.tuples(*[st.integers(0, n - 1)] * k)
    return OrthogonalArray(n, k, tuple(draw(st.lists(row, min_size=N, max_size=N))))


@settings(max_examples=300)
@given(array=small_arrays(), t=st.sampled_from([2, 3]))
def test_strength_lambda_matches_the_per_row_reference(array, t):
    assert outcome(strength_lambda, array, t) == outcome(reference_strength_lambda, array, t)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("base", sorted(BASES))
def test_strength_lambda_matches_on_every_forgery_of_a_base(base, t):
    array = BASES[base]
    assert outcome(strength_lambda, array, t) == outcome(reference_strength_lambda, array, t)
    if array.N > 27:
        return
    for i, j, symbol in itertools.product(range(array.N), range(array.k), range(array.n)):
        fake = forged(array, i, j, symbol)
        assert outcome(strength_lambda, fake, t) == outcome(reference_strength_lambda, fake, t)


# ---------------------------------------------------------------------------
# normalize_to_row, root vectors, cwc vectors, Gram lemma
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base", sorted(BASES))
def test_normalize_to_row_matches_at_every_row(base):
    array = BASES[base]
    for index in range(array.N):
        assert normalize_to_row(array, index) == reference_normalize_to_row(array, index)
    fake = forged(array, 0, 1, (array.rows[0][1] + 1) % array.n)
    for index in range(array.N):
        assert normalize_to_row(fake, index) == reference_normalize_to_row(fake, index)


@pytest.mark.parametrize("base", sorted(BASES))
def test_root_vector_family_matches(base):
    array = BASES[base]
    for candidate in (array, forged(array, array.N - 1, 0, (array.rows[-1][0] + 1) % array.n)):
        family = root_vector_family(candidate)
        assert (family.labels, family.vectors) == reference_root_vectors(candidate)
        assert (family.n, family.k, family.N) == (candidate.n, candidate.k, candidate.N)


@pytest.mark.parametrize("array,m", CLAIMS, ids=[f"{a.n}-{a.k}-{a.N}-m{m}" for a, m in CLAIMS])
def test_cwc_vectors_match_and_stay_ints(array, m):
    normalized = normalize_repeated_row(array, m)
    expected = reference_cwc_vectors(normalized, m)
    for vectors in (certificates._cwc_vectors(normalized, m), extract_cwc(normalized, m).vectors):
        assert vectors == expected
        assert {type(e) for vec in vectors for e in vec} == {int}


@pytest.mark.parametrize("base", ["parity", "stacked_parity", "oa43", "oa353_m2"])
def test_gram_lemma_matches_on_every_forgery(base):
    array = BASES[base]
    for i, j in itertools.product(range(array.N), range(array.k)):
        fake = forged(array, i, j, (array.rows[i][j] + 1) % array.n)
        count, message = reference_gram_mismatches(fake)
        with pytest.raises(LemmaViolated) as info:
            gram_certificate(fake)
        assert str(info.value) == message
        assert info.value.report.checks[0].lhs == str(count)
