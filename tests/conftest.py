import itertools
import pathlib

import pytest
from hypothesis import settings

from oakit import BlockDesign, OrthogonalArray, generate_linear_oa, parse_oa, stack

DATA = pathlib.Path(__file__).parent / "data"

# Property tests draw the same examples on every run and are never failed
# for being slow on a loaded host; no example database is written.
settings.register_profile("oakit", derandomize=True, deadline=None, database=None)
settings.load_profile("oakit")


@pytest.fixture
def parity():
    # OA of index 1 on 2 symbols with 3 columns: the parity-check array.
    return generate_linear_oa(2, 3)


@pytest.fixture
def stacked_parity(parity):
    return stack(parity, 2)


@pytest.fixture
def oa43():
    return generate_linear_oa(3, 4)


@pytest.fixture
def oa65():
    return generate_linear_oa(5, 6)


@pytest.fixture
def oa242():
    # Index-2 array on 2 symbols: columns x, y, z, x+y+z over all of Z_2^3.
    rows = [
        (x, y, z, (x + y + z) % 2)
        for x, y, z in itertools.product(range(2), repeat=3)
    ]
    return OrthogonalArray(2, 4, tuple(sorted(rows)))


@pytest.fixture
def fano():
    # Blocks generated by the planar difference set {0, 1, 3} mod 7.
    blocks = tuple(
        tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
    )
    return BlockDesign(7, 3, blocks)


@pytest.fixture
def doubled_fano(fano):
    return BlockDesign(7, 3, fano.blocks + fano.blocks)


@pytest.fixture
def oa353_m2():
    # Frozen witness: index-3 array on 3 symbols, 5 columns, one doubled row.
    return parse_oa((DATA / "oa353_m2.txt").read_text())
