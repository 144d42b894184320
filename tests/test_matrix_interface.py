"""Every implementer of the exact path's matrix interface agrees on
``band(r0, r1)``: bitwise ``block(r0, r1, 0, n)``, and read-only."""

import numpy as np
import pytest

from repro.analyze.schedule.extract import _PivotingMatrix
from repro.lcg.cache import clear_tile_cache
from repro.lcg.matrix import HplAiMatrix
from tests.test_hpl_distributed import DenseMatrix, _random_general

N = 48


def _dense():
    a, b = _random_general(N, seed=4)
    return DenseMatrix(a, b)


IMPLEMENTERS = {
    "lcg-cached": lambda: HplAiMatrix(N, 9),
    "lcg-uncached": lambda: HplAiMatrix(N, 9, use_cache=False),
    "pivoting": lambda: _PivotingMatrix(N, 9),
    "dense-adapter": _dense,
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_tile_cache()
    yield
    clear_tile_cache()


@pytest.mark.parametrize("kind", sorted(IMPLEMENTERS))
@pytest.mark.parametrize("rows", [(0, 8), (16, 40), (40, N), (5, 5)])
def test_band_is_the_read_only_full_width_block(kind, rows):
    m = IMPLEMENTERS[kind]()
    r0, r1 = rows
    band = m.band(r0, r1)
    assert band.dtype == np.float64
    assert not band.flags.writeable
    assert band.tobytes() == m.block(r0, r1, 0, N).tobytes()
    assert band.shape == (r1 - r0, N)


@pytest.mark.parametrize("kind", sorted(IMPLEMENTERS))
def test_block_after_band_is_a_private_writable_copy(kind):
    m = IMPLEMENTERS[kind]()
    m.band(0, 8)
    blk = m.block(0, 8, 0, N)
    assert blk.flags.writeable
    blk[0, 0] = 1e9
    assert m.band(0, 8)[0, 0] != 1e9
