"""The acceptance test's streaming pass: bit-identical to the two-pass
definition, outside the LCG tile cache, and bounded in memory."""

import tracemalloc

import numpy as np
import pytest

from repro.core.verify import ACCEPTANCE_THRESHOLD, verify_solution
from repro.lcg.cache import clear_tile_cache, tile_cache
from repro.lcg.matrix import HplAiMatrix
from repro.precision.types import FP64


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_tile_cache()
    yield
    clear_tile_cache()


def _two_pass_reference(n, seed, x):
    """The acceptance test as first written: ``A @ x`` then ``||A||_inf``
    as a second pass, both over the dense FP64 matrix."""
    a = HplAiMatrix(n, seed, use_cache=False).dense()
    b = HplAiMatrix(n, seed).rhs()
    r_inf = float(np.max(np.abs(a @ x - b)))
    a_inf = float(np.max(np.sum(np.abs(a), axis=1)))
    x_inf = float(np.max(np.abs(x)))
    b_inf = float(np.max(np.abs(b)))
    scaled = r_inf / (FP64.eps * (a_inf * x_inf + b_inf) * n)
    return {
        "residual_inf": r_inf, "a_norm_inf": a_inf, "x_norm_inf": x_inf,
        "b_norm_inf": b_inf, "scaled_residual": scaled,
    }


def _near_solution(n, seed):
    m = HplAiMatrix(n, seed, use_cache=False)
    x = np.linalg.solve(m.dense(), m.rhs())
    return x + np.random.default_rng(n).normal(scale=1e-12, size=n)


@pytest.mark.parametrize("n", [64, 300, 1024])
def test_report_matches_two_pass_definition_bitwise(n):
    # 300 rows end in a chunk shorter than the others.
    x = _near_solution(n, seed=11)
    report = verify_solution(x, n=n, seed=11)
    ref = _two_pass_reference(n, 11, x)
    for field, value in ref.items():
        assert getattr(report, field).hex() == value.hex(), field
    assert report.passed == (ref["scaled_residual"] < ACCEPTANCE_THRESHOLD)


def test_cache_is_neither_read_nor_written():
    n, b = 512, 64
    m = HplAiMatrix(n, 5)
    for g in range(n // b):  # the bands a solve would have cached
        m.band(g * b, (g + 1) * b)
    before = tile_cache().stats()
    verify_solution(np.ones(n), n=n, seed=5)
    verify_solution(np.ones(n), matrix=m)
    assert tile_cache().stats() == before


def test_traced_peak_is_a_few_chunks():
    """Memory guard for the accepted path: one pass at N = 2048 holds a
    chunk and its generator scratch, never a copy of A (32 MiB)."""
    n = 2048
    x = np.ones(n)
    tracemalloc.start()
    try:
        verify_solution(x, n=n, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 1024 * 1024, f"traced peak {peak / 2**20:.1f} MiB"
