"""Tests for the on-the-fly HPL-AI matrix (repro.lcg.matrix)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.lcg.matrix import FP16_SAFE_N, HplAiMatrix


@pytest.fixture
def mat64():
    return HplAiMatrix(n=64, seed=2022)


class TestEntryConsistency:
    def test_entry_matches_block(self, mat64):
        dense = mat64.dense()
        for i, j in [(0, 0), (5, 7), (63, 0), (31, 31), (12, 60)]:
            assert mat64.entry(i, j) == dense[i, j]

    def test_block_matches_dense_slices(self, mat64):
        dense = mat64.dense()
        blk = mat64.block(8, 24, 40, 64)
        np.testing.assert_array_equal(blk, dense[8:24, 40:64])

    def test_rows_cols_helpers(self, mat64):
        dense = mat64.dense()
        np.testing.assert_array_equal(mat64.rows(3, 9), dense[3:9, :])
        np.testing.assert_array_equal(mat64.cols(10, 12), dense[:, 10:12])

    def test_diagonal_helper(self, mat64):
        dense = mat64.dense()
        np.testing.assert_array_equal(mat64.diagonal(), np.diag(dense))
        np.testing.assert_array_equal(mat64.diagonal(5, 20), np.diag(dense)[5:20])

    @given(st.integers(2, 40), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_blocks_tile_consistently(self, n, seed):
        # Regenerating disjoint blocks must agree with one big block —
        # this is the property the distributed fill relies on.
        m = HplAiMatrix(n=n, seed=seed)
        full = m.dense()
        h = n // 2
        top = m.block(0, h, 0, n)
        bottom = m.block(h, n, 0, n)
        np.testing.assert_array_equal(np.vstack([top, bottom]), full)

    def test_same_seed_same_matrix(self):
        a = HplAiMatrix(17, seed=5).dense()
        b = HplAiMatrix(17, seed=5).dense()
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_matrix(self):
        a = HplAiMatrix(17, seed=5).dense()
        b = HplAiMatrix(17, seed=6).dense()
        assert not np.array_equal(a, b)


class TestConditioning:
    def test_strict_diagonal_dominance(self):
        m = HplAiMatrix(n=200, seed=1)
        dense = m.dense()
        offdiag_sums = np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense))
        margin = np.abs(np.diag(dense)) - offdiag_sums
        assert margin.min() > 0
        assert margin.min() >= m.dominance_margin() - 1e-12

    def test_dominance_margin_positive_even_for_huge_n(self):
        assert HplAiMatrix(n=20_606_976).dominance_margin() > 0.2

    def test_well_conditioned(self):
        dense = HplAiMatrix(n=128, seed=3).dense()
        assert np.linalg.cond(dense) < 50

    def test_unpivoted_lu_is_stable(self):
        # The whole point of the construction: scipy's unpivoted-equivalent
        # check via explicit elimination stays bounded.
        dense = HplAiMatrix(n=96, seed=9).dense()
        x_true = np.ones(96)
        b = dense @ x_true
        x = np.linalg.solve(dense, b)
        assert np.max(np.abs(x - x_true)) < 1e-10


class TestRhsAndLimits:
    def test_rhs_deterministic_and_in_range(self, mat64):
        b1 = mat64.rhs()
        b2 = HplAiMatrix(64, seed=2022).rhs()
        np.testing.assert_array_equal(b1, b2)
        assert b1.shape == (64,)
        assert np.all((b1 >= -0.5) & (b1 < 0.5))

    def test_rhs_independent_of_matrix_tail(self, mat64):
        # b must not overlap the matrix's LCG positions.
        dense_last = mat64.entry(63, 63)
        _ = mat64.rhs()
        assert mat64.entry(63, 63) == dense_last

    def test_fp16_safety_check(self):
        HplAiMatrix(FP16_SAFE_N).check_fp16_safe()
        with pytest.raises(ConfigurationError):
            HplAiMatrix(FP16_SAFE_N + 1).check_fp16_safe()

    def test_index_validation(self, mat64):
        with pytest.raises(ConfigurationError):
            mat64.entry(64, 0)
        with pytest.raises(ConfigurationError):
            mat64.block(0, 65, 0, 1)
        with pytest.raises(ConfigurationError):
            mat64.block(5, 3, 0, 1)

    def test_block_dtype(self, mat64):
        assert mat64.block(0, 4, 0, 4, dtype=np.float32).dtype == np.float32

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_empty_ranges(self, use_cache):
        m = HplAiMatrix(n=64, seed=2022, use_cache=use_cache)
        for _ in range(2):  # second pass reads the cached empty tiles
            assert m.block(7, 7, 3, 40).shape == (0, 37)
            assert m.block(3, 40, 7, 7).shape == (37, 0)
            assert m.block(64, 64, 64, 64).shape == (0, 0)
        assert m.diagonal(9, 9).shape == (0,)
