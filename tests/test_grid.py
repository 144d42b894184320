"""Tests for block-cyclic distribution, process grid, and node grid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RankError
from repro.grid import BlockCyclicDim, NodeGrid, ProcessGrid, node_comm_volume


class TestBlockCyclicDim:
    def test_basic_layout(self):
        d = BlockCyclicDim(n=24, b=2, p=3)
        assert d.num_blocks == 12
        assert d.blocks_per_proc == 4
        assert d.local_n == 8

    def test_requires_exact_divisibility(self):
        with pytest.raises(ConfigurationError):
            BlockCyclicDim(n=25, b=2, p=3)

    def test_owner_round_robin(self):
        d = BlockCyclicDim(n=24, b=2, p=3)
        assert [d.owner(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_block_roundtrip(self):
        d = BlockCyclicDim(n=60, b=5, p=4)
        for blk in range(d.num_blocks):
            proc = d.owner(blk)
            loc = d.local_block(blk)
            assert d.global_block(proc, loc) == blk

    @given(
        st.integers(1, 6),  # p
        st.integers(1, 8),  # b
        st.integers(1, 10),  # blocks per proc
    )
    @settings(max_examples=50, deadline=None)
    def test_element_map_is_bijection(self, p, b, k):
        d = BlockCyclicDim(n=p * b * k, b=b, p=p)
        seen = set()
        for i in range(d.n):
            proc = d.owner_of_index(i)
            loc = d.local_index(i)
            assert d.global_index(proc, loc) == i
            seen.add((proc, loc))
        assert len(seen) == d.n  # bijection: no two globals share a slot

    def test_trailing_block_count(self):
        d = BlockCyclicDim(n=48, b=4, p=3)  # 12 blocks, 4 per proc
        # At k=0 everyone holds all their blocks.
        for proc in range(3):
            assert d.local_blocks_at_or_after(proc, 0) == 4
        # Global blocks 0..11; owner(k)=k%3. After block 5, proc 0 owns
        # blocks {6, 9}, proc 1 owns {7, 10}, proc 2 owns {5, 8, 11}.
        assert d.local_blocks_at_or_after(0, 5) == 2
        assert d.local_blocks_at_or_after(1, 5) == 2
        assert d.local_blocks_at_or_after(2, 5) == 3
        assert d.local_blocks_at_or_after(0, 12) == 0

    def test_trailing_counts_sum_to_remaining(self):
        d = BlockCyclicDim(n=120, b=4, p=5)
        for k in range(d.num_blocks + 1):
            total = sum(d.local_blocks_at_or_after(p, k) for p in range(5))
            assert total == d.num_blocks - min(k, d.num_blocks)


class TestProcessGrid:
    def test_col_major_numbering(self):
        g = ProcessGrid(3, 2, order="col")
        # rank 0..2 walk down the first column.
        assert [g.coords_of(r) for r in range(6)] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
        ]

    def test_row_major_numbering(self):
        g = ProcessGrid(2, 3, order="row")
        assert g.coords_of(4) == (1, 1)

    def test_rank_roundtrip(self):
        g = ProcessGrid(4, 5)
        for rank in range(g.size):
            assert g.rank_of(*g.coords_of(rank)) == rank

    def test_diagonal_owner(self):
        g = ProcessGrid(3, 4)
        assert g.diagonal_owner(0) == (0, 0)
        assert g.diagonal_owner(7) == (1, 3)

    def test_row_col_members(self):
        g = ProcessGrid(2, 3)
        assert len(g.row_members(0)) == 3
        assert len(g.col_members(1)) == 2
        # Row and column of the diagonal owner intersect at that owner.
        pr, pc = g.diagonal_owner(4)
        rank = g.rank_of(pr, pc)
        assert rank in g.row_members(pr)
        assert rank in g.col_members(pc)

    @pytest.mark.parametrize("order", ["col", "row"])
    def test_members_are_rank_of_in_grid_order(self, order):
        g = ProcessGrid(3, 4, order=order)
        for r in range(3):
            assert g.row_members(r) == tuple(g.rank_of(r, c) for c in range(4))
        for c in range(4):
            assert g.col_members(c) == tuple(g.rank_of(r, c) for r in range(3))
        # Built once per grid, and invisible to equality and hashing.
        assert g.row_members(1) is g.row_members(1)
        assert g == ProcessGrid(3, 4, order=order)
        assert hash(g) == hash(ProcessGrid(3, 4, order=order))

    def test_all_ranks_is_one_tuple_per_grid(self):
        g = ProcessGrid(17, 19)
        assert g.all_ranks == tuple(range(17 * 19))
        assert g.all_ranks is g.all_ranks

    def test_rank_programs_share_the_all_ranks_tuple(self):
        from repro.core.config import BenchmarkConfig
        from repro.core.driver import rank_factory
        from repro.core.executors import PhantomExecutor
        from repro.machine import SUMMIT
        from repro.simulate import Barrier

        cfg = BenchmarkConfig(n=512, block=128, machine=SUMMIT,
                              p_rows=2, p_cols=2)
        factory = rank_factory(cfg, PhantomExecutor, None)
        barriers = []
        for rank in range(cfg.num_ranks):
            program = factory(rank)
            op = next(program)
            while not isinstance(op, Barrier):
                op = program.send(None)
            barriers.append(op)
        assert all(b.members is cfg.grid.all_ranks for b in barriers)

    def test_validation(self):
        with pytest.raises(RankError):
            ProcessGrid(2, 2).coords_of(4)
        with pytest.raises(RankError):
            ProcessGrid(2, 2).rank_of(2, 0)
        with pytest.raises(RankError):
            ProcessGrid(2, 2).row_members(2)
        with pytest.raises(RankError):
            ProcessGrid(2, 2).col_members(-1)
        with pytest.raises(ConfigurationError):
            ProcessGrid(2, 2, order="diag")


class TestNodeGrid:
    def test_summit_3x2(self):
        grid = ProcessGrid(6, 6)
        ng = NodeGrid(grid, q_rows=3, q_cols=2)
        assert ng.gcds_per_node == 6
        assert ng.k_rows == 2 and ng.k_cols == 3
        assert ng.num_nodes == 6

    def test_column_major_is_qx1(self):
        # Column-major placement with Q ranks/node == NodeGrid(Q, 1).
        grid = ProcessGrid(6, 2, order="col")
        ng = NodeGrid(grid, q_rows=6, q_cols=1)
        for rank in range(grid.size):
            assert ng.node_of_rank(rank) == rank // 6

    def test_every_node_gets_q_ranks(self):
        grid = ProcessGrid(8, 8)
        ng = NodeGrid(grid, q_rows=2, q_cols=4)
        from collections import Counter

        counts = Counter(ng.node_of_rank(r) for r in range(grid.size))
        assert set(counts.values()) == {8}
        assert len(counts) == ng.num_nodes

    def test_gcd_index_unique_within_node(self):
        grid = ProcessGrid(4, 4)
        ng = NodeGrid(grid, q_rows=2, q_cols=2)
        seen = {}
        for rank in range(grid.size):
            key = (ng.node_of_rank(rank), ng.gcd_of_rank(rank))
            assert key not in seen
            seen[key] = rank

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            NodeGrid(ProcessGrid(5, 4), q_rows=2, q_cols=2)

    def test_nic_sharing(self):
        ng = NodeGrid(ProcessGrid(8, 8), q_rows=2, q_cols=4)
        assert ng.nic_sharing() == (2, 4)

    def test_same_node(self):
        grid = ProcessGrid(4, 4)
        ng = NodeGrid(grid, q_rows=4, q_cols=1)
        assert ng.same_node(0, 3)
        assert not ng.same_node(0, 4)


class TestCommVolume:
    def test_eq4_balanced_grid_minimizes_total(self):
        # For Q=8 on a 16x16 grid, balanced Q_r x Q_c should minimize
        # 2N^2/K_r + 2N^2/K_c among the options (paper: K_r ~ K_c best).
        grid = ProcessGrid(16, 16)
        n = 10_000
        totals = {}
        for qr, qc in [(8, 1), (4, 2), (2, 4), (1, 8)]:
            ng = NodeGrid(grid, q_rows=qr, q_cols=qc)
            row, col = node_comm_volume(n, ng)
            totals[(qr, qc)] = row + col
        # (4,2) and (2,4) tie and beat the skewed layouts.
        assert totals[(4, 2)] == totals[(2, 4)]
        assert totals[(4, 2)] < totals[(8, 1)]
        assert totals[(4, 2)] < totals[(1, 8)]

    def test_eq4_values(self):
        grid = ProcessGrid(8, 8)
        ng = NodeGrid(grid, q_rows=2, q_cols=2)  # K = 4x4
        row, col = node_comm_volume(1000, ng)
        assert row == pytest.approx(2 * 1000**2 / 4)
        assert col == pytest.approx(2 * 1000**2 / 4)


class TestNodeGridRender:
    def test_fig2_style_rendering(self):
        # Fig 2's 3x2 Summit example: tiles of the same letter.
        ng = NodeGrid(ProcessGrid(6, 4), q_rows=3, q_cols=2)
        out = ng.render()
        assert "NodeGrid(Q=3x2" in out
        lines = [l for l in out.splitlines() if l.startswith("r")]
        assert len(lines) == 6
        # Rows 0-2, cols 0-1 share node 'A'.
        assert lines[0].split()[1] == lines[2].split()[1] == "A"
        # Column 2 starts a different node tile.
        assert lines[0].split()[3] != "A"

    def test_truncation(self):
        ng = NodeGrid(ProcessGrid(32, 32), q_rows=2, q_cols=4)
        out = ng.render(max_dim=8)
        assert "..." in out


class TestFp64MachineRatio:
    def test_frontier_8x_summit_double_precision(self):
        # Paper Section II: "Frontier will be 8x more powerful than
        # Summit in double precision" (rough peak accounting).
        from repro.machine import FRONTIER, SUMMIT

        f = FRONTIER.node.gpu.fp64_tflops * FRONTIER.total_gcds
        s = SUMMIT.node.gpu.fp64_tflops * SUMMIT.total_gcds
        assert 7.0 < f / s < 11.0
