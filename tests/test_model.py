"""Tests for the analytic performance model and tuner."""

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.errors import ConfigurationError
from repro.machine import FRONTIER, SUMMIT, CommCosts
from repro.model import (
    bcast_time,
    estimate_iteration,
    estimate_run,
    sweep_block_sizes,
    sweep_local_sizes,
    sweep_node_grids,
)
from repro.model.tuner import best_block_size


def _cfg(machine=FRONTIER, nl=3072 * 8, block=3072, p=4, **kw):
    return BenchmarkConfig(
        n=nl * p, block=block, machine=machine, p_rows=p, p_cols=p, **kw
    )


class TestBcastTime:
    def test_single_member_free(self):
        costs = CommCosts(SUMMIT)
        assert bcast_time("bcast", 1e6, 1, costs, SUMMIT.mpi) == 0.0

    def test_grows_with_size_and_members(self):
        costs = CommCosts(FRONTIER)
        t1 = bcast_time("ring2m", 1e6, 8, costs, FRONTIER.mpi)
        t2 = bcast_time("ring2m", 1e7, 8, costs, FRONTIER.mpi)
        t3 = bcast_time("ring2m", 1e6, 64, costs, FRONTIER.mpi)
        assert t2 > t1
        assert t3 > t1

    def test_sharing_slows_broadcast(self):
        costs = CommCosts(FRONTIER)
        t1 = bcast_time("ring1", 1e7, 16, costs, FRONTIER.mpi, sharing=1)
        t4 = bcast_time("ring1", 1e7, 16, costs, FRONTIER.mpi, sharing=4)
        assert t4 > t1

    def test_frontier_rings_beat_flat_tree(self):
        costs = CommCosts(FRONTIER)
        args = (64e6, 172, costs, FRONTIER.mpi)
        assert bcast_time("ring2m", *args) < bcast_time("bcast", *args)

    def test_summit_mature_bcast_beats_rings(self):
        costs = CommCosts(SUMMIT)
        kw = dict(sharing=2, nodes_spanned=27)
        args = (94e6, 54, costs, SUMMIT.mpi)
        assert bcast_time("bcast", *args, **kw) < bcast_time("ring1", *args, **kw)

    def test_ibcast_derated_on_summit(self):
        costs = CommCosts(SUMMIT)
        args = (16e6, 24, costs, SUMMIT.mpi)
        assert bcast_time("ibcast", *args) > bcast_time("ring1", *args)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            bcast_time("gossip", 1e6, 4, CommCosts(SUMMIT), SUMMIT.mpi)


class TestEstimateRun:
    def test_iteration_totals_sum_to_factorization(self):
        cfg = _cfg()
        res = estimate_run(cfg, keep_iterations=True)
        parts = sum(it.total for it in res.iterations)
        # factorization = per-iteration criticals + d2h transfer
        assert res.elapsed_factorization == pytest.approx(
            parts + cfg.machine.gpu_kernels.h2d_time(cfg.local_fp32_bytes),
            rel=1e-9,
        )
        assert res.elapsed == pytest.approx(
            res.elapsed_factorization + res.elapsed_refinement
        )
        # With look-ahead, an iteration's critical time is the max of its
        # streams, never their sum.
        for it in res.iterations:
            assert it.total <= it.getrf + it.diag_bcast + it.trsm + it.cast \
                + it.gemm + it.panel_bcast + 1e-12

    def test_keep_iterations(self):
        cfg = _cfg(p=2)
        res = estimate_run(cfg, keep_iterations=True)
        assert len(res.iterations) == cfg.num_blocks
        # Trailing sizes shrink: GEMM time decreases over iterations.
        gemms = [it.gemm for it in res.iterations]
        assert gemms[0] > gemms[-1]

    def test_pipeline_multiplier_slows_compute_only(self):
        cfg = _cfg()
        fast = estimate_run(cfg, pipeline_multiplier=1.0)
        slow = estimate_run(cfg, pipeline_multiplier=0.9)
        assert slow.elapsed > fast.elapsed
        assert slow.breakdown["gemm"] == pytest.approx(
            fast.breakdown["gemm"] / 0.9
        )

    @pytest.mark.parametrize(
        "kw",
        [
            {"pipeline_multiplier": 0.0},
            {"pipeline_multiplier": -1.0},
            {"global_speed": float("nan")},
            {"global_speed": float("inf")},
            {"pipeline_multiplier": float("inf"), "global_speed": 0.0},
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_unusable_speed(self, kw):
        with pytest.raises(ConfigurationError, match="pipeline_multiplier"):
            estimate_run(_cfg(p=2), **kw)

    @pytest.mark.parametrize("k", [-1, 8, 100])
    def test_iteration_rejects_steps_that_do_not_exist(self, k):
        cfg = _cfg(nl=3072 * 4, p=2)
        assert cfg.num_blocks == 8
        with pytest.raises(ConfigurationError, match="k must be in"):
            estimate_iteration(cfg, CommCosts(FRONTIER), k)

    def test_last_iteration_pays_only_the_panel_chain(self):
        cfg = _cfg(p=2)
        it = estimate_iteration(cfg, CommCosts(FRONTIER), cfg.num_blocks - 1)
        assert it.trsm == it.cast == it.gemm == it.panel_bcast == 0.0
        assert it.total == it.getrf + it.diag_bcast > 0

    def test_scales_to_paper_size_instantly(self):
        import time

        t0 = time.time()
        cfg = BenchmarkConfig(
            n=119808 * 172, block=3072, machine=FRONTIER,
            p_rows=172, p_cols=172, q_rows=4, q_cols=2,
            bcast_algorithm="ring2m",
        )
        res = estimate_run(cfg)
        assert time.time() - t0 < 5.0
        # Headline zone: within 15% of the paper's 2.387 EFLOPS.
        assert res.total_flops_per_s == pytest.approx(2.387e18, rel=0.15)

    def test_summit_achievement_run(self):
        cfg = BenchmarkConfig(
            n=61440 * 162, block=768, machine=SUMMIT,
            p_rows=162, p_cols=162, q_rows=3, q_cols=2,
            bcast_algorithm="bcast",
        )
        res = estimate_run(cfg)
        assert res.total_flops_per_s == pytest.approx(1.411e18, rel=0.15)


class TestCrossValidation:
    """Analytic model vs discrete-event engine at overlapping scales."""

    @pytest.mark.parametrize(
        "machine,nl,block,p,algo",
        [
            (FRONTIER, 3072 * 16, 3072, 4, "ring2m"),
            (FRONTIER, 3072 * 16, 3072, 4, "bcast"),
            (SUMMIT, 768 * 64, 768, 6, "bcast"),
        ],
    )
    def test_model_brackets_engine(self, machine, nl, block, p, algo):
        # The analytic model is the paper's guideline upper bound: it
        # must land above the (more aggressively pipelined) engine but
        # within a factor that keeps it useful for tuning.
        cfg = _cfg(machine=machine, nl=nl, block=block, p=p,
                   bcast_algorithm=algo)
        engine = simulate_run(cfg)
        model = estimate_run(cfg)
        ratio = model.elapsed_factorization / engine.elapsed_factorization
        assert 0.8 < ratio < 1.8

    def test_model_preserves_algorithm_ordering_frontier(self):
        kw = dict(machine=FRONTIER, nl=3072 * 8, block=3072, p=8,
                  q_rows=2, q_cols=4)
        times = {}
        for algo in ("bcast", "ring2m"):
            times[algo] = {
                "engine": simulate_run(
                    _cfg(**kw, bcast_algorithm=algo)
                ).elapsed_factorization,
                "model": estimate_run(
                    _cfg(**kw, bcast_algorithm=algo)
                ).elapsed_factorization,
            }
        eng_order = times["ring2m"]["engine"] < times["bcast"]["engine"]
        mod_order = times["ring2m"]["model"] < times["bcast"]["model"]
        assert eng_order == mod_order


class TestTuner:
    def test_block_sweep_shapes(self):
        rows = sweep_block_sizes(
            FRONTIER, n_local=61440, p=4,
            blocks=[512, 1024, 2048, 3072],
        )
        assert [r["B"] for r in rows] == [512, 1024, 2048, 3072]
        assert all(r["gflops_per_gcd"] > 0 for r in rows)

    def test_optimal_b_large_on_frontier_small_on_summit(self):
        # Finding 4 / Fig 4: the tuner picks ~3072 for MI250X and
        # 768-1024 for V100.
        blocks = [256, 512, 768, 1024, 1536, 3072]
        b_frontier = best_block_size(
            FRONTIER, n_local=119808 // 2, p=8, blocks=[512, 1024, 1536, 3072],
            q_rows=2, q_cols=4, bcast_algorithm="ring2m",
        )
        b_summit = best_block_size(
            SUMMIT, n_local=61440 // 2, p=12, blocks=blocks,
            q_rows=3, q_cols=2, bcast_algorithm="bcast",
        )
        assert b_frontier >= 1536
        assert b_summit <= 1024

    def test_local_size_sweep_lda_effect(self):
        rows = sweep_local_sizes(
            FRONTIER, block=3072, p=4, locals_=[119808, 122880]
        )
        by_nl = {r["N_L"]: r["gflops_per_gcd"] for r in rows}
        assert by_nl[119808] > by_nl[122880]

    def test_node_grid_sweep(self):
        rows = sweep_node_grids(
            FRONTIER, n_local=3072 * 8, block=3072, p=8,
            bcast_algorithm="ring2m",
        )
        grids = {r["grid"] for r in rows}
        assert "8x1" in grids and "2x4" in grids
        # Balanced grids should not be the worst choice (Finding 8).
        ranked = sorted(rows, key=lambda r: -r["gflops_per_gcd"])
        assert ranked[0]["grid"] != "1x8"

    def test_sweeps_reject_impossible_inputs(self):
        with pytest.raises(ConfigurationError):
            sweep_block_sizes(FRONTIER, n_local=1000, p=2, blocks=[512])
        with pytest.raises(ConfigurationError):
            sweep_local_sizes(FRONTIER, block=3072, p=2, locals_=[1000])
