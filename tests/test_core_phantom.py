"""Phantom (timing-only) runs: scale behaviour and exact/phantom parity."""

import numpy as np
import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import run_benchmark, simulate_run
from repro.machine import FRONTIER, SUMMIT


def _cfg(machine=FRONTIER, n=3072 * 16, block=3072, pr=4, pc=4, **kw):
    return BenchmarkConfig(
        n=n, block=block, machine=machine, p_rows=pr, p_cols=pc, **kw
    )


class TestPhantomBasics:
    def test_runs_at_scale_without_data(self):
        cfg = _cfg()
        res = simulate_run(cfg)
        assert res.exact is False
        assert res.x is None
        assert res.elapsed > 0
        assert res.gflops_per_gcd > 0

    def test_phantom_matches_exact_timing(self):
        # Same programs, same timing model: an exact run and a phantom
        # run of the same configuration must report identical virtual
        # times (the phantom's IR depth is pinned to the exact run's).
        kw = dict(n=128, block=16, pr=2, pc=2, machine=SUMMIT)
        exact = run_benchmark(
            _cfg(**kw, ir_fixed_iters=1), exact=True
        )
        phantom = simulate_run(_cfg(**kw, ir_fixed_iters=exact.ir_iterations))
        assert phantom.elapsed_factorization == pytest.approx(
            exact.elapsed_factorization, rel=1e-9
        )
        assert phantom.elapsed == pytest.approx(exact.elapsed, rel=1e-9)

    def test_more_gcds_same_local_size_scales_n(self):
        # Memory-size weak scaling: constant N_L, growing grid.
        nl = 3072 * 4
        small = simulate_run(_cfg(n=nl * 2, pr=2, pc=2))
        large = simulate_run(_cfg(n=nl * 4, pr=4, pc=4))
        # Wall time grows (more factorization steps), but per-GCD rate
        # stays within a band (weak scaling).
        assert large.elapsed > small.elapsed
        assert large.gflops_per_gcd > 0.5 * small.gflops_per_gcd


class TestTuningEffectsAtScale:
    """The paper's findings, reproduced as orderings on simulated runs."""

    def test_block_size_matters_frontier(self):
        # Fig 4 / Finding 4: B=3072 beats small B on MI250X at a local
        # problem size where GEMM dominates (N_L = 61440).
        n = 61440 * 2  # divisible by both 512*2 and 3072*2
        slow = simulate_run(_cfg(n=n, block=512, pr=2, pc=2))
        fast = simulate_run(_cfg(n=n, block=3072, pr=2, pc=2))
        # The optimum moves with scale (Fig 4 is at 1024 GCDs — covered
        # by the analytic-model benches); at this size the large block
        # must already beat the small one on factorization time.
        assert fast.elapsed_factorization < slow.elapsed_factorization

    def test_gpu_aware_mpi_helps_frontier(self):
        # Finding 7: 40-57% improvement from GPU-aware MPI.
        base = dict(n=3072 * 16, block=3072, pr=4, pc=4, machine=FRONTIER)
        aware = simulate_run(_cfg(**base, gpu_aware=True))
        staged = simulate_run(_cfg(**base, gpu_aware=False))
        assert aware.elapsed < staged.elapsed

    def test_port_binding_helps_summit(self):
        # Finding 5: 35.6-59.7% improvement on Summit.
        base = dict(n=768 * 48, block=768, pr=6, pc=6, machine=SUMMIT)
        bound = simulate_run(_cfg(**base, port_binding=True))
        unbound = simulate_run(_cfg(**base, port_binding=False))
        assert bound.elapsed < unbound.elapsed

    def test_lookahead_helps(self):
        base = dict(n=3072 * 24, block=3072, pr=6, pc=4, machine=FRONTIER)
        with_la = simulate_run(_cfg(**base, lookahead=True))
        without = simulate_run(_cfg(**base, lookahead=False))
        assert with_la.elapsed < without.elapsed

    def test_ring2m_beats_bcast_on_frontier(self):
        # Finding 6.
        base = dict(n=3072 * 24, block=3072, pr=8, pc=8, machine=FRONTIER,
                    q_rows=2, q_cols=4)
        ring = simulate_run(_cfg(**base, bcast_algorithm="ring2m"))
        tree = simulate_run(_cfg(**base, bcast_algorithm="bcast"))
        assert ring.elapsed < tree.elapsed

    def test_bcast_at_least_competitive_on_summit(self):
        base = dict(n=768 * 54, block=768, pr=9, pc=6, machine=SUMMIT,
                    q_rows=3, q_cols=2)
        ring = simulate_run(_cfg(**base, bcast_algorithm="ring1"))
        tree = simulate_run(_cfg(**base, bcast_algorithm="bcast"))
        assert tree.elapsed < ring.elapsed * 1.1

    def test_slow_gcd_stalls_pipeline(self):
        # Section VI-B: a single slow GCD worsens the whole run.
        cfg = _cfg(n=3072 * 8, pr=2, pc=2)
        mult = np.ones(4)
        clean = simulate_run(cfg, rate_multipliers=mult)
        mult_slow = mult.copy()
        mult_slow[3] = 0.9
        slowed = simulate_run(_cfg(n=3072 * 8, pr=2, pc=2),
                              rate_multipliers=mult_slow)
        assert slowed.elapsed > clean.elapsed * 1.02

    def test_global_speed_scales_compute(self):
        cfg = _cfg(n=3072 * 8, pr=2, pc=2)
        warm = simulate_run(cfg, global_speed=1.0)
        cold = simulate_run(_cfg(n=3072 * 8, pr=2, pc=2), global_speed=0.8)
        assert cold.elapsed > warm.elapsed

    def test_lda_pathology_hurts(self):
        # Fig 7 / Section V-D: the paper's exact contrast — N_L=122880
        # (LDA divisible by 8192) delivers *worse per-GCD throughput*
        # than the slightly smaller N_L=119808.
        good = simulate_run(_cfg(n=119808 * 2, block=3072, pr=2, pc=2))
        bad = simulate_run(_cfg(n=122880 * 2, block=3072, pr=2, pc=2))
        assert good.gflops_per_gcd > bad.gflops_per_gcd


class TestEngineScale:
    def test_64_rank_run_completes_quickly(self):
        cfg = _cfg(n=3072 * 8 * 2, pr=8, pc=8, q_rows=2, q_cols=4)
        res = simulate_run(cfg)
        assert res.engine_events > 0
        assert len(res.stats) == 64

    def test_transfers_count_every_charged_segment(self):
        # Each segment of each routed-broadcast edge is one message, so
        # the engine's self-metric equals the per-rank traffic counters.
        for bcast in ("bcast", "ring2m"):
            res = simulate_run(_cfg(machine=SUMMIT, bcast_algorithm=bcast))
            assert res.engine_transfers == sum(
                st.messages_sent for st in res.stats
            )
            assert res.engine_transfers > res.engine_events

    def test_plan_memo_stays_bounded(self, monkeypatch):
        # An unbounded per-executor memo holds one StepPlan per
        # (rank, step) for the whole run — measurable peak RSS at 12x12.
        import repro.core.driver as driver

        executors = []

        class Recording(driver.PhantomExecutor):
            def __init__(self, *args):
                super().__init__(*args)
                executors.append(self)

        monkeypatch.setattr(driver, "PhantomExecutor", Recording)
        cfg = _cfg(machine=SUMMIT, n=1024 * 12, block=512, pr=12, pc=12,
                   bcast_algorithm="ring2m")
        simulate_run(cfg)
        assert len(executors) == 144
        assert all(len(ex._plans) == 2 for ex in executors)
