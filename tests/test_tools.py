"""Tests for the operational tooling (slow-node scan, warm-up, monitor)."""

import numpy as np
import pytest

from repro.core.config import BenchmarkConfig
from repro.errors import ConfigurationError, EarlyTerminationError
from repro.machine import FRONTIER, SUMMIT, GcdFleet
from repro.tools import (
    MiniBenchmark,
    PowerModel,
    ProgressMonitor,
    plan_warmup,
    project_run_series,
    scan_fleet,
)


class TestMiniBenchmark:
    def test_nominal_positive_and_deterministic(self):
        probe = MiniBenchmark(FRONTIER)
        assert probe.nominal_seconds() > 0
        assert probe.nominal_seconds() == probe.nominal_seconds()

    @pytest.mark.parametrize("n, block", [(8192, 512), (8192, 500), (512, 512), (100, 512)])
    def test_nominal_is_the_step_loop_sum(self, n, block):
        # The scalar kernel methods, added in the order of an LU step loop.
        km = FRONTIER.gpu_kernels
        total = 0.0
        for k in range(n // block):
            trailing = n - (k + 1) * block
            total += km.getrf_time(block)
            total += 2 * km.trsm_time(block, trailing)
            total += km.gemm_time(trailing, trailing, block, lda=n)
        nominal = MiniBenchmark(FRONTIER, n=n, block=block).nominal_seconds()
        assert nominal == total and type(nominal) is float

    def test_slower_gcd_takes_longer(self):
        probe = MiniBenchmark(SUMMIT)
        assert probe.measure(0.95) > probe.measure(1.0)

    def test_invalid_multiplier(self):
        with pytest.raises(ConfigurationError):
            MiniBenchmark(SUMMIT).measure(0.0)


class TestScanFleet:
    def test_detects_seeded_outliers(self):
        fleet = GcdFleet(400, seed=11)
        report = scan_fleet(fleet, FRONTIER)
        # The fleet has ~2% seeded outliers at up to 5% penalty.
        assert len(report.slow_gcds) > 0
        assert report.max_variation > 0.03
        # Every truly slow GCD (>=3% down) must be flagged.
        truly_slow = set(np.nonzero(fleet.multipliers < 0.965)[0])
        assert truly_slow.issubset(set(report.slow_gcds))

    def test_exclusion_improves_pipeline(self):
        fleet = GcdFleet(400, seed=3)
        report = scan_fleet(fleet, FRONTIER)
        assert report.projected_speedup > 1.0
        assert report.pipeline_after >= report.pipeline_before

    def test_nodes_have_gcd_granularity(self):
        fleet = GcdFleet(160, seed=5)
        report = scan_fleet(fleet, FRONTIER)
        q = FRONTIER.node.gcds_per_node
        for g in report.slow_gcds:
            assert g // q in report.slow_nodes

    def test_clean_fleet_mostly_survives(self):
        fleet = GcdFleet(200, seed=7, sigma=0.0005, slow_fraction=0.0)
        report = scan_fleet(fleet, SUMMIT)
        assert report.slow_gcds == []
        assert report.projected_speedup == pytest.approx(1.0)

    def test_render(self):
        report = scan_fleet(GcdFleet(48, seed=1), SUMMIT)
        out = report.render()
        assert "GCD scan" in out and "probe_s" in out

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            scan_fleet(GcdFleet(8), SUMMIT, threshold=0.0)


class TestWarmup:
    def test_summit_plan(self):
        plan = plan_warmup(SUMMIT)
        assert plan.strategy == "full-mini-benchmark"
        assert plan.cold_multiplier < 0.85
        # A 20% cold penalty pays back quickly for long runs.
        assert plan.worthwhile_above_s < 3600

    def test_frontier_plan(self):
        plan = plan_warmup(FRONTIER)
        assert plan.strategy == "embedded-small-gemms"
        assert plan.worthwhile_above_s == float("inf")

    def test_series_shapes_match_fig12(self):
        summit = project_run_series(SUMMIT, base_elapsed_s=1000.0)
        assert summit[0]["elapsed_s"] > 1.15 * summit[1]["elapsed_s"]
        late = [r["relative_perf"] for r in summit[1:]]
        assert max(late) - min(late) < 0.005

        frontier = project_run_series(FRONTIER, base_elapsed_s=1000.0)
        assert frontier[0]["relative_perf"] > frontier[3]["relative_perf"]
        assert frontier[1]["relative_perf"] > frontier[4]["relative_perf"]

    def test_warmed_series_flat(self):
        series = project_run_series(SUMMIT, 500.0, warmed_up=True)
        perfs = [r["relative_perf"] for r in series]
        assert max(perfs) - min(perfs) < 0.01

    def test_bad_base_elapsed(self):
        with pytest.raises(ConfigurationError):
            project_run_series(SUMMIT, -1.0)


class TestProgressMonitor:
    def _cfg(self):
        return BenchmarkConfig(
            n=3072 * 8, block=3072, machine=FRONTIER, p_rows=2, p_cols=2
        )

    def test_healthy_run_passes(self):
        cfg = self._cfg()
        mon = ProgressMonitor(cfg, report_every=2)
        for k in range(cfg.num_blocks):
            mon.observe(k, mon.expected_iteration_s(k))
        assert all(r.healthy for r in mon.reports)
        assert len(mon.reports) >= cfg.num_blocks // 2

    def test_fabric_hang_terminates_early(self):
        cfg = self._cfg()
        mon = ProgressMonitor(cfg, tolerance=0.3, patience=2, report_every=1)
        with pytest.raises(EarlyTerminationError) as err:
            for k in range(cfg.num_blocks):
                # Simulate a hang: everything 5x slower.
                mon.observe(k, 5.0 * mon.expected_iteration_s(k))
        assert err.value.iteration is not None

    def test_transient_slowdown_tolerated(self):
        cfg = self._cfg()
        mon = ProgressMonitor(cfg, tolerance=0.3, patience=3, report_every=1)
        for k in range(cfg.num_blocks):
            factor = 5.0 if k == 2 else 1.0  # one bad interval only
            mon.observe(k, factor * mon.expected_iteration_s(k))
        assert any(not r.healthy for r in mon.reports)

    def test_watch_trace_from_driver(self):
        from repro.core.driver import simulate_run

        cfg = self._cfg()
        res = simulate_run(cfg)
        mon = ProgressMonitor(cfg, tolerance=1.0, report_every=4)
        reports = mon.watch_trace(res.trace)
        assert len(reports) > 0
        out = mon.render()
        assert "progress report" in out

    def test_expectations_are_the_model_steps(self):
        from repro.machine import CommCosts
        from repro.model import estimate_iteration
        from repro.obs.analysis.progress import LiveProgressReporter

        cfg = self._cfg()
        mon = ProgressMonitor(cfg)
        steps = [
            estimate_iteration(cfg, CommCosts(FRONTIER), k).total
            for k in range(cfg.num_blocks)
        ]
        assert [mon.expected_iteration_s(k) for k in range(cfg.num_blocks)] == steps
        assert LiveProgressReporter._expected_step_times(cfg) == steps
        assert all(type(s) is float for s in steps)
        for k in (-1, cfg.num_blocks):
            with pytest.raises(ConfigurationError):
                mon.expected_iteration_s(k)

    def test_validation(self):
        cfg = self._cfg()
        with pytest.raises(ConfigurationError):
            ProgressMonitor(cfg, tolerance=0.0)
        with pytest.raises(ConfigurationError):
            ProgressMonitor(cfg).observe(0, -1.0)


class TestPowerModel:
    def test_energy(self):
        pm = PowerModel(busy_watts=300, idle_watts=100)
        assert pm.energy_joules(10, 5) == pytest.approx(3500)
        with pytest.raises(ConfigurationError):
            pm.energy_joules(-1, 0)

    def test_run_energy_from_stats(self):
        from repro.core.config import BenchmarkConfig
        from repro.core.driver import simulate_run

        cfg = BenchmarkConfig(
            n=3072 * 8, block=3072, machine=FRONTIER, p_rows=2, p_cols=2
        )
        res = simulate_run(cfg)
        pm = PowerModel()
        mj = pm.run_energy_mj(res.stats, res.elapsed)
        # Bounded by all-idle and all-busy envelopes.
        lo = 4 * res.elapsed * pm.idle_watts / 1e6
        hi = 4 * res.elapsed * pm.busy_watts / 1e6
        assert lo <= mj <= hi
