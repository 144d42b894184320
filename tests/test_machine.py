"""Tests for machine specs, kernel models, variability and topology."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine import FRONTIER, SUMMIT, CommCosts, GcdFleet, WarmupModel, get_machine
from repro.model.comm_model import bcast_curve, bcast_time
from repro.util import flops as fl


class TestTableI:
    def test_node_counts(self):
        assert SUMMIT.num_nodes == 4608
        assert FRONTIER.num_nodes == 9408

    def test_gcds(self):
        assert SUMMIT.node.gcds_per_node == 6
        assert FRONTIER.node.gcds_per_node == 8
        assert SUMMIT.total_gcds == 27648
        assert FRONTIER.total_gcds == 75264

    def test_node_fp16_peaks_match_table(self):
        assert SUMMIT.node.fp16_tflops == pytest.approx(750.0)
        assert FRONTIER.node.fp16_tflops == pytest.approx(1192.0)

    def test_frontier_per_node_advantage(self):
        # Paper: Frontier has 1.58x per-node FP16 over Summit.
        ratio = FRONTIER.node.fp16_tflops / SUMMIT.node.fp16_tflops
        assert ratio == pytest.approx(1.58, abs=0.02)

    def test_gpu_memory_vs_cpu_memory_finding1(self):
        # Finding 1: on Frontier, available GPU memory exceeds available
        # CPU memory by over 30 GB.
        node = FRONTIER.node
        assert node.gpu_memory_gib - node.cpu_memory_available_gib > 30

    def test_summit_gpu_memory_smaller_than_cpu(self):
        node = SUMMIT.node
        assert node.gpu_memory_gib < node.cpu_memory_available_gib

    def test_describe_contains_table_rows(self):
        d = SUMMIT.describe()
        assert d["Number of Nodes"] == 4608
        assert "V100" in d["GPU / # of GCDs (Node)"]
        assert d["# of NICs"] == 2

    def test_get_machine(self):
        assert get_machine("Summit") is SUMMIT
        assert get_machine("frontier") is FRONTIER
        with pytest.raises(ConfigurationError):
            get_machine("aurora")

    def test_max_local_n(self):
        # Paper: N_L = 61440 for Summit (~14 GB of fp32) fits a 16 GB V100;
        # N_L = 119808 (~53 GB) fits a 64 GB MI250X GCD.
        assert SUMMIT.max_local_n_fp32() >= 61440
        assert FRONTIER.max_local_n_fp32() >= 119808


class TestGpuKernelModels:
    def test_rates_grow_with_block_size(self):
        for spec in (SUMMIT, FRONTIER):
            km = spec.gpu_kernels
            sizes = [128, 256, 512, 1024, 2048, 4096]
            # Compare on smooth saturation only (fixed large m=n) by
            # averaging out texture with aligned dims.
            rates = [km.gemm_rate(8192, 8192, b) for b in sizes]
            assert all(b > a * 0.95 for a, b in zip(rates, rates[1:]))
            getrf = [km.getrf_rate(b) for b in sizes]
            assert getrf == sorted(getrf)

    def test_rates_never_exceed_peak(self):
        km = FRONTIER.gpu_kernels
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n, k = rng.integers(1, 20000, 3)
            assert km.gemm_rate(int(m), int(n), int(k)) <= km.gemm_peak_tflops * 1e12

    def test_optimal_b_regions(self):
        # V100 is already efficient at B=768; MI250X needs B~3072 to
        # reach a similar fraction of its own ceiling (Figs 5/6).
        v100 = SUMMIT.gpu_kernels
        mi = FRONTIER.gpu_kernels
        eff_v100_768 = v100.gemm_rate(8192, 8192, 768) / (v100.gemm_peak_tflops * 1e12)
        eff_mi_768 = mi.gemm_rate(8192, 8192, 768) / (mi.gemm_peak_tflops * 1e12)
        eff_mi_3072 = mi.gemm_rate(8192, 8192, 3072) / (mi.gemm_peak_tflops * 1e12)
        assert eff_v100_768 > 0.75
        assert eff_mi_768 < eff_v100_768 - 0.1
        assert eff_mi_3072 > 0.6
        assert eff_mi_3072 > eff_mi_768 + 0.2

    def test_lda_pathology_frontier_only(self):
        # Fig 7: LDA=122880 (divisible by 8192) is slow; 119808 is not.
        mi = FRONTIER.gpu_kernels
        slow = mi.gemm_rate(8192, 8192, 3072, lda=122880)
        fast = mi.gemm_rate(8192, 8192, 3072, lda=119808)
        assert slow < 0.7 * fast
        v100 = SUMMIT.gpu_kernels
        assert v100.gemm_rate(8192, 8192, 768, lda=122880) == pytest.approx(
            v100.gemm_rate(8192, 8192, 768, lda=119808)
        )

    def test_rocblas_rougher_than_cublas(self):
        # Finding 3: rocBLAS shows more size-dependent variation.
        def spread(km, b):
            rates = [
                km.gemm_rate(m, m, b)
                for m in range(4096, 4096 + 640, 64)
            ]
            return (max(rates) - min(rates)) / max(rates)

        assert spread(FRONTIER.gpu_kernels, 3072) > spread(SUMMIT.gpu_kernels, 768)

    def test_getrf_much_slower_than_gemm(self):
        for spec in (SUMMIT, FRONTIER):
            km = spec.gpu_kernels
            assert km.getrf_rate(2048) < 0.05 * km.gemm_rate(8192, 8192, 2048)

    def test_times_positive_and_zero_size(self):
        km = SUMMIT.gpu_kernels
        assert km.gemm_time(0, 10, 10) == 0.0
        assert km.getrf_time(0) == 0.0
        assert km.trsm_time(768, 0) == 0.0
        assert km.gemm_time(100, 100, 100) > 0
        assert km.cast_time(0) == 0.0
        assert km.cast_time(1000) > 0
        assert km.h2d_time(10**9) == pytest.approx(1e9 / (45.0 * 1e9))

    def test_scalar_calls_stay_builtin_floats(self):
        # The executors call these once per simulated rank-step: a
        # np.float64 or 0-d array leaking out of the shared curve
        # expressions would slow every event-engine run.
        for spec in (SUMMIT, FRONTIER):
            km = spec.gpu_kernels
            values = [
                km.gemm_rate(4096, 2048, 768), km.gemm_rate(4096, 2048, 768, lda=8192),
                km.gemm_time(4096, 2048, 768), km.gemm_time(100, 300, 50, lda=122880),
                km.getrf_rate(768), km.getrf_time(768),
                km.trsm_rate(768, 4096), km.trsm_time(768, 4096),
                km.cast_time(768 * 4096), km.h2d_time(10**6),
                km.fp64_gemm_rate(512, 512, 256), km.fp64_gemm_time(512, 512, 256),
            ]
            for gpu_aware in (True, False):
                costs = CommCosts(spec, gpu_aware=gpu_aware)
                values.append(costs.staging_time(10**6))
                values += [
                    bcast_time(algo, 1.5e6, members, costs, spec.mpi)
                    for algo in ("bcast", "ibcast", "ring1", "ring1m", "ring2m")
                    for members in (1, 6)
                ]
            assert [type(v) for v in values] == [float] * len(values)

    def test_zero_and_negative_extents_cost_nothing(self):
        km = FRONTIER.gpu_kernels
        for bad in (0, -3):
            assert km.gemm_rate(bad, 10, 10) == km.gemm_time(10, bad, 10) == 0.0
            assert km.gemm_rate(10, 10, bad) == km.gemm_time(10, 10, bad) == 0.0
            assert km.trsm_rate(bad, 10) == km.trsm_time(10, bad) == 0.0
            assert km.getrf_rate(bad) == km.getrf_time(bad) == 0.0
            assert km.cast_time(bad) == km.h2d_time(bad) == 0.0
            assert km.fp64_gemm_rate(bad, 10, 10) == km.fp64_gemm_time(10, 10, bad) == 0.0
            assert CommCosts(FRONTIER, gpu_aware=False).staging_time(bad) == 0.0

    def test_curves_agree_with_scalar_methods_on_arrays(self):
        km = FRONTIER.gpu_kernels
        m = np.array([3072, 6144, 100, 119808])
        n = np.array([6144, 3072, 7, 119808])
        gemm = km.gemm_time_curve(m, n, 3072, 119808, np.minimum(m, n))
        trsm = km.trsm_time_curve(3072, n)
        cast = km.cast_time_curve(m * 3072)
        for i in range(m.size):
            mi, ni = int(m[i]), int(n[i])
            assert gemm[i] == km.gemm_time(mi, ni, 3072, lda=119808)
            assert trsm[i] == km.trsm_time(3072, ni)
            assert cast[i] == km.cast_time(mi * 3072)

    def test_gemm_time_consistent_with_rate(self):
        km = FRONTIER.gpu_kernels
        m = n = 4096
        k = 3072
        t = km.gemm_time(m, n, k)
        assert t == pytest.approx(
            fl.gemm_flops(m, n, k) / km.gemm_rate(m, n, k) + km.kernel_launch_s
        )


class TestCpuKernelModels:
    def test_gemv_time(self):
        cm = SUMMIT.cpu_kernels
        assert cm.gemv_time(1000, 1000) == pytest.approx(2e6 / 11.0e9)
        assert cm.gemv_time(0, 5) == 0.0

    def test_trsv_and_regen(self):
        cm = FRONTIER.cpu_kernels
        assert cm.trsv_time(2000) > 0
        assert cm.regen_time(10**6) == pytest.approx(1e6 / cm.regen_entries_per_s)


class TestVariability:
    def test_deterministic(self):
        a = GcdFleet(100, seed=1).multipliers
        b = GcdFleet(100, seed=1).multipliers
        np.testing.assert_array_equal(a, b)

    def test_multipliers_in_range_with_outliers(self):
        fleet = GcdFleet(1000, seed=3)
        m = fleet.multipliers
        assert m.max() <= 1.0
        assert m.min() >= 1.0 - fleet.slow_penalty - 3 * fleet.sigma
        # ~5% max variation (paper) -> some GCDs near the slow floor.
        assert m.min() < 1.0 - 0.5 * fleet.slow_penalty

    def test_slowest_and_exclude(self):
        fleet = GcdFleet(500, seed=4)
        slow = fleet.slowest(10)
        assert len(slow) == 10
        trimmed = fleet.exclude(slow)
        assert trimmed.num_gcds == 490
        assert trimmed.pipeline_multiplier() > fleet.pipeline_multiplier()

    def test_pipeline_gated_by_slowest(self):
        fleet = GcdFleet(64, seed=5)
        assert fleet.pipeline_multiplier() == pytest.approx(
            float(fleet.multipliers.min())
        )

    def test_multipliers_read_only(self):
        fleet = GcdFleet(10)
        with pytest.raises(ValueError):
            fleet.multipliers[0] = 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GcdFleet(0)
        with pytest.raises(ConfigurationError):
            GcdFleet(10, slow_fraction=1.5)
        with pytest.raises(ConfigurationError):
            GcdFleet(10).multiplier(10)


class TestWarmup:
    def test_summit_cold_first_run(self):
        wm = WarmupModel("summit")
        series = wm.series(6)
        # First run ~20% slower than the rest (Fig 12).
        assert series[0] < 0.85
        rest = [series[i] for i in range(1, 6)]
        assert max(rest) - min(rest) < 0.005
        # Warm-up mini-benchmark removes the penalty.
        assert wm.run_multiplier(0, warmed_up=True) > 0.99

    def test_frontier_early_boost_then_settle(self):
        wm = WarmupModel("frontier")
        series = wm.series(6)
        assert series[0] > 1.005 and series[1] > 1.005
        late = [series[i] for i in range(2, 6)]
        assert all(v < 1.0 for v in late)
        assert max(late) - min(late) < 0.005

    def test_style_validation(self):
        with pytest.raises(ConfigurationError):
            WarmupModel("aurora")
        with pytest.raises(ConfigurationError):
            WarmupModel("summit").run_multiplier(-1)


class TestCommCosts:
    def test_port_binding_quadruples_summit_bandwidth(self):
        # Bound: both EDR rails (2 x 12.5).  Unbound: one rail, and the
        # far socket reaches it across the SMP bus (0.5 x 12.5).
        bound = CommCosts(SUMMIT, port_binding=True)
        unbound = CommCosts(SUMMIT, port_binding=False)
        assert bound.node_nic_bw == pytest.approx(25.0e9)
        assert unbound.node_nic_bw == pytest.approx(6.25e9)

    def test_gpu_aware_removes_staging(self):
        aware = CommCosts(FRONTIER, gpu_aware=True)
        staged = CommCosts(FRONTIER, gpu_aware=False)
        nbytes = 100 * 2**20
        assert aware.staging_time(nbytes) == 0.0
        assert staged.staging_time(nbytes) > 0.0
        assert staged.inter_node_time(nbytes) > aware.inter_node_time(nbytes)

    def test_sharing_scales_time(self):
        cc = CommCosts(FRONTIER)
        nbytes = 10**8
        t1 = cc.inter_node_time(nbytes, sharing=1)
        t4 = cc.inter_node_time(nbytes, sharing=4)
        assert t4 > 3.5 * (t1 - cc.inter_latency)

    def test_intra_faster_than_inter(self):
        cc = CommCosts(SUMMIT)
        nbytes = 2**24
        assert cc.intra_node_time(nbytes) < cc.inter_node_time(nbytes)

    def test_negative_bytes_rejected(self):
        cc = CommCosts(SUMMIT)
        with pytest.raises(ConfigurationError):
            cc.inter_node_time(-1)
        with pytest.raises(ConfigurationError):
            cc.intra_node_time(-1)

    def test_bcast_curve_on_arrays(self):
        sizes = np.array([3.0e3, 1.5e6, 6.4e7 + 0.5])
        for spec in (SUMMIT, FRONTIER):
            for gpu_aware in (True, False):
                costs = CommCosts(spec, gpu_aware=gpu_aware)
                for algo in ("bcast", "ibcast", "ring1", "ring1m", "ring2m"):
                    for members, sharing, nodes in ((1, 1, None), (6, 2, 3), (172, 4, 43)):
                        args = (members, costs, spec.mpi, sharing, nodes)
                        col = bcast_curve(algo, sizes, *args)
                        assert col.tolist() == [
                            bcast_time(algo, float(s), *args) for s in sizes
                        ]
        costs = CommCosts(SUMMIT)
        with pytest.raises(ConfigurationError, match="members"):
            bcast_curve("ring1", sizes, 0, costs, SUMMIT.mpi, 1, None)
        with pytest.raises(ConfigurationError, match="members"):
            bcast_time("ring1", 1e6, 0, costs, SUMMIT.mpi)
        with pytest.raises(ConfigurationError, match="gossip"):
            bcast_curve("gossip", sizes, 4, costs, SUMMIT.mpi, 1, None)
        assert bcast_time("ring1", 0.0, 4, costs, SUMMIT.mpi) == 0.0
        assert bcast_time("ring1", -8.0, 4, costs, SUMMIT.mpi) == 0.0

    def test_describe(self):
        d = CommCosts(FRONTIER).describe()
        assert d["machine"] == "frontier"
        # Table I: 25+25 GB/s effective node NIC bandwidth on Frontier.
        assert d["node_nic_bw_gbs"] == pytest.approx(25.0)


class TestTopologyHops:
    def test_same_node_zero_hops(self):
        assert SUMMIT.node.network.hops(5, 5) == 0

    def test_fat_tree_leaf_locality(self):
        net = SUMMIT.node.network
        assert net.topology == "fat-tree"
        assert net.hops(0, 1) == 2       # same leaf switch
        assert net.hops(0, 1000) == 6    # across the tree

    def test_dragonfly_group_locality(self):
        net = FRONTIER.node.network
        assert net.topology == "dragonfly"
        assert net.hops(0, 100) == 2     # same group (128 nodes)
        assert net.hops(0, 5000) == 5    # across groups

    def test_latency_scales_with_hops(self):
        net = SUMMIT.node.network
        near = net.latency_between(0, 1)
        far = net.latency_between(0, 1000)
        assert far > near
        assert near == pytest.approx(net.inter_node_latency_s)

    def test_commcosts_hop_latency(self):
        cc = CommCosts(FRONTIER)
        assert cc.latency_between(0, 5000) > cc.latency_between(0, 1)
        staged = CommCosts(FRONTIER, gpu_aware=False)
        assert staged.latency_between(0, 1) > cc.latency_between(0, 1)
