"""Data generators for every table and figure of the paper's evaluation.

Each function returns plain records (lists of dicts) so the pytest
benchmarks, the CLI, and the examples can all print or post-process the
same data.  Paper-scale studies use the analytic model (O(N/B) per
configuration); the per-iteration timing breakdown (Fig 10) runs the
discrete-event engine at the paper's own 64-GCD configuration.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.broadcasts import BCAST_NAMES
from repro.core.config import BenchmarkConfig
from repro.core.hpl import hpl_gflops_per_gcd
from repro.machine import FRONTIER, SUMMIT, GcdFleet
from repro.machine.spec import MachineSpec
from repro.model.perf_model import estimate_run
from repro.model.tuner import sweep_block_sizes, sweep_local_sizes
from repro.tools.slownode import scan_fleet
from repro.tools.warmup import project_run_series

# The paper's reference configurations.
SUMMIT_NL = 61440
FRONTIER_NL = 119808
SUMMIT_ACHIEVEMENT = dict(
    machine=SUMMIT, n=SUMMIT_NL * 162, block=768, p_rows=162, p_cols=162,
    q_rows=3, q_cols=2, bcast_algorithm="bcast",
)
FRONTIER_ACHIEVEMENT = dict(
    machine=FRONTIER, n=FRONTIER_NL * 172, block=3072, p_rows=172, p_cols=172,
    q_rows=4, q_cols=2, bcast_algorithm="ring2m",
)


def _node_grids(machine: MachineSpec) -> List[tuple]:
    q = machine.node.gcds_per_node
    return [(qr, q // qr) for qr in range(1, q + 1) if q % qr == 0]


# ---------------------------------------------------------------------------
# Tables I and II


def table1_specs() -> List[Dict[str, object]]:
    """Table I: key architectural specifications side by side."""
    s, f = SUMMIT.describe(), FRONTIER.describe()
    keys = list(s.keys())
    return [
        {"spec": k, "Summit": s[k], "Frontier": f[k]} for k in keys
    ]


def table2_blas_mapping() -> List[Dict[str, object]]:
    """Table II: cross-platform BLAS library functions."""
    from repro.blas.shim import VENDOR_NAMES

    return [
        {
            "BLAS": op.upper(),
            "Summit": VENDOR_NAMES["cuda"][op],
            "Frontier": VENDOR_NAMES["rocm"][op],
        }
        for op in ("gemm", "trsm", "getrf", "trsv")
    ]


# ---------------------------------------------------------------------------
# Fig 3: rocBLAS GEMM flop-rate heat map


def fig3_gemm_heatmap(
    machine: MachineSpec = FRONTIER,
    mn_values: Sequence[int] = (1024, 2048, 3072, 4096, 6144, 8192, 12288),
    k_values: Sequence[int] = (256, 512, 1024, 1536, 2048, 3072, 4096),
) -> List[Dict[str, object]]:
    """GEMM rate (TFLOP/s) for C = A^T B as a function of (m=n, k=B)."""
    km = machine.gpu_kernels
    out = []
    for mn in mn_values:
        row: Dict[str, object] = {"m=n": mn}
        for k in k_values:
            row[f"k={k}"] = km.gemm_rate(mn, mn, k) / 1e12
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Figs 5 and 6: per-iteration kernel rates over the factorization


def fig56_kernel_curves(
    machine: MachineSpec,
    blocks: Sequence[int],
    n_local: int,
    points: int = 12,
) -> List[Dict[str, object]]:
    """GEMM/GETRF/TRSM rates vs trailing size, one series per B.

    Fig 5 uses the V100 (Summit) model; Fig 6 the MI250X (Frontier).
    """
    km = machine.gpu_kernels
    out = []
    for b in blocks:
        for i in range(points, 0, -1):
            trailing = max((n_local // points) * i, b)
            out.append(
                {
                    "B": b,
                    "trailing": trailing,
                    "gemm_tflops": km.gemm_rate(trailing, trailing, b, lda=n_local) / 1e12,
                    "getrf_tflops": km.getrf_rate(b) / 1e12,
                    "trsm_tflops": km.trsm_rate(b, trailing) / 1e12,
                }
            )
    return out


def fig5_v100_kernels() -> List[Dict[str, object]]:
    """Fig 5 at the paper's Summit configuration (wrapper for the CLI)."""
    return fig56_kernel_curves(SUMMIT, [256, 512, 768, 1024, 2048], 61440)


def fig6_mi250x_kernels() -> List[Dict[str, object]]:
    """Fig 6 at the paper's Frontier configuration (wrapper for the CLI)."""
    return fig56_kernel_curves(FRONTIER, [512, 1024, 2048, 3072, 4096], 119808)


# ---------------------------------------------------------------------------
# Fig 7: GEMM rate vs leading dimension


def fig7_lda_effect(
    machine: MachineSpec = FRONTIER,
    ldas: Sequence[int] = (107520, 113664, 119808, 122880),
    block: int = 3072,
    points: int = 10,
) -> List[Dict[str, object]]:
    """GEMM rate over the run for different LDAs; 122880 is pathological."""
    km = machine.gpu_kernels
    out = []
    for lda in ldas:
        for i in range(points, 0, -1):
            size = (lda // points) * i
            out.append(
                {
                    "LDA": lda,
                    "gemm_size": size,
                    "gemm_tflops": km.gemm_rate(size, size, block, lda=lda) / 1e12,
                }
            )
    return out


# ---------------------------------------------------------------------------
# Fig 4: total performance vs block size, distinct comm layouts


def fig4_blocksize_total() -> List[Dict[str, object]]:
    """Per-GCD throughput vs B on both systems at the paper's scales.

    Summit: 2916 GCDs (P_r = 54); Frontier: 1024 GCDs (P_r = 32).
    """
    out = []
    summit_blocks = [256, 512, 768, 1024, 1280, 2048, 3072]
    for rec in sweep_block_sizes(
        SUMMIT, SUMMIT_NL, 54, summit_blocks,
        q_rows=3, q_cols=2, bcast_algorithm="bcast",
    ):
        rec["machine"] = "summit"
        out.append(rec)
    frontier_blocks = [512, 768, 1024, 1536, 2304, 3072]
    for rec in sweep_block_sizes(
        FRONTIER, FRONTIER_NL, 32, frontier_blocks,
        q_rows=2, q_cols=4, bcast_algorithm="ring2m",
    ):
        rec["machine"] = "frontier"
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Fig 8: communication strategies x node-local grids


def fig8_comm_strategies(
    algorithms: Sequence[str] = BCAST_NAMES,
) -> List[Dict[str, object]]:
    """GFLOPS/GCD for every broadcast strategy and node-local grid.

    Summit at 2916 GCDs, Frontier at 1024 GCDs, as in the paper.
    """
    out = []
    cases = [
        (SUMMIT, SUMMIT_NL, 768, 54),
        (FRONTIER, FRONTIER_NL, 3072, 32),
    ]
    for machine, nl, block, p in cases:
        for qr, qc in _node_grids(machine):
            if p % qr or p % qc:
                continue
            for algo in algorithms:
                cfg = BenchmarkConfig(
                    n=nl * p, block=block, machine=machine,
                    p_rows=p, p_cols=p, q_rows=qr, q_cols=qc,
                    bcast_algorithm=algo,
                )
                res = estimate_run(cfg)
                out.append(
                    {
                        "machine": machine.name,
                        "algorithm": algo,
                        "grid": f"{qr}x{qc}",
                        "gflops_per_gcd": res.gflops_per_gcd,
                    }
                )
    return out


def fig8_finding5_port_binding() -> List[Dict[str, object]]:
    """Finding 5: port binding on Summit (35.6-59.7% improvement)."""
    out = []
    for algo in BCAST_NAMES:
        res = {}
        for bound in (True, False):
            cfg = BenchmarkConfig(
                n=SUMMIT_NL * 54, block=768, machine=SUMMIT,
                p_rows=54, p_cols=54, q_rows=3, q_cols=2,
                bcast_algorithm=algo, port_binding=bound,
            )
            res[bound] = estimate_run(cfg).gflops_per_gcd
        out.append(
            {
                "algorithm": algo,
                "bound_gflops": res[True],
                "unbound_gflops": res[False],
                "improvement_pct": 100.0 * (res[True] / res[False] - 1.0),
            }
        )
    return out


def fig8_finding7_gpu_aware() -> List[Dict[str, object]]:
    """Finding 7: GPU-aware MPI on Frontier (40.3-56.6% improvement)."""
    out = []
    for algo in BCAST_NAMES:
        res = {}
        for aware in (True, False):
            cfg = BenchmarkConfig(
                n=FRONTIER_NL * 32, block=3072, machine=FRONTIER,
                p_rows=32, p_cols=32, q_rows=2, q_cols=4,
                bcast_algorithm=algo, gpu_aware=aware,
            )
            res[aware] = estimate_run(cfg).gflops_per_gcd
        out.append(
            {
                "algorithm": algo,
                "gpu_aware_gflops": res[True],
                "staged_gflops": res[False],
                "improvement_pct": 100.0 * (res[True] / res[False] - 1.0),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Fig 9: memory-size weak scaling


def fig9_weak_scaling() -> List[Dict[str, object]]:
    """GFLOPS/GCD vs GCD count at constant per-GCD memory, both systems.

    Summit baseline 36 GCDs -> 2916; Frontier 64 -> 16384, column-major
    vs tuned node grids; parallel efficiency is relative to the first
    point of each series (the paper's definition).
    """
    out = []
    series = [
        ("summit", SUMMIT, SUMMIT_NL, 768, "bcast",
         [(6, 1), (3, 2)], [6, 12, 18, 36, 54]),
        ("frontier", FRONTIER, FRONTIER_NL, 3072, "ring2m",
         [(8, 1), (2, 4)], [8, 16, 32, 64, 128]),
    ]
    for name, machine, nl, block, algo, grids, p_values in series:
        for qr, qc in grids:
            base = None
            for p in p_values:
                if p % qr or p % qc:
                    continue
                cfg = BenchmarkConfig(
                    n=nl * p, block=block, machine=machine,
                    p_rows=p, p_cols=p, q_rows=qr, q_cols=qc,
                    bcast_algorithm=algo,
                )
                res = estimate_run(cfg)
                if base is None:
                    base = res.gflops_per_gcd
                out.append(
                    {
                        "machine": name,
                        "grid": f"{qr}x{qc}",
                        "gcds": p * p,
                        "gflops_per_gcd": res.gflops_per_gcd,
                        "parallel_eff_pct": 100.0 * res.gflops_per_gcd / base,
                    }
                )
    return out


# ---------------------------------------------------------------------------
# Fig 10: per-iteration timing breakdown (event engine, 64 GCDs)


def fig10_timing_breakdown(
    n_local: int = FRONTIER_NL, sample_every: int = 16
) -> List[Dict[str, object]]:
    """Per-iteration component times on Frontier with 64 GCDs (rank 0).

    The paper's Fig 10 uses N_L = 119808; the default here scales N_L
    down 4x so the discrete-event run finishes in seconds — the *shape*
    (GEMM-dominated early, communication-dominated in the final trailing
    iterations) is preserved.  Pass ``n_local=119808`` for the full
    configuration.
    """
    from repro.core.driver import simulate_run

    cfg = BenchmarkConfig(
        n=n_local * 8, block=3072, machine=FRONTIER, p_rows=8, p_cols=8,
        q_rows=2, q_cols=4, bcast_algorithm="ring2m",
    )
    res = simulate_run(cfg)
    out = []
    for entry in res.trace:
        k = entry["k"]
        total = entry["panel"] + entry["gemm"] + entry["recv"]
        if total <= 0.0:
            continue  # empty trailing iterations at the very end
        if k % sample_every and k != cfg.num_blocks - 1:
            continue
        out.append(
            {
                "iteration": k,
                "panel_s": entry["panel"],
                "gemm_s": entry["gemm"],
                "comm_wait_s": entry["recv"],
                "total_s": total,
                "comm_fraction_pct": 100.0 * entry["recv"] / total if total else 0.0,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Fig 11: exascale achievement runs


def fig11_exascale_runs() -> List[Dict[str, object]]:
    """The two achievement configurations plus the full-system projections."""
    runs = [
        ("summit 26244 GCDs (paper: 1.411 EF)", SUMMIT_ACHIEVEMENT, 1.411e18),
        ("frontier 29584 GCDs (paper: 2.387 EF)", FRONTIER_ACHIEVEMENT, 2.387e18),
        (
            "frontier ~full 73984 GCDs (paper: >5 EF expected)",
            dict(
                machine=FRONTIER, n=FRONTIER_NL * 272, block=3072,
                p_rows=272, p_cols=272, q_rows=4, q_cols=2,
                bcast_algorithm="ring2m",
            ),
            5.0e18,
        ),
    ]
    out = []
    for label, kw, paper_flops in runs:
        cfg = BenchmarkConfig(**kw)
        res = estimate_run(cfg)
        out.append(
            {
                "run": label,
                "N": cfg.n,
                "B": cfg.block,
                "GCDs": cfg.num_ranks,
                "measured_eflops": res.total_flops_per_s / 1e18,
                "paper_eflops": paper_flops / 1e18,
                "ratio_vs_paper": res.total_flops_per_s / paper_flops,
                "elapsed_s": res.elapsed,
            }
        )
    return out


def roofline_report() -> List[Dict[str, object]]:
    """Roofline points for both machines at the paper's configurations:
    the quantitative form of "an architecturally well balanced system"."""
    from repro.model.roofline import (
        memory_roofline,
        min_local_size_for_compute_bound,
        network_roofline,
    )

    out = []
    for machine, b, nl in ((SUMMIT, 768, SUMMIT_NL),
                           (FRONTIER, 3072, FRONTIER_NL)):
        for p in memory_roofline(machine, b, nl):
            out.append(
                {
                    "machine": machine.name,
                    "phase": p.name,
                    "flops_per_byte": p.arithmetic_intensity,
                    "attainable_tflops": p.attainable_tflops,
                    "bound": p.bound,
                }
            )
        netp = network_roofline(machine, b, nl)
        out.append(
            {
                "machine": machine.name,
                "phase": netp.name,
                "flops_per_byte": netp.arithmetic_intensity,
                "attainable_tflops": netp.attainable_tflops,
                "bound": netp.bound,
            }
        )
        out.append(
            {
                "machine": machine.name,
                "phase": "min N_L for compute-bound",
                "flops_per_byte": float(
                    min_local_size_for_compute_bound(machine)
                ),
                "attainable_tflops": float("nan"),
                "bound": f"paper used N_L={nl}",
            }
        )
    return out


def frontier_vs_summit_projection() -> List[Dict[str, object]]:
    """Section II expectation: "Frontier is expected to see about 3x
    HPL-AI performance improvement when compared to Summit at full
    scale" (1.58x per node x 2x+ nodes, minus scaling losses)."""
    # Full-ish machines: largest square grids that tile cleanly.
    summit_cfg = BenchmarkConfig(
        machine=SUMMIT, n=SUMMIT_NL * 162, block=768,
        p_rows=162, p_cols=162, q_rows=3, q_cols=2,
        bcast_algorithm="bcast",
    )
    frontier_cfg = BenchmarkConfig(
        machine=FRONTIER, n=FRONTIER_NL * 272, block=3072,
        p_rows=272, p_cols=272, q_rows=4, q_cols=2,
        bcast_algorithm="ring2m",
    )
    s_res = estimate_run(summit_cfg)
    f_res = estimate_run(frontier_cfg)
    ratio = f_res.total_flops_per_s / s_res.total_flops_per_s
    return [
        {
            "summit_eflops": s_res.total_flops_per_s / 1e18,
            "frontier_full_eflops": f_res.total_flops_per_s / 1e18,
            "ratio": ratio,
            "paper_expectation": 3.0,
        }
    ]


def hpl_vs_hplai() -> List[Dict[str, object]]:
    """The headline mixed-precision speedup: HPL-AI vs HPL per GCD."""
    out = []
    for label, kw, paper_ratio in [
        ("summit", SUMMIT_ACHIEVEMENT, 9.5),
        ("frontier", FRONTIER_ACHIEVEMENT, None),
    ]:
        cfg = BenchmarkConfig(**kw)
        res = estimate_run(cfg)
        hpl = hpl_gflops_per_gcd(cfg.machine)
        out.append(
            {
                "machine": label,
                "hplai_gflops_per_gcd": res.gflops_per_gcd,
                "hpl_gflops_per_gcd": hpl,
                "speedup": res.gflops_per_gcd / hpl,
                "paper_speedup": paper_ratio if paper_ratio else float("nan"),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Fig 12: run-to-run variability


def fig12_variability(num_runs: int = 6) -> List[Dict[str, object]]:
    """Six consecutive full runs on each machine (warm-up effects)."""
    out = []
    for label, kw in [("summit", SUMMIT_ACHIEVEMENT),
                      ("frontier", FRONTIER_ACHIEVEMENT)]:
        cfg = BenchmarkConfig(**kw)
        base = estimate_run(cfg).elapsed
        for rec in project_run_series(cfg.machine, base, num_runs=num_runs):
            out.append(
                {
                    "machine": label,
                    "run": rec["run"],
                    "elapsed_s": rec["elapsed_s"],
                    "relative_perf_pct": 100.0 * rec["relative_perf"],
                }
            )
    return out


# ---------------------------------------------------------------------------
# Section V-D: N_L tuning; Section VI-B: slow-node scan


def nl_tuning(p_values: Sequence[int] = (8, 16, 32)) -> List[Dict[str, object]]:
    """N_L = 119808 vs 122880 at 64 / 256 / 1024 GCDs (Section V-D)."""
    out = []
    for p in p_values:
        for rec in sweep_local_sizes(
            FRONTIER, block=3072, p=p, locals_=[119808, 122880],
            q_rows=2, q_cols=4, bcast_algorithm="ring2m",
        ):
            rec["gcds"] = p * p
            out.append(rec)
    return out


def slownode_scan(num_gcds: int = 1024, seed: int = 2022) -> List[Dict[str, object]]:
    """The slow-GCD scan workflow on a seeded fleet."""
    fleet = GcdFleet(num_gcds, seed=seed)
    report = scan_fleet(fleet, FRONTIER)
    return [
        {
            "gcds_scanned": num_gcds,
            "max_variation_pct": 100.0 * report.max_variation,
            "slow_gcds": len(report.slow_gcds),
            "excluded_nodes": len(report.slow_nodes),
            "projected_speedup": report.projected_speedup,
        }
    ]


# ---------------------------------------------------------------------------
# Section VI-A: strong scaling (no chart in the paper "due to limited
# space"; the text reports it is communication bound at scale)


def strong_scaling(
    machine: MachineSpec = SUMMIT,
    n: int = 61440 * 16,
    block: int = 768,
    p_values: Sequence[int] = (16, 32, 64),
) -> List[Dict[str, object]]:
    """Fixed N, growing machine: per-GCD rate decays as communication
    and panel work stop amortizing (Section VI-A)."""
    algo = "bcast" if machine.name == "summit" else "ring2m"
    out = []
    base = None
    for p in p_values:
        if n % (block * p):
            continue
        cfg = BenchmarkConfig(
            n=n, block=block, machine=machine, p_rows=p, p_cols=p,
            bcast_algorithm=algo,
        )
        res = estimate_run(cfg)
        if base is None:
            base = (p * p, res.elapsed)
        out.append(
            {
                "gcds": p * p,
                "elapsed_s": res.elapsed,
                "gflops_per_gcd": res.gflops_per_gcd,
                "speedup": base[1] / res.elapsed,
                "ideal_speedup": (p * p) / base[0],
                "strong_eff_pct": 100.0 * (base[1] / res.elapsed)
                / ((p * p) / base[0]),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Ablations beyond the paper's exhibits


def ablation_lookahead() -> List[Dict[str, object]]:
    """Look-ahead on/off at the paper's Fig-8 scales (both machines)."""
    out = []
    for machine, nl, block, p, qr, qc, algo in [
        (SUMMIT, SUMMIT_NL, 768, 54, 3, 2, "bcast"),
        (FRONTIER, FRONTIER_NL, 3072, 32, 2, 4, "ring2m"),
    ]:
        res = {}
        for la in (True, False):
            cfg = BenchmarkConfig(
                n=nl * p, block=block, machine=machine, p_rows=p, p_cols=p,
                q_rows=qr, q_cols=qc, bcast_algorithm=algo, lookahead=la,
            )
            res[la] = estimate_run(cfg).gflops_per_gcd
        out.append(
            {
                "machine": machine.name,
                "lookahead_gflops": res[True],
                "no_lookahead_gflops": res[False],
                "improvement_pct": 100.0 * (res[True] / res[False] - 1.0),
            }
        )
    return out
