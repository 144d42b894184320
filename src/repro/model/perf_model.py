"""Per-iteration critical-path model of the full benchmark (eqs. 1-3, 5).

Each of the N/B factorization steps is priced with the same machine
kernel models the event engine uses:

    T_iter = T_GETRF + T_DIAG_BCAST + T_TRSM + T_CAST
             + overlap(T_PANEL_BCAST, T_GEMM)           (look-ahead)

where ``overlap(a, b) = max(a, b)`` replaces ``a + b`` when look-ahead
hides the panel broadcast under the trailing update (Section IV-B), and
iterative refinement is priced with the executor formulas.

The steps are closed-form and independent, so the model is an array
program: ``_step_costs`` is written once, in operators valid for one step
(a Python int of trailing blocks: ``estimate_iteration``) and for all of
them (an ``int64`` array: ``iteration_columns``, ``estimate_run``) in one
operand order, so the two agree bit for bit.  Totals are sequential sums
(``sequential_sum``: the step loop's ``+=``), never pairwise ``np.sum`` or
a closed form.  The paper's achievement runs (P = 172², N = 20.6M; 12,960
steps on Summit) evaluate in about a millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import ceil, isfinite, log2
from typing import Dict, List

import numpy as np

from repro.core.config import BenchmarkConfig
from repro.errors import ConfigurationError
from repro.machine.topology import CommCosts
from repro.model.comm_model import bcast_time, panel_comm_time
from repro.util import flops as fl


#: Fraction of the panel-broadcast time that cannot be hidden under the
#: trailing GEMM even with look-ahead: progression overheads, receive-side
#: protocol work, and pipeline fill.  Perfect overlap (0.0) makes every
#: broadcast strategy look identical once GEMM dominates, which is not
#: what the paper measured; 0.12 reproduces the observed sensitivity of
#: total performance to the broadcast choice (Figs 4/8).
OVERLAP_FLOOR = 0.12


@dataclass(frozen=True)
class IterationCosts:
    """Phase costs of one factorization step (seconds)."""

    k: int
    getrf: float
    diag_bcast: float
    trsm: float
    cast: float
    gemm: float
    panel_bcast: float
    exposed_comm: float
    total: float


@dataclass
class AnalyticResult:
    """Modelled run outcome; mirrors the fields of RunResult it can."""

    config: BenchmarkConfig
    elapsed: float
    elapsed_factorization: float
    elapsed_refinement: float
    gflops_per_gcd: float
    total_flops_per_s: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    iterations: List[IterationCosts] = field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        """Headline metrics merged with the configuration facts."""
        d = self.config.describe()
        d.update(
            elapsed_s=round(self.elapsed, 3),
            gflops_per_gcd=round(self.gflops_per_gcd, 2),
            total_flops=self.total_flops_per_s,
        )
        return d


#: The float fields of :class:`IterationCosts`, in order.
COLUMNS = tuple(f.name for f in fields(IterationCosts))[1:]


def sequential_sum(column) -> float:
    """Left-to-right float sum of a column — a loop's ``+=``, bit for bit."""
    return float(np.add.accumulate(column)[-1]) if len(column) else 0.0


def _diag_costs(cfg: BenchmarkConfig, costs: CommCosts, speed: float):
    """GETRF and the diagonal-block broadcasts: the same at every step."""
    b = cfg.block
    t_getrf = cfg.machine.gpu_kernels.getrf_time(b) / speed
    # Two small B×B FP32 broadcasts along the pivot row and column.
    diag_bytes = b * b * 4
    t_diag = bcast_time(
        cfg.diag_algorithm, diag_bytes, cfg.p_cols, costs, cfg.machine.mpi,
        sharing=1, nodes_spanned=cfg.node_grid.k_cols,
    ) + bcast_time(
        cfg.diag_algorithm, diag_bytes, cfg.p_rows, costs, cfg.machine.mpi,
        sharing=1, nodes_spanned=cfg.node_grid.k_rows,
    )
    return t_getrf, t_diag


def _step_costs(cfg: BenchmarkConfig, costs: CommCosts, remaining, speed, maximum):
    """The :data:`COLUMNS` of steps with ``remaining`` > 0 trailing blocks:
    a Python int with ``maximum=max`` or an ``int64`` array with ``np.maximum``.

    Local trailing extents use the *pivot* row/column's view (the ranks
    on the critical path): their local panel lengths are the ceiling of
    the remaining blocks over the grid dimension.  ``speed`` scales the
    compute kernels only (fleet variability / warm-up).
    """
    b = cfg.block
    rows_loc = -(-remaining // cfg.p_rows) * b
    cols_loc = -(-remaining // cfg.p_cols) * b
    min_loc = -(-remaining // max(cfg.p_rows, cfg.p_cols)) * b
    km = cfg.machine.gpu_kernels
    t_getrf, t_diag = _diag_costs(cfg, costs, speed)
    # The diagonal owner sits in both pivot panels: its TRSMs serialize.
    t_trsm = (km.trsm_time_curve(b, cols_loc) + km.trsm_time_curve(b, rows_loc)) / speed
    t_cast = (km.cast_time_curve(cols_loc * b) + km.cast_time_curve(rows_loc * b)) / speed
    t_gemm = km.gemm_time_curve(rows_loc, cols_loc, b, cfg.local_rows, min_loc) / speed
    t_bcast = panel_comm_time(
        cfg.bcast_algorithm,
        u_bytes=cols_loc * b * 2.0,
        l_bytes=rows_loc * b * 2.0,
        cfg=cfg,
        costs=costs,
    )
    if cfg.lookahead:
        # The paper's look-ahead model: the panel chain stays serial on
        # the pivot ranks, but the panel broadcast rides under the bulk
        # trailing GEMM — the last two terms of eq. (1) become
        # max[T(BCAST_PANEL), T(GEMM)].  (The event engine additionally
        # pipelines the panel chain across rotating pivots, so it runs
        # somewhat faster than this model at panel-dominated sizes —
        # consistent with the paper calling its model an upper-bound
        # guideline.)
        exposed = maximum(t_bcast - t_gemm, OVERLAP_FLOOR * t_bcast)
    else:
        exposed = t_bcast
    total = t_getrf + t_diag + t_trsm + t_cast + t_gemm + exposed
    return t_getrf, t_diag, t_trsm, t_cast, t_gemm, t_bcast, exposed, total


def estimate_iteration(
    cfg: BenchmarkConfig, costs: CommCosts, k: int, speed: float = 1.0
) -> IterationCosts:
    """Price factorization step ``k`` on the critical path (scalar)."""
    nb = cfg.num_blocks
    if not 0 <= k < nb:
        raise ConfigurationError(f"k must be in [0, {nb}), got {k}")
    if k < nb - 1:
        return IterationCosts(k, *_step_costs(cfg, costs, nb - (k + 1), speed, max))
    # Nothing trails the last diagonal block: only the panel chain is paid.
    t_getrf, t_diag = _diag_costs(cfg, costs, speed)
    return IterationCosts(k, t_getrf, t_diag, 0.0, 0.0, 0.0, 0.0, 0.0, t_getrf + t_diag)


def iteration_columns(
    cfg: BenchmarkConfig, costs: CommCosts, speed: float = 1.0
) -> Dict[str, np.ndarray]:
    """Every :data:`COLUMNS` field over ``k = 0 … N/B − 1`` in one evaluation.

    Entry ``k`` of each column ``==`` the matching field of
    ``estimate_iteration(cfg, costs, k, speed)``.
    """
    nb = cfg.num_blocks
    cols = np.empty((len(COLUMNS), nb))
    head = _step_costs(cfg, costs, np.arange(nb - 1, 0, -1), speed, np.maximum)
    last = estimate_iteration(cfg, costs, nb - 1, speed)
    for name, row, col in zip(COLUMNS, cols, head):
        row[:-1] = col
        row[-1] = getattr(last, name)
    return dict(zip(COLUMNS, cols))


def _refinement_time(cfg: BenchmarkConfig, costs: CommCosts) -> float:
    """IR cost from the same formulas the phantom executor charges."""
    cm = cfg.machine.cpu_kernels
    n, b, nb = cfg.n, cfg.block, cfg.num_blocks
    iters = cfg.ir_fixed_iters
    # Residual: N^2/P regenerated entries + GEMV per rank per iteration,
    # plus one more residual evaluation for the converged check.
    cols = cfg.col_dim.blocks_per_proc
    entries = cols * cfg.local_rows * b
    t_resid = cm.regen_time(entries) + cm.gemv_time(cfg.local_rows, cols * b)
    allreduce = 2 * ceil(log2(max(cfg.num_ranks, 2))) * (
        costs.inter_latency + n * 8 / costs.node_nic_bw
    )
    # Sweeps: serial chain of nb small steps plus the per-rank deferred
    # block GEMVs (half the column's blocks on average).
    step = (
        cm.trsv_time(b)
        + cm.gemv_time(b, b)
        + 2 * (costs.inter_latency + b * 8 / costs.node_nic_bw)
        * ceil(log2(max(cfg.p_rows, 2)))
    )
    deferred = cm.gemv_time(cfg.local_rows, b) * (nb / cfg.p_cols) / 2.0
    t_sweep = nb * step + deferred
    per_iter = t_resid + allreduce + 2 * t_sweep + allreduce
    return (iters + 1) * (t_resid + allreduce) + iters * (
        per_iter - t_resid - allreduce
    )


def estimate_run(
    cfg: BenchmarkConfig,
    pipeline_multiplier: float = 1.0,
    global_speed: float = 1.0,
    keep_iterations: bool = False,
    scenario=None,
) -> AnalyticResult:
    """Model the full benchmark at any scale in O(N/B).

    All steps are priced in one array evaluation (:func:`iteration_columns`)
    and every total is the sequential sum of its column: the bits of adding
    :func:`estimate_iteration` step by step, without the Python loop.

    ``pipeline_multiplier`` models fleet variability: in a bulk-
    synchronous factorization the slowest GCD gates every iteration
    (see :meth:`repro.machine.GcdFleet.pipeline_multiplier`).
    ``global_speed`` models warm-up effects (Fig 12).

    ``scenario`` accepts the same :class:`~repro.scenario.Scenario`
    the event engine runs: the composed rate schedule collapses to its
    effective pipeline multiplier (the slowest participant gates every
    iteration), multiplied into ``pipeline_multiplier``, so analytic
    and event-engine results of one scenario file stay comparable.
    Link-level injections are below the model's resolution.
    """
    if scenario is not None:
        # Lazy import: repro.scenario.compile prices horizons with this
        # very function.
        from repro.scenario.compile import compile_scenario

        compiled = compile_scenario(scenario, cfg)
        pipeline_multiplier *= compiled.pipeline_multiplier
    costs = CommCosts(
        cfg.machine, port_binding=cfg.port_binding, gpu_aware=cfg.gpu_aware
    )
    speed = pipeline_multiplier * global_speed
    if not (isfinite(speed) and speed > 0):
        raise ConfigurationError(
            "pipeline_multiplier * global_speed must be finite and positive, "
            f"got {pipeline_multiplier} * {global_speed}"
        )
    cols = iteration_columns(cfg, costs, speed)
    totals = {name: sequential_sum(col) for name, col in cols.items()}
    del totals["panel_bcast"]  # the run pays ``exposed_comm``, not the hidden part
    t_fact = totals.pop("total") + cfg.machine.gpu_kernels.h2d_time(cfg.local_fp32_bytes)
    iters: List[IterationCosts] = []
    if keep_iterations:
        rows = zip(*(col.tolist() for col in cols.values()))
        iters = [IterationCosts(k, *row) for k, row in enumerate(rows)]
    t_ir = _refinement_time(cfg, costs) / speed
    elapsed = t_fact + t_ir
    totals["refinement"] = t_ir
    return AnalyticResult(
        config=cfg,
        elapsed=elapsed,
        elapsed_factorization=t_fact,
        elapsed_refinement=t_ir,
        gflops_per_gcd=fl.per_gcd_gflops(cfg.n, cfg.num_ranks, elapsed),
        total_flops_per_s=fl.hpl_ai_flops(cfg.n) / elapsed,
        breakdown=totals,
        iterations=iters,
    )
