"""Distributed FP64 iterative refinement (Algorithm 1 lines 31-49).

Per refinement iteration:

1. **Residual** — every rank that owns a diagonal block regenerates its
   block-columns of A from the LCG in FP64 and multiplies by its slice
   of x; a single Allreduce sums the partial products into
   ``r = b - A x`` (lines 34-43).
2. **Convergence test** — line 44's threshold, identical on all ranks.
3. **Correction** — ``d = U^{-1}(L^{-1} r)`` via *distributed* blocked
   triangular solves over the FP32 factors resident from the
   factorization: for each block step, partial right-hand-side
   contributions are reduced across the pivot process row to the
   diagonal owner, the owner runs a B×B TRSV, and the segment solution
   is broadcast down the pivot process column whose ranks fold
   ``-T(i,j) w_j`` into their local accumulators.  Each sweep therefore
   costs ``n_b`` × (row-Reduce(B) + column-Bcast(B)) plus local block
   GEMVs, and one Allreduce re-replicates the solved vector.
4. **Update** — ``x <- x + d`` (line 48).

Wire tags live above the factorization window (see ``_REFINE_TAG_BASE``).
"""

from __future__ import annotations

from repro.comm.vmpi import RankComm
from repro.core.config import BenchmarkConfig
from repro.core.executors import ExecutorBase
from repro.obs.phases import IR_TAG_BASE as _REFINE_TAG_BASE
from repro.simulate.events import Compute


def _sweep_tag(cfg: BenchmarkConfig, iteration: int, j: int, upper: bool) -> int:
    nb = cfg.num_blocks
    return _REFINE_TAG_BASE + ((iteration * 2 + (1 if upper else 0)) * nb + j)


def triangular_sweep(
    cfg: BenchmarkConfig,
    ex: ExecutorBase,
    comm: RankComm,
    rhs,
    lower: bool,
    iteration: int,
):
    """One distributed blocked TRSV sweep (forward if ``lower``)."""
    grid = cfg.grid
    nb = cfg.num_blocks
    order = range(nb) if lower else range(nb - 1, -1, -1)
    ex.ir_reset_sweep(lower)
    for j in order:
        jr, jc = j % cfg.p_rows, j % cfg.p_cols
        owner = grid.rank_of(jr, jc)
        w = None
        if ex.p_ir == jr:
            contrib, secs = ex.ir_row_contrib(j, rhs, lower)
            if secs:
                yield Compute("ir_gemv", secs)
            if cfg.p_cols > 1:
                y = yield from comm.reduce(contrib, owner, grid.row_members(jr))
            else:
                y = contrib
            if comm.rank == owner:
                w, secs = ex.ir_diag_solve(j, y, lower)
                yield Compute("trsv", secs)
                ex.ir_store_solution_segment(j, w)
        if ex.p_ic == jc:
            tag = _sweep_tag(cfg, iteration, j, upper=not lower)
            if cfg.p_rows > 1:
                members = grid.col_members(jc)
                if comm.rank == owner:
                    yield from comm.bcast_start(
                        w, owner, members, tag, algorithm="bcast"
                    )
                else:
                    w = yield from comm.bcast_finish(owner, tag)
            secs = ex.ir_col_update(j, w, lower)
            yield Compute("ir_gemv", secs)
    # Work that overlapped the sweep's serial chain still has to finish
    # before the sweep's result is complete.
    secs = ex.ir_sweep_deferred()
    if secs:
        yield Compute("ir_gemv", secs)


def refinement_phase(cfg: BenchmarkConfig, ex: ExecutorBase, comm: RankComm):
    """Run iterative refinement to convergence (exact) or to the fixed
    modelled depth (phantom).  Returns ``{"converged", "iterations"}``."""
    everyone = cfg.grid.all_ranks
    secs = ex.ir_setup()
    yield Compute("ir_setup", secs)

    converged = False
    iterations = 0
    for it in range(cfg.ir_max_iters):
        partial, secs = ex.ir_residual_partial()
        yield Compute("gemv", secs)
        r = yield from comm.allreduce(partial, everyone)
        if ex.ir_converged(r):
            converged = True
            break
        iterations += 1
        # d = U^{-1} (L^{-1} r): forward then backward distributed sweeps.
        yield from triangular_sweep(cfg, ex, comm, r, lower=True, iteration=it)
        wp, secs = ex.ir_solution_partial()
        if secs:
            yield Compute("ir_gemv", secs)
        w = yield from comm.allreduce(wp, everyone)
        yield from triangular_sweep(cfg, ex, comm, w, lower=False, iteration=it)
        dp, _secs = ex.ir_solution_partial()
        d = yield from comm.allreduce(dp, everyone)
        secs = ex.ir_apply_correction(d)
        yield Compute("ir_update", secs)
    return {"converged": converged, "iterations": iterations}
