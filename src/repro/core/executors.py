"""Per-rank executors: local storage, kernels, and their modelled times.

The factorization and refinement rank programs
(:mod:`repro.core.hplai`, :mod:`repro.core.refine`) are written against
the executor interface so the *same* program runs in two modes:

- :class:`ExactExecutor` — allocates the FP32 local matrix, performs the
  real NumPy kernels (so the run is numerically exact and the residual
  is meaningful) *and* charges the machine model's kernel times;
- :class:`PhantomExecutor` — no data, identical shapes and charged
  times; scales to thousands of ranks.

All methods return ``(payload, seconds)`` or plain ``seconds``; the rank
program yields ``Compute(kind, seconds)`` ops so the engine accounts for
time (and applies per-GCD variability).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blas.shim import get_shim
from repro.core.config import BenchmarkConfig
from repro.core.layout import StepPlan, make_step_plan
from repro.errors import ConfigurationError
from repro.lcg.matrix import HplAiMatrix
from repro.obs import context as obs_context
from repro.obs.phases import STEP_STRIDE
from repro.precision.analysis import hpl_ai_tolerance
from repro.simulate.phantom import PhantomArray
from repro.util import flops as fl

#: GEMM-rate histogram buckets (GFLOP/s): decades with 1/2/5 steps,
#: spanning laptop BLAS to several GCD-peak tensor-core rates
_GFLOPS_BUCKETS = tuple(
    m * 10.0 ** e for e in range(0, 6) for m in (1.0, 2.0, 5.0)
)


class ExecutorBase:
    """Shared layout/timing logic; subclasses add (or omit) the data."""

    #: True when matrix data exists and results are numerically meaningful
    exact = False
    #: precision the local matrix is stored (and moved over PCIe) in
    storage_dtype = np.dtype(np.float32)
    #: The two seams of the rank program (:mod:`repro.core.hplai`), which
    #: a pivoted executor overrides with generator methods:
    #: ``panel_phase(comm, k)`` replaces diag GETRF + TRSM + cast,
    #: ``solve_phase(comm, t_start)`` replaces d2h + refinement.  A
    #: ``panel_phase`` also selects the synchronous schedule: LASWP swaps
    #: rows of a trailing matrix look-ahead has not finished updating.
    panel_phase = None
    solve_phase = None

    def __init__(self, cfg: BenchmarkConfig, p_ir: int, p_ic: int, rank: int):
        self.cfg = cfg
        self.p_ir = p_ir
        self.p_ic = p_ic
        self.rank = rank
        self.km = cfg.machine.gpu_kernels
        self.cm = cfg.machine.cpu_kernels
        self.b = cfg.block
        self._ir_iter = 0
        self._plans: Dict[int, StepPlan] = {}
        # Triangular-sweep work that overlaps the solve's serial chain
        # (pipelined distributed TRSV): accumulated off the critical path
        # and charged once per sweep.
        self._deferred_gemv_s = 0.0
        # Observability: GEMM-rate histogram + per-kernel call counters,
        # resolved once so the enabled path avoids registry lookups.
        obs = obs_context.current()
        self._obs_on = obs.enabled
        if self._obs_on:
            self._h_gemm_gflops = obs.metrics.histogram(
                "executor.gemm_gflops", boundaries=_GFLOPS_BUCKETS
            )
            self._kernel_calls = obs.metrics.counter
            self._tracer = obs.tracer
        # Health telemetry: per-rank step-progress reporting (the
        # trailing update is the once-per-column landmark).
        self._health = (
            getattr(obs, "health", None) if self._obs_on else None
        )

    def _note_step(self, k: int) -> None:
        """Report column ``k``'s trailing update to the health monitor."""
        if self._health is not None:
            self._health.note_step(self.rank, k)

    def _hotpath_span(self, name: str, **attrs):
        """Wall-clock span around an optimized hot region (obs-enabled
        runs only); virtual engine time is charged separately."""
        if self._obs_on:
            return self._tracer.span(
                name, "hotpath", self.rank, clock="wall", **attrs)
        return contextlib.nullcontext()

    # -- layout ------------------------------------------------------------

    @staticmethod
    def step_tag(k: int, phase: int) -> int:
        """Logical tag of step ``k``'s ``phase`` broadcast: this
        program's window of the tag space (``repro.obs.phases``)."""
        return STEP_STRIDE * k + phase

    def plan(self, k: int) -> StepPlan:
        """Layout facts for step k (pure arithmetic, memoized).

        The panel loop asks for the same plan half a dozen times per
        step and, with look-ahead, alternates between steps ``k`` and
        ``k + 1`` only — so the memo keeps the two newest steps and
        evicts the oldest on insert.  An unbounded memo costs one
        :class:`StepPlan` per (rank, step) for the life of the run.
        """
        plans = self._plans
        plan = plans.get(k)
        if plan is None:
            if len(plans) == 2:
                del plans[next(iter(plans))]
            plan = plans[k] = make_step_plan(self.cfg, self.p_ir, self.p_ic, k)
        return plan

    # -- timing helpers ---------------------------------------------------------

    def _t_fill(self) -> float:
        n_elems = self.cfg.local_rows * self.cfg.local_cols
        regen = self.cm.regen_time(n_elems)
        h2d = self.km.h2d_time(n_elems * self.storage_dtype.itemsize)
        return regen + h2d

    def _t_getrf(self) -> float:
        if self._obs_on:
            self._kernel_calls("executor.kernel_calls", kind="getrf").inc()
        return self.km.getrf_time(self.b)

    def _t_trsm(self, nrhs: int) -> float:
        if nrhs <= 0:
            return 0.0
        if self._obs_on:
            self._kernel_calls("executor.kernel_calls", kind="trsm").inc()
        return self.km.trsm_time(self.b, nrhs)

    def _t_cast(self, rows: int, cols: int) -> float:
        return self.km.cast_time(rows * cols) if rows * cols > 0 else 0.0

    def _t_gemm(self, m: int, n: int) -> float:
        if m <= 0 or n <= 0:
            return 0.0
        secs = self.km.gemm_time(m, n, self.b, lda=self.cfg.local_rows)
        if self._obs_on and secs > 0:
            self._h_gemm_gflops.observe(2.0 * m * n * self.b / secs / 1e9)
            self._kernel_calls("executor.kernel_calls", kind="gemm").inc()
        return secs

    def transfer_to_host(self) -> float:
        """Modelled download time of the factored local matrix."""
        return self.km.h2d_time(
            self.cfg.local_rows * self.cfg.local_cols
            * self.storage_dtype.itemsize
        )

    # -- IR timing ------------------------------------------------------------

    def _t_ir_residual(self) -> float:
        # Each rank regenerates its local rows of every block-column its
        # process column owns: N_Lr x B entries per owned column, i.e.
        # N^2 / P entries per rank per refinement iteration.
        cols = self.cfg.col_dim.blocks_per_proc
        entries = cols * self.cfg.local_rows * self.b
        return self.cm.regen_time(entries) + self.cm.gemv_time(
            self.cfg.local_rows, cols * self.b
        )

    def _t_ir_block_gemv(self, nblocks: int) -> float:
        if nblocks <= 0:
            return 0.0
        return self.cm.gemv_time(nblocks * self.b, self.b)

    def _charge_col_update(self, nblocks: int) -> float:
        """Pipelined sweep timing: only the block feeding the *next*
        segment's reduce sits on the serial chain; the rest is deferred
        and charged at sweep end (it overlaps other columns' steps)."""
        if nblocks <= 0:
            return 0.0
        self._deferred_gemv_s += self._t_ir_block_gemv(nblocks - 1)
        return self._t_ir_block_gemv(1)

    def ir_sweep_deferred(self) -> float:
        """Off-critical-path sweep work accumulated since the last call."""
        secs = self._deferred_gemv_s
        self._deferred_gemv_s = 0.0
        return secs


class PhantomExecutor(ExecutorBase):
    """Timing-only executor: payloads are :class:`PhantomArray` stand-ins."""

    exact = False

    # -- factorization ---------------------------------------------------------

    def fill_local(self) -> float:
        """Charge the local fill (regen + upload) time."""
        return self._t_fill()

    def getrf_diag(self, k: int) -> Tuple[PhantomArray, float]:
        """Phantom diagonal factor + its modelled time."""
        return PhantomArray((self.b, self.b), np.float32), self._t_getrf()

    def trsm_row_panel(self, k: int, diag) -> float:
        """Modelled U-panel TRSM time."""
        return self._t_trsm(self.plan(k).trail_cols)

    def trans_cast_u(self, k: int) -> Tuple[PhantomArray, float]:
        """Phantom U16 panel + cast time."""
        cols = self.plan(k).trail_cols
        return (
            PhantomArray((cols, self.b), np.float16),
            self._t_cast(cols, self.b),
        )

    def trsm_col_panel(self, k: int, diag) -> float:
        """Modelled L-panel TRSM time."""
        return self._t_trsm(self.plan(k).trail_rows)

    def cast_l(self, k: int) -> Tuple[PhantomArray, float]:
        """Phantom L16 panel + cast time."""
        rows = self.plan(k).trail_rows
        return (
            PhantomArray((rows, self.b), np.float16),
            self._t_cast(rows, self.b),
        )

    def strip_col_update(self, k: int, l16, u16t) -> float:
        """Modelled look-ahead column-strip GEMM time."""
        return self._t_gemm(self.plan(k).trail_rows, self.b)

    def strip_row_update(self, k: int, l16, u16t, owns_col: bool) -> float:
        """Modelled look-ahead row-strip GEMM time."""
        p = self.plan(k)
        cols = p.trail_cols - (self.b if owns_col else 0)
        return self._t_gemm(self.b, cols)

    def gemm_trailing(self, k: int, l16, u16t, skip_row: bool, skip_col: bool) -> float:
        """Modelled trailing-update GEMM time."""
        self._note_step(k)
        p = self.plan(k)
        m = p.trail_rows - (self.b if skip_row else 0)
        n = p.trail_cols - (self.b if skip_col else 0)
        return self._t_gemm(m, n)

    # -- iterative refinement ------------------------------------------------

    def ir_setup(self) -> float:
        """Charge refinement setup (b / diag generation)."""
        # Generate b and diag(A); initial x = b / diag(A).
        return self.cm.regen_time(2 * self.cfg.n)

    def ir_residual_partial(self) -> Tuple[PhantomArray, float]:
        """Phantom residual partial + its regen/GEMV time."""
        return (
            PhantomArray((self.cfg.n,), np.float64),
            self._t_ir_residual(),
        )

    def ir_converged(self, r) -> bool:
        """Phantom runs charge a fixed refinement depth."""
        self._ir_iter += 1
        return self._ir_iter > self.cfg.ir_fixed_iters

    def ir_row_contrib(self, j: int, r, lower: bool) -> Tuple[PhantomArray, float]:
        """Phantom sweep contribution segment."""
        return PhantomArray((self.b,), np.float64), 0.0

    def ir_diag_solve(self, j: int, y, lower: bool) -> Tuple[PhantomArray, float]:
        """Phantom solved segment + TRSV time."""
        return PhantomArray((self.b,), np.float64), self.cm.trsv_time(self.b)

    def ir_col_update(self, j: int, w, lower: bool) -> float:
        """Charge the sweep's local block-GEMV updates."""
        nblocks = self._col_update_blocks(j, lower)
        return self._charge_col_update(nblocks)

    def _col_update_blocks(self, j: int, lower: bool) -> int:
        if lower:
            return self.cfg.row_dim.local_blocks_at_or_after(self.p_ir, j + 1)
        total = self.cfg.row_dim.blocks_per_proc
        return total - self.cfg.row_dim.local_blocks_at_or_after(self.p_ir, j)

    def ir_store_solution_segment(self, j: int, w) -> None:
        """No state to keep in phantom mode."""

    def ir_solution_partial(self) -> Tuple[PhantomArray, float]:
        """Phantom assembled solution vector."""
        return PhantomArray((self.cfg.n,), np.float64), 0.0

    def ir_matvec_partial(self, v) -> Tuple[PhantomArray, float]:
        """Partial ``A @ v`` (same cost structure as the residual)."""
        return self.ir_residual_partial()

    def ir_apply_correction(self, d) -> float:
        """Charge the x-update (axpy) time."""
        return self.cm.gemv_time(1, self.cfg.n)  # axpy-scale cost

    def ir_reset_sweep(self, lower: bool) -> None:
        """No state to reset in phantom mode."""

    def result_payload(self) -> dict:
        """Timing-only result fields."""
        return {
            "exact": False,
            "ir_iterations": self.cfg.ir_fixed_iters,
        }


class ExactExecutor(ExecutorBase):
    """Real-data executor: NumPy kernels + the same modelled times."""

    exact = True

    def __init__(self, cfg: BenchmarkConfig, p_ir: int, p_ic: int, rank: int):
        super().__init__(cfg, p_ir, p_ic, rank)
        self.matrix = HplAiMatrix(cfg.n, cfg.seed)
        self.shim = get_shim(cfg.machine.platform)
        #: global block-row index of every owned row-block, for bulk
        #: scatter on the hot paths
        self._grow_blocks = (
            np.arange(cfg.row_dim.blocks_per_proc, dtype=np.int64)
            * cfg.p_rows + p_ir
        )
        self.local: Optional[np.ndarray] = None
        # triangular-sweep accumulators
        self.update_acc = np.zeros(cfg.n)
        self.solve_partial = np.zeros(cfg.n)
        # IR state
        self.x: Optional[np.ndarray] = None
        self.b_vec: Optional[np.ndarray] = None
        self.diag_a: Optional[np.ndarray] = None
        self.last_residual_norm = float("inf")
        self.ir_iterations = 0

    # -- factorization ---------------------------------------------------------

    def fill_local(self) -> float:
        """Generate the local pieces of A in FP64 and keep them in the
        storage precision (FP32 for HPL-AI).

        Mirrors Algorithm 1 line 2 + the host-to-device copy.  One
        :meth:`~repro.lcg.matrix.HplAiMatrix.band` read per local tile
        *row band* (full matrix width) replaces the per-tile loop; the
        block-cyclic layout has no padding, so the owned columns are a
        strided view of the band (``(b, N/(b·Q), Q, b)``, this rank's
        process column) cast straight into local storage.  Full-width
        bands are the canonical cache unit: the other ranks of this
        process row and every IR residual read the same cached array in
        place instead of regenerating or copying it.
        """
        cfg = self.cfg
        b = self.b
        nbc = cfg.col_dim.blocks_per_proc
        local = np.empty(
            (cfg.local_rows, cfg.local_cols), dtype=self.storage_dtype
        )
        tiles = local.reshape(cfg.row_dim.blocks_per_proc, b, nbc, b)
        with self._hotpath_span("fill_local"):
            for lr in range(cfg.row_dim.blocks_per_proc):
                gr = cfg.row_dim.global_block(self.p_ir, lr)
                band = self.matrix.band(gr * b, (gr + 1) * b)
                tiles[lr] = band.reshape(b, nbc, cfg.p_cols, b)[:, :, self.p_ic]
        self.local = local
        return self._t_fill()

    def _diag_view(self, k: int) -> np.ndarray:
        p = self.plan(k)
        return self.local[
            p.diag_r : p.diag_r + self.b, p.diag_c : p.diag_c + self.b
        ]

    def getrf_diag(self, k: int) -> Tuple[np.ndarray, float]:
        """Factor the diagonal block in place; return a copy + time."""
        block = self._diag_view(k)
        self.shim.getrf(block)
        return block.copy(), self._t_getrf()

    def trsm_row_panel(self, k: int, diag: np.ndarray) -> float:
        """Solve the U row panel in place (TRSM_L_LOW)."""
        p = self.plan(k)
        if p.trail_cols == 0:
            return 0.0
        row = slice(p.diag_r, p.diag_r + self.b)
        panel = self.local[row, p.c1 :]
        self.local[row, p.c1 :] = self.shim.trsm("L", "LOW", diag, panel)
        return self._t_trsm(p.trail_cols)

    def _panel_round(self, values: np.ndarray) -> np.ndarray:
        """Round a panel to the configured storage precision."""
        from repro.precision.bfloat import cast_panel

        return cast_panel(values, self.cfg.panel_precision)

    def _gemm_sub(self, c: np.ndarray, a: np.ndarray, bt: np.ndarray) -> None:
        """``C -= A @ B^T{-stored}`` in the configured panel precision.

        FP16 panels go through the tensor-core-contract shim (FP16
        operands, FP32 accumulate); bf16 panels are already-rounded FP32
        values, so the FP32 matmul *is* the bf16-in/FP32-accumulate
        contract.
        """
        if self.cfg.panel_precision == "fp16":
            self.shim.gemm_update(c, a, bt.T)
        else:
            c -= a @ np.ascontiguousarray(bt.T)

    def trans_cast_u(self, k: int) -> Tuple[np.ndarray, float]:
        """Transpose + round the U panel to panel precision."""
        p = self.plan(k)
        row = slice(p.diag_r, p.diag_r + self.b)
        u16t = self._panel_round(self.local[row, p.c1 :].T)
        return u16t, self._t_cast(p.trail_cols, self.b)

    def trsm_col_panel(self, k: int, diag: np.ndarray) -> float:
        """Solve the L column panel in place (TRSM_R_UP)."""
        p = self.plan(k)
        if p.trail_rows == 0:
            return 0.0
        col = slice(p.diag_c, p.diag_c + self.b)
        panel = self.local[p.r1 :, col]
        self.local[p.r1 :, col] = self.shim.trsm("R", "UP", diag, panel)
        return self._t_trsm(p.trail_rows)

    def cast_l(self, k: int) -> Tuple[np.ndarray, float]:
        """Round the L panel to panel precision."""
        p = self.plan(k)
        col = slice(p.diag_c, p.diag_c + self.b)
        l16 = self._panel_round(self.local[p.r1 :, col])
        return l16, self._t_cast(p.trail_rows, self.b)

    def strip_col_update(self, k: int, l16, u16t) -> float:
        """Look-ahead: update (rows >= k+1) x (col block k+1) early."""
        p = self.plan(k)
        if p.trail_rows == 0:
            return 0.0
        c = self.local[p.r1 :, p.c1 : p.c1 + self.b]
        self._gemm_sub(c, l16, u16t[: self.b])
        return self._t_gemm(p.trail_rows, self.b)

    def strip_row_update(self, k: int, l16, u16t, owns_col: bool) -> float:
        """Look-ahead: update (row block k+1) x (cols >= k+2) early."""
        p = self.plan(k)
        off = self.b if owns_col else 0
        cols = p.trail_cols - off
        if cols <= 0:
            return 0.0
        c = self.local[p.r1 : p.r1 + self.b, p.c1 + off :]
        self._gemm_sub(c, l16[: self.b], u16t[off:])
        return self._t_gemm(self.b, cols)

    def gemm_trailing(self, k: int, l16, u16t, skip_row: bool, skip_col: bool) -> float:
        """Apply the trailing update on the local tile."""
        self._note_step(k)
        p = self.plan(k)
        roff = self.b if skip_row else 0
        coff = self.b if skip_col else 0
        m = p.trail_rows - roff
        n = p.trail_cols - coff
        if m <= 0 or n <= 0:
            return 0.0
        c = self.local[p.r1 + roff :, p.c1 + coff :]
        self._gemm_sub(c, l16[roff:], u16t[coff:])
        return self._t_gemm(m, n)

    # -- iterative refinement --------------------------------------------------

    def ir_setup(self) -> float:
        """Generate b and diag(A); initialize x = b / diag(A)."""
        self.b_vec = self.matrix.rhs()
        self.diag_a = self.matrix.diagonal()
        self.x = self.b_vec / self.diag_a
        return self.cm.regen_time(2 * self.cfg.n)

    def ir_residual_partial(self) -> Tuple[np.ndarray, float]:
        """Algorithm 1 lines 34-42: partial ``-A x`` over this rank's tiles.

        x(k) is broadcast to the process column owning block-column k
        (line 37); each member then regenerates *its local rows* of that
        block-column in FP64 on the fly and multiplies — N^2/P entries of
        regeneration per rank.  (Our x is kept replicated, so the line-37
        broadcast is a no-op data-wise; the work distribution matches.)
        """
        partial = np.zeros(self.cfg.n)
        with self._hotpath_span("ir_residual"):
            self._tile_matvec(partial, self.x, sign=-1.0)
        if self.rank == 0:
            partial += self.b_vec
        return partial, self._t_ir_residual()

    def _tile_matvec(self, partial: np.ndarray, v: np.ndarray,
                     sign: float) -> None:
        """``partial += sign * (local tiles of A) @ v`` over owned tiles.

        Reads one full-width FP64 row band per local block row through
        :meth:`~repro.lcg.matrix.HplAiMatrix.band` — the same cache keys
        the fill populated, so after the first touch each refinement
        iteration's "regeneration" is a cache lookup that reads the
        cached band in place, without copying it.  The per-tile multiply
        order (ascending owned column) is kept so results are
        bitwise-identical to the historical per-tile loop.
        """
        cfg, b = self.cfg, self.b
        for lr in range(cfg.row_dim.blocks_per_proc):
            g = cfg.row_dim.global_block(self.p_ir, lr)
            band = self.matrix.band(g * b, (g + 1) * b)
            seg = partial[g * b : (g + 1) * b]
            for lc in range(cfg.col_dim.blocks_per_proc):
                j = cfg.col_dim.global_block(self.p_ic, lc)
                tile = band[:, j * b : (j + 1) * b]
                if sign < 0:
                    self.shim.gemv_update(seg, tile, v[j * b : (j + 1) * b])
                else:
                    seg += self.shim.gemv(tile, v[j * b : (j + 1) * b])

    def ir_matvec_partial(self, v: np.ndarray) -> Tuple[np.ndarray, float]:
        """Partial ``A @ v`` over this rank's tiles (for GMRES).

        Same on-the-fly regeneration pattern as the residual; the
        Allreduce of the partials yields the full product.
        """
        partial = np.zeros(self.cfg.n)
        with self._hotpath_span("ir_matvec"):
            self._tile_matvec(partial, v, sign=1.0)
        return partial, self._t_ir_residual()

    def ir_converged(self, r: np.ndarray) -> bool:
        """Algorithm 1 line 44 convergence test (identical on all ranks)."""
        self.last_residual_norm = float(np.max(np.abs(r)))
        tol = hpl_ai_tolerance(
            self.cfg.n,
            float(np.max(np.abs(self.diag_a))),
            float(np.max(np.abs(self.x))),
            float(np.max(np.abs(self.b_vec))),
        )
        if self.last_residual_norm < tol:
            return True
        self._ir_iter += 1
        return False

    # distributed triangular solves ------------------------------------------

    def _local_block(self, g_row: int, g_col: int) -> np.ndarray:
        """Local storage of global block (g_row, g_col); caller must
        ensure this rank owns it."""
        lr = self.cfg.row_dim.local_block(g_row)
        lc = self.cfg.col_dim.local_block(g_col)
        b = self.b
        return self.local[lr * b : (lr + 1) * b, lc * b : (lc + 1) * b]

    def ir_reset_sweep(self, lower: bool) -> None:
        """Zero the sweep accumulators."""
        self.update_acc[:] = 0.0
        self.solve_partial[:] = 0.0

    def ir_row_contrib(self, j: int, r, lower: bool) -> Tuple[np.ndarray, float]:
        """This rank's contribution to segment j's right-hand side."""
        b = self.b
        seg = self.update_acc[j * b : (j + 1) * b].copy()
        if self.p_ic == j % self.cfg.p_cols:
            # The diagonal-column member folds in the sweep's RHS segment.
            seg += r[j * b : (j + 1) * b]
        return seg, 0.0

    def ir_diag_solve(self, j: int, y, lower: bool) -> Tuple[np.ndarray, float]:
        """TRSV of the j-th diagonal block (stored factors, FP64 rhs)."""
        block = self._local_block(j, j).astype(np.float64, copy=False)
        if lower:
            w = self.shim.trsv_lower_unit(block, y)
        else:
            w = self.shim.trsv_upper(block, y)
        return w, self.cm.trsv_time(self.b)

    def ir_col_update(self, j: int, w, lower: bool) -> float:
        """Fold ``-T(i, j) @ w`` into the local accumulator for every
        local block-row i strictly below (lower) / above (upper) j.

        The participating local blocks are a contiguous run (global block
        index grows with local index), so the per-block GEMV loop
        collapses into one stacked ``(count*b, b) @ (b,)`` GEMV with a
        block-scatter of the result — bitwise-identical per-row dots.
        """
        b = self.b
        row_dim = self.cfg.row_dim
        total = row_dim.blocks_per_proc
        if lower:
            count = row_dim.local_blocks_at_or_after(self.p_ir, j + 1)
            lr0 = total - count
        else:
            count = total - row_dim.local_blocks_at_or_after(self.p_ir, j)
            lr0 = 0
        if count == 0:
            return self._charge_col_update(0)
        lc = self.cfg.col_dim.local_block(j)
        stacked = self.local[
            lr0 * b : (lr0 + count) * b, lc * b : (lc + 1) * b
        ].astype(np.float64, copy=False)
        prod = stacked @ w
        acc = self.update_acc.reshape(-1, b)
        acc[self._grow_blocks[lr0 : lr0 + count]] -= prod.reshape(count, b)
        return self._charge_col_update(count)

    def ir_store_solution_segment(self, j: int, w) -> None:
        """Record segment j of the sweep solution."""
        b = self.b
        self.solve_partial[j * b : (j + 1) * b] = w

    def ir_solution_partial(self) -> Tuple[np.ndarray, float]:
        """This rank's stored solution segments (zeros elsewhere)."""
        return self.solve_partial.copy(), 0.0

    def ir_apply_correction(self, d: np.ndarray) -> float:
        """x += d; count the refinement iteration."""
        self.x += d
        self.ir_iterations += 1
        return self.cm.gemv_time(1, self.cfg.n)

    # -- results ---------------------------------------------------------------

    def result_payload(self) -> dict:
        """Exact result fields: x, residual, iteration count."""
        if self.x is None:
            raise ConfigurationError("ir_setup was never run")
        return {
            "exact": True,
            "x": self.x.copy(),
            "residual_norm": self.last_residual_norm,
            "ir_iterations": self.ir_iterations,
        }
