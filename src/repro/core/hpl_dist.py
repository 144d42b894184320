"""Distributed FP64 HPL: right-looking LU with partial pivoting.

The paper's headline compares HPL-AI against HPL; this module implements
the double-precision baseline *as a distributed algorithm* on the same
virtual machine, so the mixed-precision speedup can be measured inside
the event engine rather than only anchored to published numbers.

It is the same rank program as HPL-AI (:mod:`repro.core.hplai`: fill,
``factorization_phase``, broadcasts, trailing update, the distributed
triangular sweeps of :mod:`repro.core.refine`) run on an
:class:`HplExecutor`, whose class names the two pieces that differ:

- :func:`_pivoted_panel_phase` — everything is FP64 (no casts), and the
  panel factorization pivots column by column within the process column
  owning the panel; the row interchanges are then applied to the rest
  of the matrix LASWP-style, as point-to-point row exchanges between
  owner ranks, before the U panel is solved;
- :func:`_pivoted_solve_phase` — no refinement: the accumulated
  interchanges are applied to b and the sweeps run once.

No look-ahead (HPL's own look-ahead story is equivalent to HPL-AI's):
intended for exact-mode validation at small N plus per-operation timing.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

import numpy as np

from repro.core.config import BenchmarkConfig
from repro.core.driver import _run_ranks
from repro.core.executors import ExactExecutor
from repro.core.hplai import _sync_bcast
from repro.core.refine import triangular_sweep
from repro.errors import SingularMatrixError
from repro.obs import context as obs_context
from repro.simulate.events import Barrier, Compute, Now
from repro.util import flops as fl

_TAG_BASE = 1 << 24


def _tag(k: int, phase: int, j: int = 0) -> int:
    return _TAG_BASE + (k * 8 + phase) * 4096 + j


# Wire phases of one step.  Phases 2 and 3 are the U / L panel
# broadcasts of the shared step (repro.obs.phases.TAG_U_PANEL /
# TAG_L_PANEL through HplExecutor.step_tag).
#: MAXLOC candidates to the diagonal-row owner, per panel column j
TAG_PIVROW = 0
#: the winning (|value|, row) back to the column members, per column j
TAG_SWAP = 1
#: factored diagonal block along the pivot process row.  Shares phase 2
#: with the U panel and cannot collide with it: an engine mailbox is
#: keyed (src, dst, tag), every edge of a row broadcast joins two ranks
#: of one process row, every edge of a column broadcast two ranks of
#: one process column, and two distinct ranks share at most one of them.
TAG_DIAG_BCAST = 2
#: in-panel exchange of rows ``col`` and ``pivot_row``, per column j
TAG_SWAP_TRAIL = 4
#: pivot row's panel segment down the panel's process column, per column j
TAG_PIVROW_BCAST = 5
#: the panel's pivot list along the process rows
TAG_IPIV = 6
#: batched LASWP exchange — one message per (panel, peer pair), so the
#: phase needs no per-column ``j`` offset.  (The old per-column scheme
#: added ``span_idx`` to ``_tag(k, 7, j)``, which aliased column j+1's
#: span-0 tag between the same rank pair.)
TAG_LASWP = 7


class HplExecutor(ExactExecutor):
    """Per-rank FP64 storage and kernels for distributed HPL.

    The exact executor with FP64 as its storage precision: fill, plan
    memo, block lookup and the sweep kernels are inherited; the FP64
    TRSM / GEMM and their charged times, and the pivoting pieces, are
    its own.  ``matrix`` is any object with ``block(r0, r1, c0, c1)``,
    the read-only full-width ``band(r0, r1)`` and ``rhs()``; HPL proper
    runs general matrices, so tests inject non-dominant ones to exercise
    the pivoting.
    """

    storage_dtype = np.dtype(np.float64)
    step_tag = staticmethod(_tag)

    def panel_phase(self, comm, k: int):
        """Generator: this rank's step-k panels, pivoted."""
        return _pivoted_panel_phase(self.cfg, self, comm, k)

    def solve_phase(self, comm, t_start: float):
        """Generator: the pivoted direct solve and its result dict."""
        return _pivoted_solve_phase(self.cfg, self, comm, t_start)

    def __init__(self, cfg: BenchmarkConfig, p_ir: int, p_ic: int, rank: int,
                 matrix=None):
        super().__init__(cfg, p_ir, p_ic, rank)
        if matrix is not None:
            self.matrix = matrix
        #: global element index per local row, strictly increasing
        self._grows = cfg.row_dim.element_indices(p_ir)
        #: global pivot rows, ipiv[g] = row swapped with row g at step g
        self.ipiv: List[int] = []

    # -- panel factorization pieces ----------------------------------------------

    def local_pivot_candidate(self, col: int, row_start: int) -> Tuple[float, int]:
        """(|value|, global row) of this rank's best pivot in ``col`` at
        or below ``row_start`` (rank must own the column).

        The candidate rows form a contiguous local suffix (global index
        grows with local index), so this is a single masked argmax; ties
        resolve to the first (lowest local = lowest global) occurrence,
        exactly as the historical per-block scan did.
        """
        lc = self.cfg.col_dim.local_index(col)
        lo = int(np.searchsorted(self._grows, row_start))
        if lo >= self._grows.size:
            return -1.0, -1
        col_abs = np.abs(self.local[lo:, lc])
        idx = int(np.argmax(col_abs))
        return float(col_abs[idx]), int(self._grows[lo + idx])

    def gather_row(self, global_row: int, spans) -> np.ndarray:
        """Copy of one local row's columns over ``spans`` (local column
        offset pairs ``[lo, hi)``), concatenated into a flat buffer."""
        lr = self.cfg.row_dim.local_index(global_row)
        if len(spans) == 1:
            lo, hi = spans[0]
            return self.local[lr, lo:hi].copy()
        return np.concatenate([self.local[lr, lo:hi] for lo, hi in spans])

    def scatter_row(self, global_row: int, spans, values: np.ndarray) -> None:
        """Inverse of :meth:`gather_row`: write the flat buffer back."""
        lr = self.cfg.row_dim.local_index(global_row)
        off = 0
        for lo, hi in spans:
            self.local[lr, lo:hi] = values[off: off + hi - lo]
            off += hi - lo

    def scale_and_update_panel(self, col: int, row_start: int,
                               pivot_row_seg: np.ndarray, pivot_val: float,
                               panel_lo: int, panel_hi: int) -> float:
        """Rank-1 update of this rank's panel rows below ``row_start``.

        ``pivot_row_seg`` holds the pivot row's panel segment (columns
        [panel_lo, panel_hi) locally); ``col`` is the global column being
        eliminated.
        """
        if pivot_val == 0.0 or not np.isfinite(pivot_val):
            raise SingularMatrixError(
                f"zero/non-finite pivot in column {col}"
            )
        lc = self.cfg.col_dim.local_index(col)
        j_in_panel = lc - panel_lo
        # The MAXLOC exchange carries |pivot|; the *signed* pivot is the
        # broadcast pivot row's own entry.
        signed_pivot = float(pivot_row_seg[j_in_panel])
        if signed_pivot == 0.0:
            raise SingularMatrixError(f"zero pivot in column {col}")
        # The rows at/below row_start are a contiguous local suffix, so
        # the whole update is one scale + one outer product (elementwise
        # identical to the old per-block loop).
        r0 = int(np.searchsorted(self._grows, row_start))
        count = self.cfg.local_rows - r0
        if count > 0:
            block = self.local[r0:, panel_lo:panel_hi]
            multipliers = block[:, j_in_panel] / signed_pivot
            block[:, j_in_panel] = multipliers
            if j_in_panel + 1 < pivot_row_seg.size:
                block[:, j_in_panel + 1:] -= np.outer(
                    multipliers, pivot_row_seg[j_in_panel + 1:]
                )
        # A slice of the rank-1 update's flops.
        return fl.gemm_flops(count, panel_hi - panel_lo, 1) / max(
            self.km.fp64_gemm_rate(max(count, 1), panel_hi - panel_lo, 32), 1.0
        )

    # -- post-panel phases ---------------------------------------------------------

    def extract_l_panel(self, k: int) -> np.ndarray:
        """L panel chunk (trailing local rows x B), FP64."""
        plan = self.plan(k)
        return self.local[plan.r1:, plan.diag_c: plan.diag_c + self.b].copy()

    def trsm_row_panel(self, k: int, diag: np.ndarray) -> float:
        """U panel: solve L11 X = A12 on the pivot row."""
        import scipy.linalg as sla

        plan = self.plan(k)
        if plan.trail_cols == 0:
            return 0.0
        row = slice(plan.diag_r, plan.diag_r + self.b)
        lower = np.tril(diag, -1) + np.eye(self.b)
        self.local[row, plan.c1:] = sla.solve_triangular(
            lower, self.local[row, plan.c1:], lower=True, unit_diagonal=True
        )
        return fl.trsm_flops(self.b, plan.trail_cols) / max(
            self.km.fp64_gemm_rate(self.b, plan.trail_cols, self.b), 1.0
        )

    def extract_u_panel(self, k: int) -> np.ndarray:
        """Copy of the solved U row panel (trailing columns)."""
        plan = self.plan(k)
        row = slice(plan.diag_r, plan.diag_r + self.b)
        return self.local[row, plan.c1:].copy()

    def extract_diag(self, k: int) -> np.ndarray:
        """Copy of the factored diagonal block (packed L\\U)."""
        return self._diag_view(k).copy()

    def gemm_trailing(self, k: int, l16: np.ndarray, u16t: np.ndarray,
                      skip_row: bool = False, skip_col: bool = False) -> float:
        """FP64 trailing update; returns the modelled time.

        The panels travel as extracted — ``l16`` is the FP64 L chunk and
        ``u16t`` the FP64 U chunk, neither cast nor transposed — and the
        synchronous schedule never skips a strip.
        """
        plan = self.plan(k)
        m, n = plan.trail_rows, plan.trail_cols
        if m == 0 or n == 0:
            return 0.0
        self.local[plan.r1:, plan.c1:] -= l16 @ u16t
        return self.km.fp64_gemm_time(m, n, self.b)

    def _charge_col_update(self, nblocks: int) -> float:
        """Unpipelined sweep timing: the whole stacked GEMV sits on the
        serial chain, nothing is deferred."""
        return self._t_ir_block_gemv(nblocks)


def _pivot_reduce(candidates):
    """Combine (|value|, row) candidates with MPI_MAXLOC semantics.

    Largest value wins; equal values resolve to the lowest row index.
    The ``(-1.0, -1)`` "no candidate" sentinel never wins against a real
    candidate, whatever the arrival order.
    """
    best = (-1.0, -1)
    for val, row in candidates:
        if row < 0:
            continue  # sentinel: rank had no rows in range
        if val > best[0] or (val == best[0] and (best[1] < 0 or row < best[1])):
            best = (val, row)
    return best


def _laswp_permutation(ipiv, col_lo: int, col_hi: int) -> dict:
    """Net row permutation of one panel's swap sequence.

    Applying the swaps ``(col, ipiv[col])`` for ``col`` in
    ``[col_lo, col_hi)`` in order leaves row ``dest`` holding the
    original contents of row ``sigma[dest]``.  Identity entries are
    dropped, so an empty dict means the panel needs no interchanges.
    """
    cur: dict = {}
    for col in range(col_lo, col_hi):
        p = ipiv[col]
        if p == col:
            continue
        cur[col], cur[p] = cur.get(p, p), cur.get(col, col)
    return {dest: src for dest, src in cur.items() if dest != src}


def _apply_laswp_batched(cfg, ex: HplExecutor, comm, grid, k: int,
                         spans, sigma: dict):
    """Apply one panel's net row permutation with batched exchanges.

    Both sides of every exchange derive the same (dest, src) list from
    ``sigma`` in ascending-dest order, so a single stacked array per
    (peer, direction) replaces the old per-column send/recv pairs.  All
    source rows are snapshotted before any write (copy-before-overwrite),
    which is what makes applying the *net* permutation equivalent to the
    sequential swap-by-swap data movement.
    """
    row_dim = cfg.row_dim
    my = ex.p_ir
    incoming: dict = {}   # peer p_ir -> [(dest, src)] ascending dest
    outgoing: dict = {}
    local_moves = []
    src_rows_needed = set()
    for dest in sorted(sigma):
        src = sigma[dest]
        dest_owner = row_dim.owner_of_index(dest)
        src_owner = row_dim.owner_of_index(src)
        if dest_owner == my and src_owner == my:
            local_moves.append((dest, src))
            src_rows_needed.add(src)
        elif dest_owner == my:
            incoming.setdefault(src_owner, []).append((dest, src))
        elif src_owner == my:
            outgoing.setdefault(dest_owner, []).append((dest, src))
            src_rows_needed.add(src)
    if not (incoming or outgoing or local_moves):
        return
    old = {src: ex.gather_row(src, spans) for src in src_rows_needed}
    with ex._hotpath_span("laswp_batch", panel=k):
        for peer in sorted(set(incoming) | set(outgoing)):
            out_rows = outgoing.get(peer)
            in_rows = incoming.get(peer)
            peer_rank = grid.rank_of(peer, ex.p_ic)
            payload = (
                np.stack([old[src] for _dest, src in out_rows])
                if out_rows else None
            )
            # Lower process row sends first — a deterministic order both
            # sides agree on (the engine's sends are buffered, but the
            # discipline keeps the protocol rendezvous-safe).
            if payload is not None and my < peer:
                yield from comm.send(peer_rank, payload, _tag(k, TAG_LASWP))
            if in_rows:
                theirs = yield from comm.recv(peer_rank, _tag(k, TAG_LASWP))
            if payload is not None and my > peer:
                yield from comm.send(peer_rank, payload, _tag(k, TAG_LASWP))
            if in_rows:
                for (dest, _src), row_vals in zip(in_rows, theirs):
                    ex.scatter_row(dest, spans, row_vals)
        for dest, src in local_moves:
            ex.scatter_row(dest, spans, old[src])


def _column_strip(m, cfg: BenchmarkConfig, jj: int) -> np.ndarray:
    """Full-height column block ``jj`` of ``m`` for the residual check.

    Cache-backed LCG matrices are assembled from the full-width row bands
    the distributed fill already cached, read in place, so no entry is
    regenerated or copied whole; the values are identical either way
    (each entry is a pure function of its global position).
    """
    b = cfg.block
    if not getattr(m, "use_cache", False):
        return m.block(0, cfg.n, jj * b, (jj + 1) * b)
    return np.concatenate([
        m.band(g * b, (g + 1) * b)[:, jj * b:(jj + 1) * b]
        for g in range(cfg.num_blocks)
    ])


def _pivoted_panel_phase(cfg: BenchmarkConfig, ex: HplExecutor, comm, k: int):
    """Produce this rank's step-k panels with partial pivoting.

    Panel factorization column by column (MAXLOC search, in-panel row
    swap, pivot-row broadcast, rank-1 update), the panel's pivot list
    along the rows, the batched LASWP, the diagonal block along the
    pivot row and the U-panel TRSM.  Returns ``(u, l)``: the FP64 U / L
    chunks this rank produced (None for the ones it will receive).
    """
    grid = cfg.grid
    rank = ex.rank
    b = cfg.block
    ipiv = ex.ipiv
    plan = ex.plan(k)
    kc = plan.owner_col
    in_panel_col = plan.in_pivot_col
    panel_lo, panel_hi = plan.diag_c, plan.diag_c + b
    panel = [(panel_lo, panel_hi)]

    # ---- panel factorization with partial pivoting -----------------------
    if in_panel_col:
        col_members = grid.col_members(kc)
        for j in range(b):
            col = k * b + j
            cand = ex.local_pivot_candidate(col, col)
            # Pivot selection (MPI_MAXLOC equivalent): every column
            # member sends its best candidate to the diagonal-row
            # owner, which picks the winner and rebroadcasts it.
            diag_owner = grid.rank_of(cfg.row_dim.owner_of_index(col), kc)
            if rank == diag_owner:
                cands = [cand]
                for src in col_members:
                    if src != rank:
                        cands.append(
                            (yield from comm.recv(src, _tag(k, TAG_PIVROW, j)))
                        )
                pivot_val, pivot_row = _pivot_reduce(cands)
                for dst in col_members:
                    if dst != rank:
                        yield from comm.send(
                            dst, (pivot_val, pivot_row), _tag(k, TAG_SWAP, j)
                        )
            else:
                yield from comm.send(diag_owner, cand, _tag(k, TAG_PIVROW, j))
                pivot_val, pivot_row = yield from comm.recv(
                    diag_owner, _tag(k, TAG_SWAP, j)
                )
            if pivot_row < 0 or pivot_val == 0.0:
                raise SingularMatrixError(f"singular at column {col}")
            ipiv.append(pivot_row)

            # Swap rows `col` and `pivot_row` within the panel.
            if pivot_row != col:
                owner_a = cfg.row_dim.owner_of_index(col)
                owner_b = cfg.row_dim.owner_of_index(pivot_row)
                if owner_a == owner_b:
                    if ex.p_ir == owner_a:
                        ra = ex.gather_row(col, panel)
                        ex.scatter_row(col, panel, ex.gather_row(pivot_row, panel))
                        ex.scatter_row(pivot_row, panel, ra)
                elif ex.p_ir in (owner_a, owner_b):
                    # Cross-row exchange; the owner of `col` sends first.
                    first = ex.p_ir == owner_a
                    my_row = col if first else pivot_row
                    other_rank = grid.rank_of(owner_b if first else owner_a, kc)
                    mine = ex.gather_row(my_row, panel)
                    tag = _tag(k, TAG_SWAP_TRAIL, j)
                    if first:
                        yield from comm.send(other_rank, mine, tag)
                    theirs = yield from comm.recv(other_rank, tag)
                    if not first:
                        yield from comm.send(other_rank, mine, tag)
                    ex.scatter_row(my_row, panel, theirs)

            # Broadcast the pivot row's panel segment for the update.
            pivot_seg = yield from _sync_bcast(
                cfg, comm,
                ex.gather_row(col, panel) if rank == diag_owner else None,
                diag_owner, col_members, _tag(k, TAG_PIVROW_BCAST, j), "bcast",
            )
            secs = ex.scale_and_update_panel(
                col, col + 1, pivot_seg, pivot_val, panel_lo, panel_hi
            )
            yield Compute("getrf", secs)

    # Broadcast the pivot list for this panel along the rows: every rank
    # needs it for LASWP and for the solve.
    if cfg.p_cols > 1:
        panel_piv = yield from _sync_bcast(
            cfg, comm, tuple(ipiv[k * b:]) if in_panel_col else None,
            grid.rank_of(ex.p_ir, kc), grid.row_members(ex.p_ir),
            _tag(k, TAG_IPIV), "bcast",
        )
        if not in_panel_col:
            ipiv.extend(panel_piv)

    # ---- apply interchanges LAPACK-style (LASWP), batched --------------
    # Full-width row swaps — including previously factored L columns —
    # so that the stored factors are exactly those of P A and the
    # solve is two clean triangular sweeps on the permuted b.  The
    # panel's own columns were already swapped during factorization
    # on the panel owners, so they are excluded there.  The panel's
    # column-by-column swap sequence composes into one net row
    # permutation that every rank derives from the shared ipiv, so
    # all interchanges collapse into at most one stacked send/recv
    # pair per peer process row (tag phase TAG_LASWP, no per-column
    # or per-span tag arithmetic).
    if in_panel_col:
        spans = [(0, panel_lo), (panel_hi, cfg.local_cols)]
    else:
        spans = [(0, cfg.local_cols)]
    spans = [(lo, hi) for lo, hi in spans if hi > lo]
    sigma = _laswp_permutation(ipiv, k * b, (k + 1) * b)
    if spans and sigma:
        yield from _apply_laswp_batched(cfg, ex, comm, grid, k, spans, sigma)

    # ---- diagonal block along the pivot row, U-panel TRSM ----------------
    diag = ex.extract_diag(k) if plan.is_owner else None
    if plan.in_pivot_row and cfg.p_cols > 1:
        diag = yield from _sync_bcast(
            cfg, comm, diag, grid.rank_of(plan.owner_row, plan.owner_col),
            grid.row_members(plan.owner_row), _tag(k, TAG_DIAG_BCAST), "bcast",
        )
    u_panel = l_panel = None
    if plan.in_pivot_row:
        secs = ex.trsm_row_panel(k, diag)
        yield Compute("trsm", secs)
        u_panel = ex.extract_u_panel(k)
    if in_panel_col:
        l_panel = ex.extract_l_panel(k)
    return u_panel, l_panel


def _pivoted_solve_phase(cfg: BenchmarkConfig, ex: HplExecutor, comm,
                         t_start: float):
    """Permute b, run the two distributed sweeps once, check the
    residual outside the timed window.

    Returns ``{"x", "residual_norm", "t_total", ...}`` (exact data).
    """
    everyone = cfg.grid.all_ranks
    b = cfg.block
    yield Barrier(everyone)
    t_fact = yield Now()

    m = ex.matrix
    b_vec = m.rhs().copy()
    for g, p in enumerate(ex.ipiv):
        if p != g:
            b_vec[[g, p]] = b_vec[[p, g]]
    yield from triangular_sweep(cfg, ex, comm, b_vec, lower=True, iteration=0)
    wp, _ = ex.ir_solution_partial()
    w = yield from comm.allreduce(wp, everyone)
    yield from triangular_sweep(cfg, ex, comm, w, lower=False, iteration=0)
    xp, _ = ex.ir_solution_partial()
    x = yield from comm.allreduce(xp, everyone)
    yield Barrier(everyone)
    t_end = yield Now()

    # residual check: the first process row regenerates its process
    # column's blocks (full height) so each global column contributes
    # exactly once to the Allreduce.
    partial_ax = np.zeros(cfg.n)
    if ex.p_ir == 0:
        for lc in range(cfg.col_dim.blocks_per_proc):
            jj = cfg.col_dim.global_block(ex.p_ic, lc)
            tile = _column_strip(m, cfg, jj)
            partial_ax += tile @ x[jj * b:(jj + 1) * b]
    ax = yield from comm.allreduce(partial_ax, everyone)
    residual = float(np.max(np.abs(m.rhs() - ax)))

    return {
        "x": x,
        "residual_norm": residual,
        "t_factorization": t_fact - t_start,
        "t_total": t_end - t_start,
        "ipiv": list(ex.ipiv),
    }


def solve_hpl_distributed(cfg: BenchmarkConfig, matrix=None):
    """Run the distributed FP64 HPL on the event engine; returns a dict
    with the solution, residual and simulated times (from rank 0).

    ``matrix`` optionally overrides the input (any object with
    ``block(r0, r1, c0, c1)``, ``band(r0, r1)`` and ``rhs()``) so
    general, pivot-requiring systems can be solved.
    """
    outcome = _run_ranks(
        cfg, partial(HplExecutor, matrix=matrix), obs_context.current()
    )
    result = dict(outcome.returns[0])
    result["elapsed"] = outcome.elapsed
    result["stats"] = outcome.stats
    return result
