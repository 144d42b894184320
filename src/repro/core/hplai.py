"""The distributed block-LU rank program (Algorithm 1).

One generator per rank, engine-agnostic: local math and its modelled
cost come from the executor, communication goes through
:class:`repro.comm.RankComm`.  :func:`factorization_phase` is the only
step loop in the package: each step is *produce my panels* → broadcast
panels → trailing update.  Producing the panels is the seam between
programs — unpivoted HPL-AI (exact or phantom executor) factors the
diagonal, solves and casts (:func:`_diag_phase`, :func:`_panel_compute`);
FP64 HPL names its pivoted panel phase on its executor class
(:attr:`ExecutorBase.panel_phase`, see :mod:`repro.core.hpl_dist`).

Two schedules are provided:

- **synchronous** (``lookahead=False``, and every pivoted program): each
  step produces and broadcasts the panels, then updates the whole
  trailing matrix — communication sits on the critical path;
- **look-ahead** (``lookahead=True``, Section IV-B): while the step-k
  panels update the bulk of the trailing matrix, the step-(k+1) column
  and row strips are updated first, factored, solved, cast, and their
  broadcasts *initiated* — so the panel broadcast rides under the big
  GEMM and the last two terms of eq. (1) become
  ``max(T_BCAST_PANEL, T_GEMM)``.

Broadcasts are routed (hardware-progressed: the root launches, non-roots
receive) or, with ``progression="inband"``, relayed inside the rank
programs: root and non-roots then meet in ``comm.bcast`` where a routed
non-root would receive.

Wire-tag layout: step ``k`` uses the logical tags ``ex.step_tag(k,
phase)`` — ``8k .. 8k+3`` (diag-row, diag-col, U-panel, L-panel) for
HPL-AI; iterative refinement uses a disjoint high window (see
:mod:`repro.core.refine`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.comm.vmpi import RankComm
from repro.core.config import BenchmarkConfig
from repro.core.executors import ExecutorBase
from repro.core.refine import refinement_phase
from repro.obs.phases import (
    TAG_DIAG_COL,
    TAG_DIAG_ROW,
    TAG_L_PANEL,
    TAG_U_PANEL,
)
from repro.simulate.events import Barrier, Compute, Now


def _sync_bcast(cfg, comm: RankComm, payload, root: int, members, tag: int,
                algorithm: Optional[str] = None):
    """One member's side of a broadcast that every member enters at the
    same program point; ``yield from`` it for the payload.

    Routed, the root launches and the others receive; in-band, all of
    them run the relay generator.  Returns the comm generator itself
    (hence the lint waivers: the caller's ``yield from`` drives it), so
    no frame of its own sits between the rank program and the engine.
    """
    if cfg.progression == "inband":
        return comm.bcast(  # lint: ignore[hygiene]
            payload, root, members, tag, algorithm=algorithm)
    if comm.rank == root:
        return comm.bcast_start(  # lint: ignore[hygiene]
            payload, root, members, tag, algorithm=algorithm)
    return comm.bcast_finish(root, tag)  # lint: ignore[hygiene]


def _diag_phase(cfg: BenchmarkConfig, ex: ExecutorBase, comm: RankComm, k: int):
    """Factor A(k,k) on its owner and broadcast it along the pivot row
    and column (Algorithm 1 lines 7-10).  Returns the packed LU diag
    block on every participating rank (None elsewhere)."""
    grid = cfg.grid
    plan = ex.plan(k)
    owner_rank = grid.rank_of(plan.owner_row, plan.owner_col)
    diag = None
    if plan.is_owner:
        diag, secs = ex.getrf_diag(k)
        yield Compute("getrf", secs)
    if plan.in_pivot_row and cfg.p_cols > 1:
        diag = yield from _sync_bcast(
            cfg, comm, diag, owner_rank, grid.row_members(plan.owner_row),
            ex.step_tag(k, TAG_DIAG_ROW), cfg.diag_algorithm,
        )
    if plan.in_pivot_col and cfg.p_rows > 1:
        diag = yield from _sync_bcast(
            cfg, comm, diag, owner_rank, grid.col_members(plan.owner_col),
            ex.step_tag(k, TAG_DIAG_COL), cfg.diag_algorithm,
        )
    return diag


def _panel_compute(cfg, ex, comm, k: int, diag):
    """TRSM + cast the panels this rank owns (lines 11-15 / 20-24).

    Returns ``(u16t, l16)`` with the panels this rank *produced* (None
    for the ones it will receive).
    """
    plan = ex.plan(k)
    u16t = l16 = None
    if plan.in_pivot_row and plan.trail_cols > 0:
        secs = ex.trsm_row_panel(k, diag)
        yield Compute("trsm", secs)
        u16t, secs = ex.trans_cast_u(k)
        yield Compute("cast", secs)
    if plan.in_pivot_col and plan.trail_rows > 0:
        secs = ex.trsm_col_panel(k, diag)
        yield Compute("trsm", secs)
        l16, secs = ex.cast_l(k)
        yield Compute("cast", secs)
    return u16t, l16


def _panel_bcast_start(cfg, ex, comm: RankComm, k: int, u16t, l16):
    """Launch the two routed panel broadcasts (lines 16 / 25) from the
    roots, ahead of the point where the other ranks need them."""
    grid = cfg.grid
    plan = ex.plan(k)
    p_ir, p_ic = ex.p_ir, ex.p_ic
    if plan.trail_cols > 0 and cfg.p_rows > 1 and plan.in_pivot_row:
        # I own the U chunk for my process column; send it down the column.
        members = grid.col_members(p_ic)
        root = grid.rank_of(plan.owner_row, p_ic)
        yield from comm.bcast_start(
            u16t, root, members, ex.step_tag(k, TAG_U_PANEL))
    if plan.trail_rows > 0 and cfg.p_cols > 1 and plan.in_pivot_col:
        members = grid.row_members(p_ir)
        root = grid.rank_of(p_ir, plan.owner_col)
        yield from comm.bcast_start(
            l16, root, members, ex.step_tag(k, TAG_L_PANEL))


def _panel_bcast_finish(cfg, ex, comm: RankComm, k: int, u16t, l16,
                        launched: bool = True):
    """Complete the panel broadcasts: U down the process columns, then L
    along the process rows; returns both panels on every rank.

    With ``launched`` the roots started theirs in
    :func:`_panel_bcast_start` and only the other ranks receive here;
    otherwise each panel's root and non-roots meet here.
    """
    grid = cfg.grid
    plan = ex.plan(k)
    if plan.trail_cols > 0 and cfg.p_rows > 1:
        root = grid.rank_of(plan.owner_row, ex.p_ic)
        if not launched:
            u16t = yield from _sync_bcast(
                cfg, comm, u16t, root, grid.col_members(ex.p_ic),
                ex.step_tag(k, TAG_U_PANEL))
        elif not plan.in_pivot_row:
            u16t = yield from comm.bcast_finish(
                root, ex.step_tag(k, TAG_U_PANEL))
    if plan.trail_rows > 0 and cfg.p_cols > 1:
        root = grid.rank_of(ex.p_ir, plan.owner_col)
        if not launched:
            l16 = yield from _sync_bcast(
                cfg, comm, l16, root, grid.row_members(ex.p_ir),
                ex.step_tag(k, TAG_L_PANEL))
        elif not plan.in_pivot_col:
            l16 = yield from comm.bcast_finish(
                root, ex.step_tag(k, TAG_L_PANEL))
    return u16t, l16


def _full_panel_step(cfg, ex, comm, k: int):
    """Synchronous step: produce this rank's panels, broadcast them;
    returns (u16t, l16)."""
    if ex.panel_phase is None:
        diag = yield from _diag_phase(cfg, ex, comm, k)
        u16t, l16 = yield from _panel_compute(cfg, ex, comm, k, diag)
    else:
        u16t, l16 = yield from ex.panel_phase(comm, k)
    # The unpivoted routed step launches both panels before it receives
    # either; the pivoted step keeps its per-panel order (U, then L,
    # root or not), which is also the only order in-band relays allow.
    launched = ex.panel_phase is None and cfg.progression == "routed"
    if launched:
        yield from _panel_bcast_start(cfg, ex, comm, k, u16t, l16)
    return (yield from _panel_bcast_finish(
        cfg, ex, comm, k, u16t, l16, launched))


def factorization_phase(
    cfg: BenchmarkConfig,
    ex: ExecutorBase,
    comm: RankComm,
    trace: Optional[List[dict]] = None,
):
    """Run the block LU factorization; yields engine ops.

    ``trace``, when given (rank 0), receives one dict per iteration with
    wall-clock phase boundaries for the Fig-10 style breakdown.
    """
    nb = cfg.num_blocks
    pivoted = ex.panel_phase is not None

    if pivoted or not cfg.lookahead:
        # The unpivoted program has always read the step clocks, traced
        # or not (the engine goldens pin its op count); the pivoted one
        # reads them only for a trace.
        clocked = trace is not None or not pivoted
        for k in range(nb):
            if clocked:
                t0 = yield Now()
            u16t, l16 = yield from _full_panel_step(cfg, ex, comm, k)
            if clocked:
                t1 = yield Now()
            secs = ex.gemm_trailing(k, u16t=u16t, l16=l16, skip_row=False,
                                    skip_col=False)
            yield Compute("gemm", secs)
            if trace is not None:
                t2 = yield Now()
                trace.append({"k": k, "panel": t1 - t0, "gemm": t2 - t1,
                              "recv": 0.0})
        return

    # -- look-ahead schedule -------------------------------------------------
    u16t, l16 = yield from _full_panel_step(cfg, ex, comm, 0)
    for k in range(nb):
        nxt = k + 1
        plan = ex.plan(k)
        owns_next_row = plan.owns_next_row
        owns_next_col = plan.owns_next_col
        t0 = yield Now()
        if nxt < nb:
            # Pre-update the strips the next panels live in.
            if owns_next_col:
                secs = ex.strip_col_update(k, l16, u16t)
                yield Compute("gemm", secs)
            if owns_next_row:
                secs = ex.strip_row_update(k, l16, u16t, owns_next_col)
                yield Compute("gemm", secs)
            # Factor/solve/cast the next panels and launch their broadcasts.
            diag_next = yield from _diag_phase(cfg, ex, comm, nxt)
            nxt_u, nxt_l = yield from _panel_compute(cfg, ex, comm, nxt, diag_next)
            yield from _panel_bcast_start(cfg, ex, comm, nxt, nxt_u, nxt_l)
        t1 = yield Now()
        # The bulk trailing update overlaps the panel broadcasts in flight.
        secs = ex.gemm_trailing(
            k, l16=l16, u16t=u16t, skip_row=owns_next_row, skip_col=owns_next_col
        )
        yield Compute("gemm", secs)
        t2 = yield Now()
        if nxt < nb:
            u16t, l16 = yield from _panel_bcast_finish(cfg, ex, comm, nxt, nxt_u, nxt_l)
        if trace is not None:
            t3 = yield Now()
            trace.append(
                {"k": k, "panel": t1 - t0, "gemm": t2 - t1, "recv": t3 - t2}
            )


def hplai_rank_program(
    cfg: BenchmarkConfig,
    ex: ExecutorBase,
    rank: int,
    trace: Optional[List[dict]] = None,
):
    """Full benchmark program for one rank: fill, factorize, then
    refine — or, for an executor that names one, its own ``solve_phase``
    (FP64 HPL's pivoted direct solve).

    Returns a dict with the executor's result payload plus the wall-clock
    phase boundaries (virtual seconds).
    """
    comm = RankComm(
        rank,
        cfg.machine.mpi,
        bcast_algorithm=cfg.bcast_algorithm,
        ring_segments=cfg.ring_segments,
        node_of=cfg.node_grid.node_of_rank,
    )
    comm.allreduce_algorithm = cfg.allreduce_algorithm
    everyone = cfg.grid.all_ranks

    secs = ex.fill_local()
    yield Compute("fill", secs)
    yield Barrier(everyone)
    t_start = yield Now()

    my_trace = trace if rank == 0 else None
    yield from factorization_phase(cfg, ex, comm, my_trace)
    if ex.solve_phase is not None:
        return (yield from ex.solve_phase(comm, t_start))

    secs = ex.transfer_to_host()
    yield Compute("d2h", secs)
    yield Barrier(everyone)
    t_fact = yield Now()

    if cfg.refinement_solver == "gmres":
        from repro.core.gmres import gmres_refinement_phase

        ir_info = yield from gmres_refinement_phase(cfg, ex, comm)
    else:
        ir_info = yield from refinement_phase(cfg, ex, comm)
    yield Barrier(everyone)
    t_end = yield Now()

    result = ex.result_payload()
    result.update(
        t_start=t_start,
        t_factorization=t_fact - t_start,
        t_refinement=t_end - t_fact,
        t_total=t_end - t_start,
        ir_converged=ir_info["converged"],
        ir_iterations=ir_info["iterations"],
    )
    return result
