"""The one panel loop: every executor runs ``hplai.factorization_phase``.

FP64 HPL, exact HPL-AI and phantom HPL-AI differ in how a rank produces
its panels (the executor's ``panel_phase`` seam) and in nothing else of
the step: the panel broadcasts and the trailing update are the same ops
on the same tags, modulo each program's tag window.
"""

import numpy as np
import pytest

from repro.analyze.schedule.extract import ScheduleCase, extract_case
from repro.analyze.schedule.hb import analyze_schedule
from repro.comm.bcast import TAG_STRIDE
from repro.core import hplai
from repro.core.config import BenchmarkConfig
from repro.core.driver import _run_ranks
from repro.core.executors import ExactExecutor, ExecutorBase, PhantomExecutor
from repro.core.hpl_dist import HplExecutor, solve_hpl_distributed
from repro.machine import SUMMIT
from repro.obs import context as obs_context
from repro.obs.phases import TAG_L_PANEL, TAG_U_PANEL
from repro.simulate.engine import Engine
from repro.simulate.events import Compute

from tests.test_hpl_distributed import DenseMatrix, _random_general
from tests.test_panel_golden import relay

EXECUTORS = [PhantomExecutor, ExactExecutor, HplExecutor]
GRIDS = [(1, 1, 32), (2, 2, 32), (3, 2, 48)]


def _cfg(pr, pc, n, block=8, **kw) -> BenchmarkConfig:
    return BenchmarkConfig(
        n=n, block=block, machine=SUMMIT, p_rows=pr, p_cols=pc, **kw
    )


def _shared_step_ops(cfg, make_executor, monkeypatch) -> dict:
    """Per rank, the ops of the shared part of every step: whatever the
    panel-broadcast helpers yield, plus the trailing-update Compute."""
    shared: dict = {}
    window = {
        make_executor.step_tag(k, phase): (k, phase)
        for k in range(cfg.num_blocks)
        for phase in (TAG_U_PANEL, TAG_L_PANEL)
    }

    def describe(op) -> tuple:
        out = [type(op).__name__]
        if hasattr(op, "tag"):
            # the program's tag window folded away: (step, phase) + the
            # relay's offset inside the logical tag's wire stride
            out += [window[op.tag // TAG_STRIDE], op.tag % TAG_STRIDE]
        for name in ("dst", "src"):
            if hasattr(op, name):
                out.append((name, getattr(op, name)))
        spec = getattr(op, "spec", None)
        if spec is not None:
            out.append((spec.root, spec.edges, spec.segments))
        return tuple(out)

    def logged_helper(helper):
        def wrapper(cfg_, ex, *args):
            log = shared.setdefault(ex.rank, [])
            return relay(helper(cfg_, ex, *args),
                         lambda op: log.append(describe(op)))
        return wrapper

    monkeypatch.setattr(hplai, "_panel_bcast_start",
                        logged_helper(hplai._panel_bcast_start))
    monkeypatch.setattr(hplai, "_panel_bcast_finish",
                        logged_helper(hplai._panel_bcast_finish))

    run = Engine.run

    def logged_run(engine, factory):
        def note_gemm(rank):
            log = shared.setdefault(rank, [])
            return lambda op: (
                log.append(("Compute", "gemm"))
                if isinstance(op, Compute) and op.kind == "gemm" else None
            )
        return run(engine, lambda rank: relay(factory(rank), note_gemm(rank)))

    monkeypatch.setattr(Engine, "run", logged_run)
    _run_ranks(cfg, make_executor, obs_context.current())
    return shared


@pytest.mark.parametrize("pr,pc,n", GRIDS, ids=lambda v: str(v))
@pytest.mark.parametrize("progression", ["routed", "inband"])
def test_executors_share_the_step_skeleton(pr, pc, n, progression, monkeypatch):
    cfg = _cfg(pr, pc, n, progression=progression, lookahead=False)
    runs = {}
    for make_executor in EXECUTORS:
        with monkeypatch.context() as mp:
            runs[make_executor] = _shared_step_ops(cfg, make_executor, mp)
    phantom, exact, hpl = (runs[e] for e in EXECUTORS)
    # one trailing update per step on every rank, whatever the grid
    for ops in phantom.values():
        assert ops.count(("Compute", "gemm")) == cfg.num_blocks
    assert exact == phantom
    if progression == "inband":
        # root and non-roots meet in comm.bcast: one order for everyone
        assert hpl == phantom
        return
    # Routed, the unpivoted step launches both panels before receiving
    # either, while the pivoted step keeps per-panel order (U, then L,
    # root or not): the same ops everywhere, and the same *sequence* on
    # every rank except where a pivot-column, non-pivot-row rank
    # receives U before it launches L.
    assert sorted(hpl) == sorted(phantom)
    reordered = 0
    for rank, ops in phantom.items():
        assert sorted(hpl[rank]) == sorted(ops)
        reordered += hpl[rank] != ops
    assert (reordered > 0) == (pr > 1 and pc > 1)


def test_forks_are_gone():
    import repro.core.hpl_dist as hpl_dist

    assert issubclass(HplExecutor, ExecutorBase)
    assert HplExecutor.plan is ExecutorBase.plan
    assert HplExecutor.fill_local is ExactExecutor.fill_local
    for name in ("hpl_rank_program", "_SolveView"):
        assert not hasattr(hpl_dist, name)
    assert not hasattr(hplai, "_full_panel_step_inband")
    # the seam is a class attribute of the executor, nothing else
    assert PhantomExecutor.panel_phase is None
    assert ExactExecutor.panel_phase is None
    assert HplExecutor.panel_phase is not None


class TestHplHonoursTheSharedConfiguration:
    """FP64 HPL used to build its own comm facade and ignored two
    ``BenchmarkConfig`` fields the shared prologue and broadcasts read."""

    def _solve(self, **kw):
        a, b = _random_general(64, seed=3)
        return solve_hpl_distributed(
            _cfg(2, 2, 64, **kw), matrix=DenseMatrix(a, b)
        )

    @pytest.mark.parametrize("algo", ["ring", "doubling"])
    def test_allreduce_algorithm(self, algo):
        builtin = self._solve()
        explicit = self._solve(allreduce_algorithm=algo)
        assert explicit["ipiv"] == builtin["ipiv"]
        # Every solution segment is stored by exactly one rank (zeros
        # elsewhere), so any summation order gives the same bits.
        assert explicit["x"].tobytes() == builtin["x"].tobytes()
        assert explicit["elapsed"] != builtin["elapsed"]
        assert explicit["t_factorization"] == builtin["t_factorization"]

    def test_inband_progression(self):
        routed = self._solve()
        inband = self._solve(progression="inband", lookahead=False)
        assert inband["ipiv"] == routed["ipiv"]
        assert inband["x"].tobytes() == routed["x"].tobytes()
        assert inband["residual_norm"] < 1e-10
        assert inband["elapsed"] != routed["elapsed"]
        assert inband["t_factorization"] != routed["t_factorization"]

    @pytest.mark.parametrize("pr,pc", [(2, 2), (2, 3), (3, 2)])
    def test_inband_schedule_proves(self, pr, pc):
        result = extract_case(ScheduleCase(
            program="hpl", p_rows=pr, p_cols=pc, n=48, block=8,
            progression="inband", lookahead=False,
        ))
        assert result.completed, result.error
        assert not result.undelivered
        report = analyze_schedule(result.schedule)
        assert [f for f in report.findings if f.severity == "error"] == []
