"""Schedule extraction: rank programs recorded while the timed engine runs
them, matched per channel in FIFO order."""

import numpy as np
import pytest

from repro.analyze.schedule import (
    Schedule,
    ScheduleCase,
    analyze_schedule,
    extract_case,
    extract_factory,
)
from repro.comm.vmpi import BCAST_ALGORITHMS, RankComm
from repro.simulate.events import Barrier


def _case(**kw):
    base = dict(program="hplai", p_rows=2, p_cols=2, n=128, block=32)
    base.update(kw)
    return ScheduleCase(**base)


class TestHplaiExtraction:
    def test_small_grid_completes(self):
        result = extract_case(_case())
        assert result.completed
        sched = result.schedule
        assert sched.num_ranks == 4
        assert sched.num_ops > 0
        assert sched.matches, "extraction records concrete matches"

    def test_analysis_reuses_the_extracted_matching(self, monkeypatch):
        import repro.analyze.schedule.hb as hb
        from repro.analyze.schedule.model import fifo_match

        result = extract_case(_case(bcast="ring2m"))
        assert result.matching == fifo_match(result.schedule)
        assert result.matching[0] == result.schedule.matches
        fresh = analyze_schedule(result.schedule).to_dict()
        monkeypatch.setattr(hb, "fifo_match", None)  # must not be called
        reused = analyze_schedule(result.schedule, matching=result.matching)
        assert reused.to_dict() == fresh

    def test_ops_carry_interprocedural_sites(self):
        sched = extract_case(_case()).schedule
        starts = [op for op in sched.all_ops() if op.kind == "bcast_start"]
        assert starts
        # innermost frame is the comm facade; outer frames name the
        # algorithm that asked for the broadcast
        files = {op.sites[-1][0] for op in starts if op.sites}
        assert any(f.endswith("vmpi.py") for f in files)
        assert all(len(op.sites) >= 2 for op in starts if op.sites)

    @pytest.mark.parametrize("bcast", sorted(BCAST_ALGORITHMS))
    def test_every_bcast_algorithm_proves(self, bcast):
        result = extract_case(_case(bcast=bcast))
        assert result.completed
        report = analyze_schedule(result.schedule)
        assert report.ok, [f.message for f in report.findings]

    @pytest.mark.parametrize("mode,lookahead",
                             [("routed", True), ("inband", False)])
    def test_both_progressions_prove(self, mode, lookahead):
        result = extract_case(_case(progression=mode, lookahead=lookahead))
        assert result.completed
        assert analyze_schedule(result.schedule).ok

    def test_rectangular_grid(self):
        result = extract_case(_case(p_rows=2, p_cols=3, n=192))
        assert result.completed
        assert analyze_schedule(result.schedule).ok


class TestHplExtraction:
    def test_pivoted_hpl_proves(self):
        result = extract_case(
            _case(program="hpl", n=64, block=8)
        )
        assert result.completed
        report = analyze_schedule(result.schedule)
        assert report.ok, [f.message for f in report.findings]
        # row swaps and panel factorization actually communicated
        kinds = {op.kind for op in result.schedule.all_ops()}
        assert "send" in kinds and "recv" in kinds


class TestDeadlockDiagnosis:
    def test_recv_before_send_cycle_is_diagnosed(self):
        def program(rank):
            comm = RankComm(rank)
            peer = 1 - rank
            payload = np.zeros(2)
            got = yield from comm.recv(peer, tag=5)
            yield from comm.send(peer, payload, tag=5)
            return got

        result = extract_factory(2, program, meta={"program": "test"})
        assert not result.completed
        assert result.deadlock is not None
        text = result.deadlock.describe()
        assert "counterexample schedule (deadlock):" in text
        assert "wait-for cycle: rank 0 -> rank 1 -> rank 0" in text
        assert "blocked on" in text

    def test_collective_member_mismatch_is_named(self):
        def program(rank):
            comm = RankComm(rank)
            members = (0, 1) if rank == 0 else (0, 1, 2)
            yield from comm.barrier(members)

        result = extract_factory(3, program, meta={"program": "test"})
        assert not result.completed
        assert result.deadlock is not None
        assert result.deadlock.member_mismatches


def _raises(rank):
    if rank == 0:
        raise ValueError("bad panel")
    yield Barrier((0, 1))


def _sends_out_of_range(rank):
    yield from RankComm(rank).send(5, np.zeros(2), tag=3)


def _joins_foreign_collective(rank):
    yield Barrier((1 - rank,))


def _loops_forever(rank):
    while True:
        yield Barrier((rank,))


class TestExtractionErrorContract:
    """A broken rank program ends extraction with ``error`` set, never a
    traceback out of the extractor."""

    @pytest.mark.parametrize("program,needle", [
        (_raises, "rank 0 raised ValueError: bad panel"),
        (_sends_out_of_range, "invalid rank 5"),
        (_joins_foreign_collective, "not a member"),
        (_loops_forever, "max_"),
    ])
    def test_broken_program_reports_error(self, program, needle):
        result = extract_factory(2, program, meta={"program": "test"},
                                 max_ops=100)
        assert result.completed is False
        assert result.deadlock is None
        assert result.error and needle in result.error


class TestScheduleRoundTrip:
    def test_to_dict_from_dict(self):
        sched = extract_case(_case()).schedule
        clone = Schedule.from_dict(sched.to_dict())
        assert clone.num_ranks == sched.num_ranks
        assert clone.num_ops == sched.num_ops
        assert clone.matches == sched.matches
        assert len(clone.collectives) == len(sched.collectives)
        a = next(iter(sched.all_ops()))
        b = clone.op(a.op_id)
        assert b.describe() == a.describe()
