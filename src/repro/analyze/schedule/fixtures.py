"""Known-bad schedules the verifier must keep rejecting.

Three kinds of regression material live here:

* ``laswp-aliasing`` — a *runnable* reimplementation of the pre-PR-2
  per-column LASWP exchange (see
  ``tests/fixtures/analyze/laswp_tag_aliasing.py`` for the shipped
  protocol this mirrors).  The wire tag is derived as
  ``_tag(k, 7, j) + span_idx``, which aliases the neighbouring
  column's window: ``_tag(k, 7, j) + span == _tag(k, 7, j + span)``.
  Driven with row spans of unequal width, column ``j``'s span-1
  message and column ``j+1``'s span-0 message share one wire between
  the same rank pair while carrying different payloads — the verifier
  must report it as a ``comm-race`` tag-aliasing error.
* ``deadlock`` / ``race`` — hand-written schedules exercising the
  happens-before builder directly (no extraction involved): a classic
  recv-before-send cycle, and two distinct logical messages on one
  wire.
* ``collective-mismatch`` — participants posting one barrier with
  disagreeing member lists.

Every fixture returns a :class:`~repro.analyze.schedule.model.Schedule`
so the CLI and the tests feed them through the same
:func:`~repro.analyze.schedule.hb.analyze_schedule` entry point.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.analyze.schedule.extract import extract_factory
from repro.analyze.schedule.model import CommOp, Schedule
from repro.comm.vmpi import RankComm
from repro.core.hpl_dist import _tag  # the FP64-HPL wire-tag window
from repro.simulate.events import Barrier

_TAG_SWAP_COL = 7

#: row spans of *unequal* width: the aliased wire then carries
#: different payload sizes, which is what makes the bug observable to
#: the verifier (and what made it corrupt trailing panels in practice)
_SPANS = ((0, 2), (4, 8))


def _laswp_rank_program(rank: int, k: int = 0, b: int = 4):
    """The old per-column interchange protocol on a 2-row grid.

    Every column crosses process rows (owner_a = rank 0's row,
    owner_b = rank 1's), as a fully off-diagonal pivot sequence would.
    """
    comm = RankComm(rank)
    for j in range(b):
        for span_idx, (lo, hi) in enumerate(_SPANS):
            seg = np.zeros(hi - lo, dtype=np.float64)
            # the bug under test: the span offset escapes the formula
            tag = _tag(k, _TAG_SWAP_COL, j) + span_idx  # lint: ignore[tag-space]
            if rank == 0:
                yield from comm.send(1, seg, tag)
                yield from comm.recv(1, tag)
            else:
                yield from comm.recv(0, tag)
                yield from comm.send(0, seg, tag)
    yield Barrier((0, 1))


def laswp_aliasing_schedule() -> Schedule:
    """Extract the pre-PR-2 LASWP protocol (it runs to completion —
    the bug is silent cross-delivery, not a deadlock)."""
    result = extract_factory(
        2, _laswp_rank_program,
        meta={"program": "fixture:laswp-aliasing", "p_rows": 2, "p_cols": 1},
    )
    if not result.completed:
        raise AssertionError(
            f"laswp fixture failed to extract: {result.error}"
        )
    return result.schedule


def deadlock_schedule() -> Schedule:
    """Two ranks that each recv before they send: a wait-for cycle."""
    sched = Schedule(
        num_ranks=2, meta={"program": "fixture:deadlock"}, ops=[[], []],
    )
    wire = 7 * 1024
    sched.ops[0] = [
        CommOp(rank=0, seq=0, kind="recv", peer=1, wire_tag=wire),
        CommOp(rank=0, seq=1, kind="send", peer=1, wire_tag=wire, nbytes=8),
    ]
    sched.ops[1] = [
        CommOp(rank=1, seq=0, kind="recv", peer=0, wire_tag=wire),
        CommOp(rank=1, seq=1, kind="send", peer=0, wire_tag=wire, nbytes=8),
    ]
    return sched


def race_schedule() -> Schedule:
    """One wire carrying two distinct logical messages back to back:
    a 64-byte pivot row and a 8-byte flag share the tag."""
    sched = Schedule(
        num_ranks=2, meta={"program": "fixture:race"}, ops=[[], []],
    )
    wire = 3 * 1024
    sched.ops[0] = [
        CommOp(rank=0, seq=0, kind="send", peer=1, wire_tag=wire, nbytes=64,
               sites=(("fixture.py", 10, "send_pivot_row"),)),
        CommOp(rank=0, seq=1, kind="send", peer=1, wire_tag=wire, nbytes=8,
               sites=(("fixture.py", 20, "send_done_flag"),)),
    ]
    sched.ops[1] = [
        CommOp(rank=1, seq=0, kind="recv", peer=0, wire_tag=wire),
        CommOp(rank=1, seq=1, kind="recv", peer=0, wire_tag=wire),
    ]
    return sched


def collective_mismatch_schedule() -> Schedule:
    """Three ranks disagreeing on a barrier's member list."""
    sched = Schedule(
        num_ranks=3, meta={"program": "fixture:collective-mismatch"},
        ops=[[], [], []],
    )
    sched.ops[0] = [
        CommOp(rank=0, seq=0, kind="barrier", members=(0, 1, 2)),
    ]
    sched.ops[1] = [
        CommOp(rank=1, seq=0, kind="barrier", members=(0, 1)),
    ]
    sched.ops[2] = [
        CommOp(rank=2, seq=0, kind="barrier", members=(0, 1, 2)),
    ]
    return sched


FIXTURES: Dict[str, Callable[[], Schedule]] = {
    "laswp-aliasing": laswp_aliasing_schedule,
    "deadlock": deadlock_schedule,
    "race": race_schedule,
    "collective-mismatch": collective_mismatch_schedule,
}
