"""Schedule extraction: bounded symbolic execution of the rank programs.

The comm generators (the rank program of :mod:`repro.core.hplai`, the
pivoted phases of :mod:`repro.core.hpl_dist`, the broadcast/collective
generators under :mod:`repro.comm`) are driven
by an *un-timed* cooperative interpreter that mirrors the engine's
matching semantics exactly — FIFO mailboxes keyed ``(src, dst, tag)``,
routed broadcasts deposited as-if-from-root, collectives matched on
``(members, key, occurrence, op type)`` — but charges no time at all.
What remains is the pure communication structure: who sends what to
whom, on which wire tag, in which program order.  That structure is the
:class:`~repro.analyze.schedule.model.Schedule` the happens-before
checks prove properties about.

Soundness boundary: execution is *concrete*, not symbolic over data —
each (grid, algorithm, matrix) case proves that one case.  HPL-AI's
control flow is data-independent (the phantom executors take the exact
branch structure of a real run), so a proof per (grid, algorithm)
covers every run at that shape; the pivoted FP64 HPL path is
data-dependent, so it is checked on concrete pivot-exercising matrices.
Interprocedural attribution comes for free: at every yield the live
``gi_yieldfrom`` chain gives the exact call path (driver → comm facade
→ broadcast generator) that posted the op.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analyze.schedule.model import Collective, CommOp, Schedule
from repro.errors import ReproError
from repro.simulate.engine import Engine
from repro.simulate.events import (
    Allreduce,
    Barrier,
    BlockUntil,
    Compute,
    Irecv,
    Isend,
    Now,
    Recv,
    Reduce,
    RouteSend,
    Send,
    Wait,
)
from repro.simulate.phantom import nbytes_of

#: generous per-extraction op budget (boundedness guarantee)
DEFAULT_MAX_OPS = 2_000_000

#: innermost-frame locals worth snapshotting into op context
_CONTEXT_KEYS = (
    "k", "j", "it", "iteration", "col", "span_idx", "s", "round_no",
    "step", "seg", "nxt", "dst", "src", "root", "owner",
)

_READY, _BLOCKED_RECV, _BLOCKED_COLL, _DONE, _FAILED = range(5)


class ExtractionError(ReproError):
    """A rank program failed (or exploded) during schedule extraction."""


@dataclass
class DeadlockReport:
    """A globally-stuck extraction: the counterexample material."""

    blocked: List[dict]
    #: wait-for edges rank -> ranks it needs progress from
    wait_for: Dict[int, List[int]]
    cycle: List[int]
    #: trailing ops of every blocked rank (the counterexample schedule)
    trail: Dict[int, List[CommOp]]
    #: pending collectives posted with clashing member lists, if any
    member_mismatches: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """Printable counterexample: wait-for cycle + trailing ops."""
        lines = ["counterexample schedule (deadlock):"]
        if self.cycle:
            arrow = " -> ".join(f"rank {r}" for r in self.cycle)
            lines.append(f"  wait-for cycle: {arrow} -> rank {self.cycle[0]}")
        for info in self.blocked:
            rank = info["rank"]
            lines.append(f"  rank {rank} blocked on {info['what']}")
            for op in self.trail.get(rank, []):
                lines.append(f"    {op.describe()}")
        for msg in self.member_mismatches:
            lines.append(f"  {msg}")
        return "\n".join(lines)


@dataclass
class ExtractionResult:
    """A schedule plus how its extraction ended."""

    schedule: Schedule
    deadlock: Optional[DeadlockReport] = None
    #: (src, dst, wire) messages posted but never received
    undelivered: List[Tuple[int, int, int]] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.deadlock is None and self.error is None


def _shorten(path: str) -> str:
    parts = path.replace("\\", "/").split("/")
    for anchor in ("src", "tests"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return parts[-1]


def _capture_sites(gen) -> Tuple[Tuple[str, int, str], ...]:
    """Interprocedural yield path: walk the live ``yield from`` chain."""
    out = []
    g = gen
    while g is not None:
        frame = getattr(g, "gi_frame", None)
        if frame is None:
            break
        out.append(
            (_shorten(frame.f_code.co_filename), frame.f_lineno,
             frame.f_code.co_name)
        )
        g = getattr(g, "gi_yieldfrom", None)
    return tuple(out)


def _capture_context(gen) -> Dict[str, Any]:
    """Small snapshot of the innermost frame's loop counters."""
    g, frame = gen, getattr(gen, "gi_frame", None)
    while True:
        sub = getattr(g, "gi_yieldfrom", None)
        subframe = getattr(sub, "gi_frame", None) if sub is not None else None
        if subframe is None:
            break
        g, frame = sub, subframe
    if frame is None:
        return {}
    ctx: Dict[str, Any] = {}
    local = frame.f_locals
    for key in _CONTEXT_KEYS:
        if key in local and isinstance(local[key], (int, np.integer)):
            ctx[key] = int(local[key])
        if len(ctx) >= 6:
            break
    return ctx


def _payload_bytes(payload) -> Optional[int]:
    try:
        return int(nbytes_of(payload))
    except Exception:  # lint: ignore[hygiene] - size is best-effort metadata
        return None


class _Rank:
    __slots__ = ("gen", "status", "value", "block", "seq", "pseudo_clock")

    def __init__(self, gen) -> None:
        self.gen = gen
        self.status = _READY
        self.value: Any = None
        self.block: Any = None
        self.seq = 0
        self.pseudo_clock = 0.0


class ScheduleExtractor:
    """Drives one generator per rank to completion, recording comm ops.

    Matching semantics mirror :class:`repro.simulate.engine.Engine`
    (the docstrings there are normative); anything the engine would
    reject — invalid peer ranks, collectives posted by non-members,
    mis-rooted routes — raises :class:`ExtractionError` here too.
    """

    def __init__(self, num_ranks: int, meta: Optional[dict] = None,
                 max_ops: int = DEFAULT_MAX_OPS,
                 capture_context: bool = True) -> None:
        self.num_ranks = num_ranks
        self.max_ops = max_ops
        self.capture_context = capture_context
        self.schedule = Schedule(
            num_ranks=num_ranks, meta=dict(meta or {}),
            ops=[[] for _ in range(num_ranks)], matches=[],
        )
        # engine-mirroring plumbing
        self._mailbox: Dict[Tuple[int, int, int], deque] = {}
        self._recv_waiters: Dict[Tuple[int, int, int], deque] = {}
        self._handles: Dict[int, dict] = {}
        self._next_handle = 1
        self._coll_seq: Dict[Tuple[Tuple[int, ...], str], List[int]] = {}
        self._pending: Dict[Tuple, dict] = {}
        self._total_ops = 0

    # -- op recording -----------------------------------------------------

    def _record(self, rank: int, kind: str, gen, **fields) -> CommOp:
        st = self._ranks[rank]
        op = CommOp(
            rank=rank, seq=len(self.schedule.ops[rank]), kind=kind,
            sites=_capture_sites(gen),
            context=_capture_context(gen) if self.capture_context else {},
            **fields,
        )
        self.schedule.ops[rank].append(op)
        self._total_ops += 1
        if self._total_ops > self.max_ops:
            raise ExtractionError(
                f"extraction exceeded max_ops={self.max_ops}; "
                "suspected runaway rank program"
            )
        return op

    # -- run loop ---------------------------------------------------------

    def run(self, factory: Callable[[int], Any]) -> ExtractionResult:
        """Drive every rank program to completion or global block."""
        self._ranks = [_Rank(factory(r)) for r in range(self.num_ranks)]
        ready = deque(range(self.num_ranks))
        error: Optional[str] = None
        try:
            while ready:
                rank = ready.popleft()
                st = self._ranks[rank]
                # Run-to-block: a rank keeps stepping until it blocks or
                # finishes.  Matching is interleaving-independent (one
                # sender per channel; per-channel FIFO), so this order
                # is as good as the engine's time-ordered one.
                while st.status == _READY:
                    self._step(rank, st, ready)
        except ExtractionError as exc:
            error = str(exc)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"

        deadlock = None
        if error is None:
            stuck = [
                r for r, st in enumerate(self._ranks) if st.status
                in (_BLOCKED_RECV, _BLOCKED_COLL)
            ]
            if stuck:
                deadlock = self._diagnose_deadlock(stuck)
        undelivered = sorted(
            key for key, box in self._mailbox.items() if box
        )
        return ExtractionResult(
            schedule=self.schedule, deadlock=deadlock,
            undelivered=undelivered, error=error,
        )

    def _step(self, rank: int, st: _Rank, ready: deque) -> None:
        try:
            op = st.gen.send(st.value)
        except StopIteration:
            st.status = _DONE
            return
        except ReproError:
            raise
        except Exception as exc:  # lint: ignore[hygiene] - wrap rank crashes
            raise ExtractionError(
                f"rank {rank} raised {type(exc).__name__}: {exc}"
            ) from exc
        st.value = None
        st.pseudo_clock += 1.0
        if isinstance(op, Compute):
            return
        if isinstance(op, Now):
            st.value = st.pseudo_clock
            return
        if isinstance(op, BlockUntil):
            return
        if isinstance(op, Isend):
            self._do_send(rank, st, op, blocking=False)
        elif isinstance(op, Send):
            self._do_send(rank, st, op, blocking=True)
        elif isinstance(op, Recv):
            rec = self._record(
                rank, "recv", st.gen, peer=op.src, wire_tag=op.tag,
            )
            self._do_recv(rank, st, op.src, op.tag, rec, ready)
        elif isinstance(op, Irecv):
            rec = self._record(
                rank, "irecv", st.gen, peer=op.src, wire_tag=op.tag,
            )
            h = self._next_handle
            self._next_handle += 1
            self._handles[h] = {"type": "irecv", "src": op.src,
                                "tag": op.tag, "post": rec.op_id}
            st.value = h
        elif isinstance(op, Wait):
            self._do_wait(rank, st, op.handle, ready)
        elif isinstance(op, RouteSend):
            self._do_route(rank, st, op, ready)
        elif isinstance(op, (Barrier, Allreduce, Reduce)):
            self._do_collective(rank, st, op, ready)
        else:
            raise ExtractionError(
                f"rank {rank} yielded unsupported op {type(op).__name__}"
            )

    # -- point to point ---------------------------------------------------

    def _check_peer(self, rank: int, peer: int, verb: str) -> None:
        if not 0 <= peer < self.num_ranks:
            raise ExtractionError(
                f"rank {rank} {verb} invalid rank {peer}"
            )

    def _do_send(self, rank: int, st: _Rank, op, blocking: bool) -> None:
        self._check_peer(rank, op.dst, "sent to")
        payload = op.payload
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        rec = self._record(
            rank, "send" if blocking else "isend", st.gen,
            peer=op.dst, wire_tag=op.tag, nbytes=_payload_bytes(payload),
        )
        self._deliver((rank, op.dst, op.tag), payload, rec.op_id)
        if not blocking:
            h = self._next_handle
            self._next_handle += 1
            self._handles[h] = {"type": "isend"}
            st.value = h

    def _deliver(self, key, payload, send_id) -> None:
        waiters = self._recv_waiters.get(key)
        if waiters:
            waiting_rank, recv_id, ready = waiters.popleft()
            self.schedule.matches.append((send_id, recv_id))
            wst = self._ranks[waiting_rank]
            wst.status = _READY
            wst.value = payload
            wst.block = None
            ready.append(waiting_rank)
        else:
            self._mailbox.setdefault(key, deque()).append((payload, send_id))

    def _do_recv(self, rank, st, src, tag, rec: CommOp, ready) -> None:
        self._check_peer(rank, src, "receives from")
        key = (src, rank, tag)
        box = self._mailbox.get(key)
        if box:
            payload, send_id = box.popleft()
            self.schedule.matches.append((send_id, rec.op_id))
            st.value = payload
        else:
            st.status = _BLOCKED_RECV
            st.block = key
            self._recv_waiters.setdefault(key, deque()).append(
                (rank, rec.op_id, ready)
            )

    def _do_wait(self, rank, st, handle, ready) -> None:
        info = self._handles.pop(handle, None)
        if info is None:
            raise ExtractionError(
                f"rank {rank} waited on unknown handle {handle}"
            )
        if info["type"] == "isend":
            return
        # Completing an irecv is where the data actually lands, so the
        # completion gets its own op — happens-before consumes here,
        # not at the post.
        rec = self._record(
            rank, "recv", st.gen, peer=info["src"], wire_tag=info["tag"],
        )
        self._do_recv(rank, st, info["src"], info["tag"], rec, ready)

    def _do_route(self, rank, st, op: RouteSend, ready) -> None:
        spec = op.spec
        if rank != spec.root:
            raise ExtractionError(
                f"rank {rank} initiated a route rooted at {spec.root}"
            )
        payload = op.payload
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        rec = self._record(
            rank, "bcast_start", st.gen, root=spec.root, wire_tag=op.tag,
            nbytes=_payload_bytes(payload),
            edges=tuple(tuple(e) for e in spec.edges),
            segments=spec.segments,
        )
        for src, dst in spec.edges:
            if not (0 <= src < self.num_ranks and 0 <= dst < self.num_ranks):
                raise ExtractionError(
                    f"route edge ({src}, {dst}) outside world of "
                    f"{self.num_ranks} ranks"
                )
        for dst in {d for _s, d in spec.edges}:
            self._deliver((spec.root, dst, op.tag), payload, rec.op_id)
        st.value = st.pseudo_clock

    # -- collectives ------------------------------------------------------

    def _do_collective(self, rank, st, op, ready) -> None:
        members = tuple(op.members)
        if rank not in members:
            raise ExtractionError(
                f"rank {rank} posted a collective it is not a member of"
            )
        kind = type(op).__name__.lower()
        rec = self._record(
            rank, kind, st.gen, members=members, key=op.key,
            root=getattr(op, "root", None),
            nbytes=_payload_bytes(getattr(op, "payload", None)),
        )
        seq_key = (members, op.key)
        seqs = self._coll_seq.setdefault(seq_key, [0] * self.num_ranks)
        seq = seqs[rank]
        seqs[rank] += 1
        pend_key = (members, op.key, seq, type(op).__name__)
        pend = self._pending.setdefault(
            pend_key, {"members": members, "arrived": {}}
        )
        payload = getattr(op, "payload", None)
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        pend["arrived"][rank] = (payload, op, rec.op_id)
        st.status = _BLOCKED_COLL
        st.block = pend_key
        if len(pend["arrived"]) == len(members):
            self._finish_collective(pend_key, pend, ready)

    def _finish_collective(self, pend_key, pend, ready) -> None:
        del self._pending[pend_key]
        members, key, occurrence, op_name = pend_key
        arrived = pend["arrived"]
        example_op = next(iter(arrived.values()))[1]
        if op_name == "Barrier":
            results = {r: None for r in members}
        else:
            payloads = [arrived[r][0] for r in members]
            reduced = Engine._reduce_payloads(payloads)
            if op_name == "Allreduce":
                results = {r: reduced for r in members}
            else:
                root = example_op.root
                if root not in members:
                    raise ExtractionError(
                        f"reduce root {root} not in members {members}"
                    )
                results = {
                    r: (reduced if r == root else None) for r in members
                }
        self.schedule.collectives.append(Collective(
            kind=op_name.lower(), members=members, key=key,
            occurrence=occurrence,
            op_ids=tuple(arrived[r][2] for r in members),
            roots=tuple(
                getattr(arrived[r][1], "root", None) for r in members
            ),
        ))
        for r in members:
            st = self._ranks[r]
            st.status = _READY
            st.value = results[r]
            st.block = None
            ready.append(r)

    # -- deadlock diagnosis ----------------------------------------------

    def _diagnose_deadlock(self, stuck: List[int]) -> DeadlockReport:
        blocked: List[dict] = []
        wait_for: Dict[int, List[int]] = {}
        trail: Dict[int, List[CommOp]] = {}
        for rank in stuck:
            st = self._ranks[rank]
            if st.status == _BLOCKED_RECV:
                src, _dst, wire = st.block
                what = f"recv from rank {src} tag {wire}"
                wait_for[rank] = [src]
            else:
                members, key, occurrence, op_name = st.block
                pend = self._pending.get(st.block, {"arrived": {}})
                missing = [m for m in members if m not in pend["arrived"]]
                what = (
                    f"{op_name.lower()} key={key!r} #{occurrence} "
                    f"members {list(members)}; not arrived: {missing}"
                )
                wait_for[rank] = missing
            blocked.append({"rank": rank, "what": what})
            trail[rank] = self.schedule.ops[rank][-3:]
        cycle = _find_cycle(wait_for)
        mismatches = self._collective_mismatches()
        return DeadlockReport(
            blocked=blocked, wait_for=wait_for, cycle=cycle, trail=trail,
            member_mismatches=mismatches,
        )

    def _collective_mismatches(self) -> List[str]:
        """Pending collectives whose member lists clash: two incomplete
        occurrences of the same kind/key whose member sets intersect
        means the participants disagree on who belongs."""
        out = []
        pend_keys = list(self._pending)
        for i, a in enumerate(pend_keys):
            for b in pend_keys[i + 1:]:
                if a[3] != b[3] or a[1] != b[1]:
                    continue
                if a[0] != b[0] and set(a[0]) & set(b[0]):
                    out.append(
                        f"collective membership mismatch: {a[3].lower()} "
                        f"key={a[1]!r} posted with members {list(a[0])} "
                        f"by ranks {sorted(self._pending[a]['arrived'])} "
                        f"but with members {list(b[0])} by ranks "
                        f"{sorted(self._pending[b]['arrived'])}"
                    )
        return out


def _find_cycle(wait_for: Dict[int, List[int]]) -> List[int]:
    """One cycle in the wait-for graph, if any (DFS with colouring)."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {r: WHITE for r in wait_for}
    stack: List[int] = []

    def visit(r: int) -> Optional[List[int]]:
        colour[r] = GREY
        stack.append(r)
        for nxt in wait_for.get(r, ()):
            if colour.get(nxt, BLACK) == GREY:
                return stack[stack.index(nxt):]
            if colour.get(nxt) == WHITE:
                found = visit(nxt)
                if found:
                    return found
        colour[r] = BLACK
        stack.pop()
        return None

    for r in list(wait_for):
        if colour[r] == WHITE:
            found = visit(r)
            if found:
                return found
    return []


# -- program builders -----------------------------------------------------


@dataclass(frozen=True)
class ScheduleCase:
    """One concrete configuration to extract and verify."""

    program: str = "hplai"          # hplai | hpl
    p_rows: int = 2
    p_cols: int = 2
    bcast: str = "bcast"
    progression: str = "routed"     # routed | inband
    lookahead: bool = True
    n: int = 128
    block: int = 32
    refinement: str = "ir"          # ir | gmres
    allreduce: Optional[str] = None  # None | ring | doubling
    machine: str = "summit"
    seed: int = 42

    @property
    def num_ranks(self) -> int:
        return self.p_rows * self.p_cols

    def label(self) -> str:
        """Slash-separated case name for reports (grid/bcast/...)."""
        bits = [
            self.program, f"{self.p_rows}x{self.p_cols}", self.bcast,
            self.progression,
        ]
        if self.lookahead:
            bits.append("lookahead")
        if self.refinement != "ir":
            bits.append(self.refinement)
        if self.allreduce:
            bits.append(f"allreduce={self.allreduce}")
        return "/".join(bits)

    def to_meta(self) -> dict:
        """Schedule meta dict recording this case's parameters."""
        return {
            "program": self.program, "p_rows": self.p_rows,
            "p_cols": self.p_cols, "bcast": self.bcast,
            "progression": self.progression, "lookahead": self.lookahead,
            "n": self.n, "block": self.block,
            "refinement": self.refinement, "allreduce": self.allreduce,
        }

    def build_config(self):
        """The BenchmarkConfig this case describes."""
        from repro.core.config import BenchmarkConfig
        from repro.machine import get_machine

        return BenchmarkConfig(
            n=self.n, block=self.block, machine=get_machine(self.machine),
            p_rows=self.p_rows, p_cols=self.p_cols,
            bcast_algorithm=self.bcast, progression=self.progression,
            lookahead=self.lookahead, refinement_solver=self.refinement,
            allreduce_algorithm=self.allreduce, seed=self.seed,
        )


class _PivotingMatrix:
    """Deterministic dense matrix with no diagonal dominance, so the
    FP64 HPL path genuinely exchanges pivot rows during extraction."""

    def __init__(self, n: int, seed: int):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        scales = rng.uniform(1.0, 3.0, size=n) * rng.choice(
            [-1.0, 1.0], size=n
        )
        self._a = scales[:, None] * q
        self._b = rng.normal(size=n)
        self.n = n

    def block(self, r0, r1, c0, c1):
        return self._a[r0:r1, c0:c1].copy()

    def band(self, r0, r1):
        rows = self._a[r0:r1]  # a fresh view: freezing it leaves _a writable
        rows.flags.writeable = False
        return rows

    def rhs(self):
        return self._b.copy()


def extract_config(cfg, program: str = "hplai",
                   meta: Optional[dict] = None,
                   max_ops: int = DEFAULT_MAX_OPS) -> ExtractionResult:
    """Extract the schedule an existing config's rank program produces.

    ``program`` picks the executor the one rank program runs on:
    ``hplai`` runs the phantom executors (data-independent control
    flow: the one extracted schedule covers every run of this shape);
    ``hpl`` runs the real pivoted-LU executors on a deterministic
    pivot-exercising matrix (its comm schedule is data-dependent).
    """
    from repro.core.driver import rank_factory

    if program == "hplai":
        from repro.core.executors import PhantomExecutor as make_executor
    elif program == "hpl":
        from repro.core.hpl_dist import HplExecutor

        make_executor = partial(
            HplExecutor, matrix=_PivotingMatrix(cfg.n, cfg.seed)
        )
    else:
        raise ExtractionError(f"unknown program {program!r}")

    base_meta = {
        "program": program, "p_rows": cfg.p_rows, "p_cols": cfg.p_cols,
        "bcast": cfg.bcast_algorithm, "n": cfg.n, "block": cfg.block,
        "lookahead": cfg.lookahead,
    }
    base_meta.update(meta or {})
    extractor = ScheduleExtractor(
        cfg.num_ranks, meta=base_meta, max_ops=max_ops,
    )
    return extractor.run(rank_factory(cfg, make_executor))


def extract_case(case: ScheduleCase,
                 max_ops: int = DEFAULT_MAX_OPS) -> ExtractionResult:
    """Extract the schedule for one configuration."""
    return extract_config(
        case.build_config(), program=case.program, meta=case.to_meta(),
        max_ops=max_ops,
    )


def extract_factory(num_ranks: int, factory: Callable[[int], Any],
                    meta: Optional[dict] = None,
                    max_ops: int = DEFAULT_MAX_OPS) -> ExtractionResult:
    """Extract the schedule of arbitrary rank-program generators."""
    return ScheduleExtractor(num_ranks, meta=meta, max_ops=max_ops).run(
        factory
    )
