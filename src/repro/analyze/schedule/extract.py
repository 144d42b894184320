"""Schedule extraction: the rank programs, run on the timed engine.

The comm generators (the rank program of :mod:`repro.core.hplai`, the
pivoted phases of :mod:`repro.core.hpl_dist`, the broadcast/collective
generators under :mod:`repro.comm`) run on the ordinary
:class:`~repro.simulate.engine.Engine`, each wrapped in a recorder that
notes every communication op as the rank yields it: who sends what to
whom, on which wire tag, in which program order.  That structure is the
:class:`~repro.analyze.schedule.model.Schedule` the happens-before
checks prove properties about, so the proved schedule is the op stream
the timed engine executes — there is no second interpreter to keep in
step with it.

Matching is derived afterwards by :func:`~repro.analyze.schedule.model.fifo_match`:
each ``(src, dst, wire)`` channel has one sender and is FIFO, so the
k-th send pairs with the k-th recv whatever order the ranks ran in.
Collectives pair the way the engine pairs them: the n-th post of
``(members, key)`` by every member, of one op type.  A stalled run is
diagnosed by the engine itself (:class:`~repro.errors.StallError`), and
its blocked ranks and wait-for cycle become the counterexample.

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

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analyze.schedule.model import (
    COLLECTIVE_KINDS,
    Collective,
    CommOp,
    FifoMatching,
    Schedule,
    fifo_match,
)
from repro.errors import ReproError, StallError, describe_cycle
from repro.obs.context import Observability
from repro.simulate.engine import Engine
from repro.simulate.events import (
    Allreduce,
    Barrier,
    Irecv,
    Isend,
    Recv,
    Reduce,
    RouteSend,
    Send,
    Wait,
)
from repro.simulate.phantom import nbytes_of

#: generous per-extraction engine-event budget (boundedness guarantee)
DEFAULT_MAX_OPS = 2_000_000

#: innermost-frame locals worth snapshotting into op context
_CONTEXT_KEYS = (
    "k", "j", "it", "iteration", "col", "span_idx", "s", "round_no",
    "step", "seg", "nxt", "dst", "src", "root", "owner",
)


class ExtractionError(ReproError):
    """A rank program failed (or exploded) during schedule extraction."""


@dataclass
class DeadlockReport:
    """A stalled extraction: the counterexample material."""

    #: the engine's per-rank diagnosis (:attr:`StallError.blocked`)
    blocked: List[dict]
    #: the engine's wait-for cycle (:attr:`StallError.cycle`)
    cycle: List[int]
    #: trailing ops of every blocked rank (the counterexample schedule)
    trail: Dict[int, List[CommOp]]

    @property
    def member_mismatches(self) -> List[str]:
        """Pending collectives whose member lists clash: two incomplete
        occurrences of the same kind/key whose member sets intersect
        means the participants disagree on who belongs."""
        pending = {
            (info["op"], info["key"], tuple(info["members"]), info["seq"]):
                info["arrived"]
            for info in self.blocked if info["state"] == "collective"
        }
        keys = list(pending)
        return [
            f"collective membership mismatch: {a[0].lower()} key={a[1]!r} "
            f"posted with members {list(a[2])} by ranks {pending[a]} "
            f"but with members {list(b[2])} by ranks {pending[b]}"
            for i, a in enumerate(keys) for b in keys[i + 1:]
            if a[:2] == b[:2] and a[2] != b[2] and set(a[2]) & set(b[2])
        ]

    def describe(self) -> str:
        """Printable counterexample: wait-for cycle + trailing ops."""
        lines = ["counterexample schedule (deadlock):"]
        if self.cycle:
            lines.append(f"  wait-for cycle: {describe_cycle(self.cycle)}")
        for info in self.blocked:
            if info["state"] == "recv":
                what = f"recv from rank {info['src']} tag {info['tag']}"
            else:
                missing = [
                    m for m in info["members"] if m not in info["arrived"]
                ]
                what = (
                    f"{info['op'].lower()} key={info['key']!r} "
                    f"#{info['seq']} members {info['members']}; "
                    f"not arrived: {missing}"
                )
            lines.append(f"  rank {info['rank']} blocked on {what}")
            for op in self.trail.get(info["rank"], []):
                lines.append(f"    {op.describe()}")
        for msg in self.member_mismatches:
            lines.append(f"  {msg}")
        return "\n".join(lines)


@dataclass
class ExtractionResult:
    """A schedule plus how its extraction ended."""

    schedule: Schedule
    deadlock: Optional[DeadlockReport] = None
    #: (src, dst, wire) channels holding messages posted but never received
    undelivered: List[Tuple[int, int, int]] = field(default_factory=list)
    error: Optional[str] = None
    #: the schedule's :func:`fifo_match`, computed once for extraction
    #: and analysis alike
    matching: Optional[FifoMatching] = None

    @property
    def completed(self) -> bool:
        return self.deadlock is None and self.error is None


@lru_cache(maxsize=None)
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


def _collectives(schedule: Schedule) -> List[Collective]:
    """Completed collective occurrences, paired as the engine pairs
    them: the n-th post of ``(members, key)`` by every member, of one
    op type."""
    posted: Dict[Tuple, int] = defaultdict(int)
    groups: Dict[Tuple, Dict[int, CommOp]] = {}
    for op in schedule.all_ops():
        if op.kind in COLLECTIVE_KINDS:
            nth = (op.rank, op.members, op.key)
            group = (op.members, op.key, posted[nth], op.kind)
            groups.setdefault(group, {})[op.rank] = op
            posted[nth] += 1
    return [
        Collective(
            kind=kind, members=members, key=key, occurrence=occurrence,
            op_ids=tuple(arrived[r].op_id for r in members),
            roots=tuple(arrived[r].root for r in members),
        )
        for (members, key, occurrence, kind), arrived in groups.items()
        if sorted(arrived) == sorted(members)
    ]


def _comm_fields(op, irecvs: Dict[int, CommOp]) -> Optional[dict]:
    """The :class:`CommOp` fields of one yielded op (None: no comm)."""
    kind = type(op)
    name = kind.__name__.lower()
    if kind in (Send, Isend):
        return dict(kind=name, peer=op.dst, wire_tag=op.tag,
                    nbytes=_payload_bytes(op.payload))
    if kind in (Recv, Irecv):
        return dict(kind=name, peer=op.src, wire_tag=op.tag)
    if kind is Wait:
        # Completing an irecv is where the data actually lands, so the
        # completion gets its own op — happens-before consumes here, not
        # at the post.  An isend's completion moves nothing.
        posted = irecvs.pop(op.handle, None)
        if posted is None:
            return None
        return dict(kind="recv", peer=posted.peer, wire_tag=posted.wire_tag)
    if kind is RouteSend:
        return dict(
            kind="bcast_start", root=op.spec.root, wire_tag=op.tag,
            nbytes=_payload_bytes(op.payload),
            edges=tuple(tuple(e) for e in op.spec.edges),
            segments=op.spec.segments,
        )
    if kind in (Barrier, Allreduce, Reduce):
        return dict(
            kind=name, members=tuple(op.members), key=op.key,
            root=getattr(op, "root", None),
            nbytes=_payload_bytes(getattr(op, "payload", None)),
        )
    return None  # Compute, Now, BlockUntil


def _extract(engine: Engine, factory: Callable[[int], Any],
             meta: Optional[dict]) -> ExtractionResult:
    """Run ``factory``'s rank programs on ``engine``, recording every
    comm op as its rank yields it."""
    n = engine.num_ranks
    schedule = Schedule(
        num_ranks=n, meta=dict(meta or {}), ops=[[] for _ in range(n)],
    )
    irecvs: Dict[int, CommOp] = {}  # engine handle of an Irecv -> its post

    def recorded(rank: int, gen):
        ops = schedule.ops[rank]
        value = None
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            except ReproError:
                raise
            except Exception as exc:  # lint: ignore[hygiene] - wrap rank crashes
                raise ExtractionError(
                    f"rank {rank} raised {type(exc).__name__}: {exc}"
                ) from exc
            fields = _comm_fields(op, irecvs)
            if fields is not None:
                ops.append(CommOp(
                    rank=rank, seq=len(ops), sites=_capture_sites(gen),
                    context=_capture_context(gen), **fields,
                ))
            value = yield op
            if type(op) is Irecv:
                irecvs[value] = ops[-1]

    deadlock: Optional[DeadlockReport] = None
    error: Optional[str] = None
    try:
        engine.run(lambda rank: recorded(rank, factory(rank)))
    except StallError as exc:
        deadlock = DeadlockReport(exc.blocked, exc.cycle, trail={
            info["rank"]: schedule.ops[info["rank"]][-3:]
            for info in exc.blocked
        })
    except ExtractionError as exc:
        error = str(exc)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    matching = fifo_match(schedule)
    schedule.matches = matching[0]
    schedule.collectives = _collectives(schedule)
    return ExtractionResult(
        schedule=schedule, deadlock=deadlock,
        undelivered=sorted(matching[1]), error=error, matching=matching,
    )


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
    The engine is set up as for a simulated run of ``cfg``;
    ``max_ops`` bounds its event count.
    """
    from repro.core.driver import make_engine, rank_factory

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
    engine = make_engine(cfg, Observability.disabled(), max_events=max_ops)
    return _extract(engine, rank_factory(cfg, make_executor), base_meta)


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
    """Extract the schedule of arbitrary rank-program generators, run on
    the Summit preset with one rank per node."""
    from repro.machine import get_machine
    from repro.machine.topology import CommCosts

    engine = Engine(
        num_ranks, CommCosts(get_machine("summit")),
        obs=Observability.disabled(), max_events=max_ops,
    )
    return _extract(engine, factory, meta)
