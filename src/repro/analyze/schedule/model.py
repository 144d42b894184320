"""The communication-schedule data model.

A :class:`Schedule` is the whole-program artifact the verifier reasons
about: one :class:`CommOp` per communication event a rank program
posted, in per-rank program order, plus the send→recv matching and the
completed collective occurrences.  Hand-written schedules (the
known-deadlock / known-race fixtures) construct the same model
directly, and both kinds are matched by the one per-channel FIFO rule
(:func:`fifo_match`), so the happens-before checks in
:mod:`repro.analyze.schedule.hb` apply identically to extracted and
synthetic schedules.

Wire tags are decoded through :mod:`repro.obs.phases` — the same
vocabulary the engine's trace spans and the health watchdog use — so a
counterexample prints ``panel_bcast step 3`` instead of a bare integer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.phases import decode_wire_tag

#: op kinds a schedule may contain
P2P_SEND_KINDS = ("send", "isend")
P2P_RECV_KINDS = ("recv", "irecv")
COLLECTIVE_KINDS = ("barrier", "allreduce", "reduce")
KINDS = P2P_SEND_KINDS + P2P_RECV_KINDS + ("bcast_start",) + COLLECTIVE_KINDS

OpId = Tuple[int, int]
Channel = Tuple[int, int, int]


@dataclass
class CommOp:
    """One communication event posted by one rank.

    ``seq`` is the op's index in its rank's program order.  For
    point-to-point ops ``peer`` is the remote rank and ``wire_tag`` the
    engine-level tag; for ``bcast_start`` (a routed multicast) ``peer``
    is None and ``edges`` carries the route's (src, dst) hops; for
    collectives ``members`` carries the communicator.
    """

    rank: int
    seq: int
    kind: str
    peer: Optional[int] = None
    wire_tag: Optional[int] = None
    members: Optional[Tuple[int, ...]] = None
    root: Optional[int] = None
    key: Optional[str] = None
    nbytes: Optional[int] = None
    #: routed broadcast hops [(src, dst), ...] and pipeline depth
    edges: Optional[Tuple[Tuple[int, int], ...]] = None
    segments: int = 1
    #: interprocedural yield-site chain, outermost → innermost:
    #: [(file, line, function), ...]
    sites: Tuple[Tuple[str, int, str], ...] = ()
    #: small snapshot of the innermost frame's locals (j, span, it, ...)
    context: Dict[str, Any] = field(default_factory=dict)

    @property
    def op_id(self) -> Tuple[int, int]:
        return (self.rank, self.seq)

    @property
    def phase(self) -> str:
        """Benchmark phase decoded from the wire tag (``?`` if none)."""
        if self.wire_tag is None:
            return "?"
        return decode_wire_tag(self.wire_tag)[0]

    @property
    def step(self) -> Optional[int]:
        """Factorization step decoded from the wire tag (None outside)."""
        if self.wire_tag is None:
            return None
        return decode_wire_tag(self.wire_tag)[1]

    @property
    def site(self) -> str:
        """Innermost yield site as ``file:line (function)``."""
        if not self.sites:
            return "?"
        f, line, fn = self.sites[-1]
        return f"{f}:{line} ({fn})"

    def describe(self) -> str:
        """One-line rendering used in counterexample schedules."""
        bits = [f"rank {self.rank} #{self.seq} {self.kind}"]
        if self.kind in P2P_SEND_KINDS:
            bits.append(f"-> rank {self.peer}")
        elif self.kind in P2P_RECV_KINDS:
            bits.append(f"<- rank {self.peer}")
        elif self.kind == "bcast_start":
            bits.append(f"root {self.root} x{len(self.edges or ())} hops")
        else:
            m = list(self.members or ())
            shown = m if len(m) <= 8 else m[:8] + ["..."]
            bits.append(f"members {shown}")
            if self.kind == "reduce":
                bits.append(f"root {self.root}")
        if self.wire_tag is not None:
            phase, step = decode_wire_tag(self.wire_tag)
            tagdesc = phase if step is None else f"{phase} k={step}"
            bits.append(f"tag {self.wire_tag} [{tagdesc}]")
        if self.nbytes is not None:
            bits.append(f"{self.nbytes}B")
        if self.context:
            ctx = ", ".join(f"{k}={v}" for k, v in self.context.items())
            bits.append(f"{{{ctx}}}")
        if self.sites:
            bits.append(f"at {self.site}")
        return " ".join(bits)

    def to_dict(self) -> dict:
        """Round-trippable JSON form of this op."""
        out: Dict[str, Any] = {
            "rank": self.rank, "seq": self.seq, "kind": self.kind,
        }
        for name in ("peer", "wire_tag", "root", "key", "nbytes"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        if self.members is not None:
            out["members"] = list(self.members)
        if self.edges is not None:
            out["edges"] = [list(e) for e in self.edges]
            out["segments"] = self.segments
        if self.sites:
            out["sites"] = [list(s) for s in self.sites]
        if self.context:
            out["context"] = dict(self.context)
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "CommOp":
        return cls(
            rank=doc["rank"], seq=doc["seq"], kind=doc["kind"],
            peer=doc.get("peer"), wire_tag=doc.get("wire_tag"),
            members=tuple(doc["members"]) if "members" in doc else None,
            root=doc.get("root"), key=doc.get("key"),
            nbytes=doc.get("nbytes"),
            edges=tuple(tuple(e) for e in doc["edges"])
            if "edges" in doc else None,
            segments=doc.get("segments", 1),
            sites=tuple(tuple(s) for s in doc.get("sites", ())),
            context=dict(doc.get("context", {})),
        )


@dataclass
class Collective:
    """One completed collective occurrence: the i-th (members, key)
    collective, with the posting op of every participant."""

    kind: str
    members: Tuple[int, ...]
    key: str
    occurrence: int
    op_ids: Tuple[Tuple[int, int], ...]
    roots: Tuple[Optional[int], ...] = ()

    def to_dict(self) -> dict:
        """Round-trippable JSON form of this collective."""
        return {
            "kind": self.kind, "members": list(self.members),
            "key": self.key, "occurrence": self.occurrence,
            "op_ids": [list(o) for o in self.op_ids],
            "roots": [r for r in self.roots],
        }


@dataclass
class Schedule:
    """A whole-program communication schedule for one configuration."""

    num_ranks: int
    #: meta description: program, grid, bcast algorithm, n, block, ...
    meta: Dict[str, Any] = field(default_factory=dict)
    #: per-rank op lists in program order
    ops: List[List[CommOp]] = field(default_factory=list)
    #: send→recv matching filled in by extraction (:func:`fifo_match`):
    #: [(send_op_id, recv_op_id), ...]; None for hand-written schedules
    matches: Optional[List[Tuple[OpId, OpId]]] = None
    #: completed collective occurrences
    collectives: List[Collective] = field(default_factory=list)

    def op(self, op_id: Tuple[int, int]) -> CommOp:
        """The op addressed by ``(rank, seq)``."""
        rank, seq = op_id
        return self.ops[rank][seq]

    def all_ops(self) -> List[CommOp]:
        """Every op of every rank, rank-major."""
        return [op for rank_ops in self.ops for op in rank_ops]

    @property
    def num_ops(self) -> int:
        return sum(len(r) for r in self.ops)

    def label(self) -> str:
        """Human-readable configuration label from the meta."""
        m = self.meta
        parts = [str(m.get("program", "program"))]
        if "p_rows" in m:
            parts.append(f"{m['p_rows']}x{m['p_cols']}")
        for k in ("bcast", "progression", "allreduce", "refinement"):
            if m.get(k):
                parts.append(str(m[k]))
        if m.get("lookahead"):
            parts.append("lookahead")
        return " ".join(parts)

    def phase_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-(phase, kind) op counts — the per-(rank, step, phase)
        schedule rollup surfaced in the JSON report."""
        out: Dict[str, Dict[str, int]] = {}
        for op in self.all_ops():
            phase = op.phase
            step = op.step
            key = phase if step is None else f"{phase}[k={step}]"
            bucket = out.setdefault(key, {})
            bucket[op.kind] = bucket.get(op.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        """Round-trippable JSON form of the whole schedule."""
        return {
            "num_ranks": self.num_ranks,
            "meta": dict(self.meta),
            "ops": [[op.to_dict() for op in r] for r in self.ops],
            "matches": (
                [[list(s), list(r)] for s, r in self.matches]
                if self.matches is not None else None
            ),
            "collectives": [c.to_dict() for c in self.collectives],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Schedule":
        sched = cls(num_ranks=doc["num_ranks"], meta=dict(doc.get("meta", {})))
        sched.ops = [
            [CommOp.from_dict(o) for o in rank_ops]
            for rank_ops in doc.get("ops", [])
        ]
        if doc.get("matches") is not None:
            sched.matches = [
                (tuple(s), tuple(r)) for s, r in doc["matches"]
            ]
        sched.collectives = [
            Collective(
                kind=c["kind"], members=tuple(c["members"]), key=c["key"],
                occurrence=c["occurrence"],
                op_ids=tuple(tuple(o) for o in c["op_ids"]),
                roots=tuple(c.get("roots", ())),
            )
            for c in doc.get("collectives", [])
        ]
        return sched


def channel_of(op: CommOp) -> Optional[Tuple[int, int, int]]:
    """The FIFO channel a point-to-point op uses: ``(src, dst, wire)``.

    Recv-side ops name the channel they drain; ``bcast_start`` fans out
    over one channel per route *destination* (the engine deposits routed
    payloads as-if-from-root), so it maps to several channels — use
    :func:`route_channels` for those.  Returns None for collectives.
    """
    if op.kind in P2P_SEND_KINDS:
        return (op.rank, op.peer, op.wire_tag)  # type: ignore[arg-type]
    if op.kind in P2P_RECV_KINDS:
        return (op.peer, op.rank, op.wire_tag)  # type: ignore[arg-type]
    return None


def route_channels(op: CommOp) -> List[Tuple[int, int, int]]:
    """Channels a routed broadcast delivers into: one per destination."""
    if op.kind != "bcast_start" or not op.edges:
        return []
    dsts = {dst for _src, dst in op.edges}
    return [(op.root, dst, op.wire_tag) for dst in sorted(dsts)]


#: ``(matches, unmatched_sends, unmatched_recvs)`` as :func:`fifo_match`
#: returns them
FifoMatching = Tuple[
    List[Tuple[OpId, OpId]], Dict[Channel, List[OpId]],
    Dict[Channel, List[OpId]],
]


def fifo_match(schedule: Schedule) -> FifoMatching:
    """Per-channel FIFO matching: the k-th send on a channel pairs with
    the k-th recv on it.

    This is the engine's matching discipline (FIFO mailboxes keyed
    ``(src, dst, wire)``), and it is interleaving-independent: a channel
    has one sender and one receiver, each posting in program order, so
    the pairing never depends on when either side ran.  Routed
    broadcasts send on every destination's channel (a zero-edge one, a
    single-member group, sends on none); ``irecv`` posts are
    informational (the completion ``recv`` drains the channel).  Returns
    ``(matches, unmatched_sends, unmatched_recvs)`` with matches sorted
    and the leftovers keyed by channel."""
    sends: Dict[Channel, List[OpId]] = defaultdict(list)
    recvs: Dict[Channel, List[OpId]] = defaultdict(list)
    for op in schedule.all_ops():
        if op.kind in P2P_SEND_KINDS:
            sends[channel_of(op)].append(op.op_id)  # type: ignore[index]
        elif op.kind == "bcast_start":
            for ch in route_channels(op):
                sends[ch].append(op.op_id)
        elif op.kind == "recv":
            recvs[channel_of(op)].append(op.op_id)  # type: ignore[index]
    matches: List[Tuple[OpId, OpId]] = []
    unmatched_sends: Dict[Channel, List[OpId]] = {}
    unmatched_recvs: Dict[Channel, List[OpId]] = {}
    for ch in set(sends) | set(recvs):
        s, r = sends.get(ch, []), recvs.get(ch, [])
        matches.extend(zip(s, r))
        if len(s) > len(r):
            unmatched_sends[ch] = s[len(r):]
        elif len(r) > len(s):
            unmatched_recvs[ch] = r[len(s):]
    return sorted(matches), unmatched_sends, unmatched_recvs
