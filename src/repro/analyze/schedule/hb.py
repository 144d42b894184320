"""Happens-before model checking over extracted or hand-written schedules.

Given a :class:`~repro.analyze.schedule.model.Schedule`, build the
happens-before graph (program order + send→recv matching + collective
supernodes) and prove, for that concrete configuration:

* **matching** — every send has exactly one matching recv: no orphan
  sends (posted but never drained), no orphan recvs (blocked forever);
* **race freedom** — a ``(src, dst, wire_tag)`` channel carrying
  payloads of different sizes or fed from different source lines is
  flagged as *tag aliasing* (error): two logically distinct messages
  share a wire tag and can match the wrong recv — the pre-PR-2 LASWP
  bug class.  Channel reuse that is not happens-before serialized
  (the recv of message *i* does not happen-before the send of message
  *i+1*) is a warning: pairing stays deterministic only because the
  transport guarantees per-channel FIFO non-overtaking;
* **collective symmetry** — every collective occurrence completed with
  identical member lists and, for ``reduce``, an identical root on all
  participants (the engine silently adopts an arbitrary member's root);
* **deadlock freedom** — the happens-before graph is acyclic.

Every failed proof carries a printed counterexample schedule: the ops
forming the cycle / race / mismatch, with their interprocedural yield
sites, so the defect is attributable to a source line.

Legitimate sequential channel reuse — the explicit ring/doubling
allreduce algorithms re-use ``tag=0`` wires across iterations — passes
both race criteria: each reuse is serialized by the algorithm's own
recv chain, and every reuse ships the same payload shape from the same
call site.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.schedule.model import (
    COLLECTIVE_KINDS,
    Channel,
    CommOp,
    FifoMatching,
    OpId,
    Schedule,
    channel_of,
    fifo_match,
)


@dataclass
class HbFinding:
    """One failed proof obligation, with its counterexample."""

    rule: str            # comm-deadlock | comm-orphan | comm-race | ...
    severity: str        # error | warning
    message: str
    counterexample: str = ""

    def format(self) -> str:
        """Message plus indented counterexample, printer-ready."""
        out = f"{self.severity} [{self.rule}] {self.message}"
        if self.counterexample:
            out += "\n" + _indent(self.counterexample)
        return out

    def to_dict(self) -> dict:
        """JSON form of this finding."""
        return {
            "rule": self.rule, "severity": self.severity,
            "message": self.message, "counterexample": self.counterexample,
        }


@dataclass
class HbReport:
    """The verdict for one schedule: proof stats and any failures."""

    label: str
    findings: List[HbFinding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def to_dict(self) -> dict:
        """JSON form of the report (findings + stats)."""
        return {
            "label": self.label, "ok": self.ok,
            "stats": dict(self.stats),
            "findings": [f.to_dict() for f in self.findings],
        }


def _indent(text: str, pad: str = "    ") -> str:
    return "\n".join(pad + line for line in text.splitlines())


def _logical_site(op: CommOp) -> Optional[Tuple[str, str]]:
    """The innermost yield frame *outside* the comm facade, as
    ``(file, function)``.  Lines are deliberately ignored: one function
    feeding a wire from several call sites (the refinement loop's
    back-to-back allreduces) is normal reuse, whereas two different
    functions feeding one wire is the aliasing bug class."""
    for file, _line, fn in reversed(op.sites):
        if "/comm/" not in f"/{file}":
            return (file, fn)
    if op.sites:
        file, _line, fn = op.sites[-1]
        return (file, fn)
    return None


class _HbGraph:
    """Program order + matching + collective supernodes, as adjacency."""

    def __init__(self, schedule: Schedule,
                 matches: Sequence[Tuple[OpId, OpId]]):
        self.schedule = schedule
        # collective ops of one completed occurrence merge into one
        # supernode: every participant's predecessor happens-before
        # every participant's successor.
        self._super: Dict[OpId, Tuple[str, int]] = {}
        for idx, coll in enumerate(schedule.collectives):
            for op_id in coll.op_ids:
                self._super[op_id] = ("coll", idx)
        self.adj: Dict[object, Set[object]] = defaultdict(set)
        self.nodes: Set[object] = set()
        #: a topological order, once :meth:`topo_cycle` ran
        self._order: Optional[List[object]] = None
        for rank_ops in schedule.ops:
            for op in rank_ops:
                self.nodes.add(self.node(op.op_id))
        for rank_ops in schedule.ops:
            for a, b in zip(rank_ops, rank_ops[1:]):
                self._edge(a.op_id, b.op_id)
        for send_id, recv_id in matches:
            self._edge(send_id, recv_id)

    def node(self, op_id: OpId) -> object:
        return self._super.get(op_id, op_id)

    def _edge(self, a: OpId, b: OpId) -> None:
        na, nb = self.node(a), self.node(b)
        if na != nb:
            self.adj[na].add(nb)

    def topo_cycle(self) -> List[object]:
        """Kahn's algorithm; on failure, one cycle among the leftovers."""
        indeg: Dict[object, int] = {n: 0 for n in self.nodes}
        for n, outs in self.adj.items():
            for m in outs:
                indeg[m] = indeg.get(m, 0) + 1
        queue = deque(n for n, d in indeg.items() if d == 0)
        order = self._order = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for m in self.adj.get(n, ()):
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        if len(order) == len(indeg):
            return []
        remaining = {n for n, d in indeg.items() if d > 0}
        # walk successors inside the remaining set until a node repeats
        start = next(iter(remaining))
        path, where = [], {}
        n = start
        while n not in where:
            where[n] = len(path)
            path.append(n)
            n = next(m for m in self.adj.get(n, ()) if m in remaining)
        return path[where[n]:]

    def ops_of(self, node) -> Sequence[OpId]:
        """The ops a node stands for: one op, or a collective's."""
        if node[0] == "coll":
            return self.schedule.collectives[node[1]].op_ids
        return (node,)

    @cached_property
    def clocks(self) -> Dict[object, List[int]]:
        """Per node, the latest program-order index on each rank of an op
        that is or happens before the node (-1: none), in one pass over
        a topological order of the graph, which must be acyclic."""
        if self._order is None:
            self.topo_cycle()
        if len(self._order) != len(self.nodes):
            raise ValueError("happens-before graph has a cycle")
        clocks: Dict[object, List[int]] = {}
        for n in self._order:
            clock = clocks.setdefault(n, [-1] * self.schedule.num_ranks)
            for rank, index in self.ops_of(n):
                clock[rank] = max(clock[rank], index)
            for m in self.adj.get(n, ()):
                if m in clocks:
                    clocks[m] = list(map(max, clocks[m], clock))
                else:
                    clocks[m] = clock.copy()
        return clocks

    def reaches(self, src: object, dst: object) -> bool:
        """Whether ``src`` is or happens before ``dst``: ``dst``'s clock
        covers one of ``src``'s ops (program order carries it from there)."""
        if src == dst:
            return True
        clock = self.clocks[dst]
        return any(clock[rank] >= index for rank, index in self.ops_of(src))

    def render_node(self, node: object) -> List[str]:
        if isinstance(node, tuple) and len(node) == 2 \
                and node[0] == "coll" and isinstance(node[1], int):
            coll = self.schedule.collectives[node[1]]
            return [self.schedule.op(oid).describe() for oid in coll.op_ids]
        return [self.schedule.op(node).describe()]


def _describe_cycle(graph: _HbGraph, cycle: List[object]) -> str:
    lines = ["counterexample schedule (happens-before cycle):"]
    for node in cycle:
        for text in graph.render_node(node):
            lines.append(f"  {text}")
        lines.append("    v  (happens-before)")
    lines.append("  ... back to the first op")
    return "\n".join(lines)


def analyze_schedule(schedule: Schedule, check_races: bool = True,
                     matching: Optional[FifoMatching] = None) -> HbReport:
    """Run every proof obligation against one schedule.

    ``matching`` is the schedule's :func:`fifo_match` when the caller
    already has it (extraction computes it); ``None`` computes it here.
    """
    report = HbReport(label=schedule.label())
    findings = report.findings

    # One matching rule for extracted and hand-written schedules alike:
    # the engine's per-channel FIFO discipline, in sorted order, so the
    # findings never depend on the order the ranks ran in.
    if matching is None:
        matching = fifo_match(schedule)
    matches, unsent, unreceived = matching
    orphan_sends = sorted({o for ids in unsent.values() for o in ids})
    orphan_recvs = sorted({o for ids in unreceived.values() for o in ids})

    for op_id in orphan_sends:
        op = schedule.op(op_id)
        findings.append(HbFinding(
            rule="comm-orphan", severity="error",
            message=(
                f"send never received: {op.describe()}"
            ),
        ))
    for op_id in orphan_recvs:
        op = schedule.op(op_id)
        findings.append(HbFinding(
            rule="comm-orphan", severity="error",
            message=f"recv never satisfied (blocks forever): {op.describe()}",
        ))

    _check_collectives(schedule, findings)

    graph = _HbGraph(schedule, matches)
    cycle = graph.topo_cycle()
    if cycle:
        findings.append(HbFinding(
            rule="comm-deadlock", severity="error",
            message=(
                f"happens-before graph has a cycle through "
                f"{len(cycle)} op(s): deadlock"
            ),
            counterexample=_describe_cycle(graph, cycle),
        ))

    if check_races and not cycle:
        _check_races(schedule, matches, graph, findings)

    report.stats = {
        "ranks": schedule.num_ranks,
        "ops": schedule.num_ops,
        "matches": len(matches),
        "channels": len({channel_of(schedule.op(r)) for _s, r in matches}),
        "collectives": len(schedule.collectives),
        "hb_nodes": len(graph.nodes),
        "hb_edges": sum(len(v) for v in graph.adj.values()),
    }
    return report


def _check_collectives(schedule: Schedule,
                       findings: List[HbFinding]) -> None:
    """Member-list symmetry and reduce-root consistency.

    For extracted schedules the engine's matching already forces equal
    ``(members, key)`` — an asymmetric membership surfaces as a
    deadlock during extraction — but root consistency is *not* checked
    by the engine (it silently adopts an arbitrary member's root), so
    it is a genuine proof obligation here.  Hand-written schedules get
    the membership check too: collective posts of the same kind/key
    whose member sets intersect but differ are a mismatch."""
    for coll in schedule.collectives:
        if coll.kind == "reduce" and coll.roots:
            distinct = {r for r in coll.roots if r is not None}
            if len(distinct) > 1:
                ops = "\n".join(
                    schedule.op(oid).describe() for oid in coll.op_ids
                )
                findings.append(HbFinding(
                    rule="comm-collective", severity="error",
                    message=(
                        f"reduce #{coll.occurrence} on members "
                        f"{list(coll.members)} posted with conflicting "
                        f"roots {sorted(distinct)}"
                    ),
                    counterexample=(
                        "counterexample (conflicting reduce roots):\n"
                        + _indent(ops, "  ")
                    ),
                ))

    if schedule.matches is not None:
        return  # extraction already enforced membership symmetry

    # hand-written: group posts by (kind, key) and look for clashes
    posts: Dict[Tuple[str, Optional[str]], List[CommOp]] = defaultdict(list)
    for op in schedule.all_ops():
        if op.kind in COLLECTIVE_KINDS:
            posts[(op.kind, op.key)].append(op)
    for (kind, _key), ops in posts.items():
        groups: Dict[Tuple[int, ...], List[CommOp]] = defaultdict(list)
        for op in ops:
            groups[tuple(op.members or ())].append(op)
        members_list = list(groups)
        for i, a in enumerate(members_list):
            for b in members_list[i + 1:]:
                if a != b and set(a) & set(b):
                    ex = (
                        groups[a][0].describe() + "\n"
                        + groups[b][0].describe()
                    )
                    findings.append(HbFinding(
                        rule="comm-collective", severity="error",
                        message=(
                            f"{kind} posted with mismatched member lists "
                            f"{list(a)} vs {list(b)} (sets intersect: "
                            "participants disagree on the communicator)"
                        ),
                        counterexample=(
                            "counterexample (asymmetric membership):\n"
                            + _indent(ex, "  ")
                        ),
                    ))


def _check_races(schedule: Schedule, matches: Sequence[Tuple[OpId, OpId]],
                 graph: _HbGraph, findings: List[HbFinding]) -> None:
    """Two race criteria per wire channel (see module docstring)."""
    recv_of: Dict[Tuple[OpId, Channel], OpId] = {}
    by_channel: Dict[Channel, List[OpId]] = defaultdict(list)
    seen: Dict[Channel, Set[OpId]] = defaultdict(set)
    for send_id, recv_id in matches:
        ch = channel_of(schedule.op(recv_id))
        recv_of[(send_id, ch)] = recv_id
        if send_id not in seen[ch]:
            seen[ch].add(send_id)
            by_channel[ch].append(send_id)

    for ch, send_ids in by_channel.items():
        if len(send_ids) < 2:
            continue
        send_ids = sorted(send_ids)  # one sender per channel: program order
        sends = [schedule.op(s) for s in send_ids]

        # criterion (b): aliasing — distinct logical messages on one
        # wire, evidenced by differing payload sizes or by two
        # different *functions* feeding the same channel.
        sizes = {op.nbytes for op in sends if op.nbytes is not None}
        sites = {
            site for site in (_logical_site(op) for op in sends)
            if site is not None
        }
        if len(sizes) > 1 or len(sites) > 1:
            what = []
            if len(sizes) > 1:
                what.append(f"payload sizes {sorted(sizes)}")
            if len(sites) > 1:
                what.append(f"{len(sites)} distinct send sites")
            ex_lines = ["counterexample schedule (aliased wire channel):"]
            shown = sends if len(sends) <= 6 else sends[:6]
            for op in shown:
                ex_lines.append(f"  {op.describe()}")
                rid = recv_of.get((op.op_id, ch))
                if rid is not None:
                    ex_lines.append(
                        f"    matched by {schedule.op(rid).describe()}"
                    )
            if len(sends) > 6:
                ex_lines.append(f"  ... {len(sends) - 6} more on this wire")
            findings.append(HbFinding(
                rule="comm-race", severity="error",
                message=(
                    f"tag aliasing on channel src={ch[0]} dst={ch[1]} "
                    f"wire_tag={ch[2]}: {len(sends)} messages with "
                    + " and ".join(what)
                    + " share one wire — distinct logical messages can "
                    "match the wrong recv"
                ),
                counterexample="\n".join(ex_lines),
            ))
            continue  # aliasing subsumes the inflight check for this wire

        # criterion (a): channel reuse that is not happens-before
        # serialized means several messages can be in flight on one
        # wire at once.  With a transport guaranteeing per-channel FIFO
        # non-overtaking (the engine does; MPI does) the pairing is
        # still deterministic, so with uniform payload identity this is
        # a warning, not an error: the schedule's correctness *relies*
        # on that transport guarantee instead of its own ordering.
        for prev, nxt in zip(send_ids, send_ids[1:]):
            rid = recv_of.get((prev, ch))
            if rid is None:
                continue  # orphan already reported
            if not graph.reaches(graph.node(rid), graph.node(nxt)):
                p, n = schedule.op(prev), schedule.op(nxt)
                r = schedule.op(rid)
                findings.append(HbFinding(
                    rule="comm-race", severity="warning",
                    message=(
                        f"unserialized reuse of channel src={ch[0]} "
                        f"dst={ch[1]} wire_tag={ch[2]}: the second send "
                        "is not ordered after the first recv, so both "
                        "messages can be in flight — pairing relies on "
                        "transport FIFO non-overtaking"
                    ),
                    counterexample=(
                        "witness schedule (concurrent in-flight "
                        "messages on one wire):\n"
                        f"  {p.describe()}\n"
                        f"  {n.describe()}\n"
                        f"  no happens-before path from the matching recv\n"
                        f"  {r.describe()}\n"
                        f"  to the second send"
                    ),
                ))
                break  # one witness per channel is enough
