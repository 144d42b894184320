"""The conservative discrete-event engine driving SPMD rank programs.

Each rank is a generator yielding ops (:mod:`repro.simulate.events`).
The engine keeps a per-rank virtual clock and always advances the ready
rank with the *smallest* clock, so shared-resource charging (the
per-node NIC free times) is causally consistent.  Message arrival times
are fixed when the send is posted:

    start   = max(sender clock, sender-node NIC free, receiver-node NIC free)
    xfer    = size / (effective node NIC bandwidth × algorithm speed)
    arrival = start + latency + xfer + host-staging (if not GPU-aware)

Intra-node messages ride the GPU interconnect without contending for
NICs.  This is exactly the mechanism behind the paper's eq. (5): ranks
on one node that broadcast in the same direction serialize on the node's
NICs, so a ``Q_r × Q_c`` node-local grid trades row-traffic sharing
against column-traffic sharing.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field
from math import ceil, inf, log2
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import (
    SimulationError,
    StallError,
    describe_blocked,
    describe_cycle,
)
from repro.machine.spec import MpiModel
from repro.machine.topology import CommCosts
from repro.obs import context as obs_context
from repro.simulate.events import (
    Allreduce,
    Barrier,
    BlockUntil,
    Compute,
    Irecv,
    Isend,
    Message,
    Now,
    PendingCollective,
    Recv,
    Reduce,
    RouteSend,
    Send,
    Wait,
)
from repro.simulate.phantom import PhantomArray, nbytes_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.compile import LinkPlan, RatePlan

_READY = 0
_BLOCKED_RECV = 1
_BLOCKED_COLL = 2
_DONE = 3

#: clock charged for posting a nonblocking operation
_POST_OVERHEAD_S = 5.0e-7


@dataclass
class RankStats:
    """Per-rank accounting: seconds per category plus traffic counters.

    The totals add the categories' seconds in insertion order, as the
    filtered sums over :attr:`times` do, from the compute and ``wait_``
    kinds listed once per new kind rather than filtered per call.
    """

    times: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    bytes_sent: int = 0
    messages_sent: int = 0
    #: ``(len(times), compute kinds, wait kinds)`` as last listed
    _kinds: Tuple[int, Tuple[str, ...], Tuple[str, ...]] = field(
        default=(0, (), ()), init=False, repr=False, compare=False)

    def add(self, kind: str, seconds: float) -> None:
        """Accumulate seconds under a category (no-op for <= 0)."""
        if seconds > 0:
            self.times[kind] += seconds

    def _listed(self) -> Tuple[int, Tuple[str, ...], Tuple[str, ...]]:
        """The kinds, listed again only when ``times`` gained one."""
        if self._kinds[0] != len(self.times):
            self._kinds = (
                len(self.times),
                tuple(k for k in self.times if not k.startswith("wait_")),
                tuple(k for k in self.times if k.startswith("wait_")),
            )
        return self._kinds

    @property
    def total_compute(self) -> float:
        return sum(map(self.times.__getitem__, self._listed()[1]))

    @property
    def total_wait(self) -> float:
        return sum(map(self.times.__getitem__, self._listed()[2]))


@dataclass
class EngineResult:
    """Outcome of an engine run."""

    #: virtual wall-clock: the time the last rank finished
    elapsed: float
    #: per-rank generator return values
    returns: List[Any]
    #: per-rank time/traffic accounting
    stats: List[RankStats]
    #: total events processed (diagnostic)
    events: int
    #: point-to-point segment transfers charged (every segment of every
    #: edge of a routed broadcast counts) — with ``events`` the engine's
    #: own work measure
    transfers: int = 0
    #: messages posted but never received — a healthy SPMD program
    #: drains every mailbox; nonzero indicates a protocol bug
    undelivered: int = 0


class _RankState:
    __slots__ = ("gen", "clock", "status", "value", "block_key", "done_value")

    def __init__(self, gen) -> None:
        self.gen = gen
        self.clock = 0.0
        self.status = _READY
        self.value: Any = None  # value to send into the generator next
        self.block_key: Optional[Tuple[int, int, int]] = None
        self.done_value: Any = None


class Engine:
    """Runs a set of rank programs to completion over a modelled network.

    The mailbox holds only undelivered messages (a drained channel is
    dropped), and a blocked rank's ``block_key`` is its waiter record: a
    delivery on that channel completes the receive directly.

    Parameters
    ----------
    num_ranks:
        World size.
    comm_costs:
        Network/bandwidth/latency model (machine + port binding +
        GPU-awareness).
    node_of_rank:
        Maps a rank to its node id (from :class:`repro.grid.NodeGrid`);
        ``None`` places every rank on its own node.
    mpi:
        Library-behaviour knobs; defaults to the machine's.
    rate_multipliers:
        Optional per-rank GCD speed multipliers (from
        :class:`repro.machine.GcdFleet`); Compute durations divide by
        these.
    rate_plan:
        Optional piecewise-in-time per-rank rate schedules
        (:class:`repro.scenario.RatePlan`).  When given it supersedes
        ``rate_multipliers`` for Compute ops: the op finishes at the
        earliest ``T`` with ``∫ m_r(t) dt`` equal to the nominal
        seconds, and time spent in blackout segments (rate 0, e.g. a
        crashed rank) is accounted as ``wait_outage`` instead of
        compute.
    link_plan:
        Optional inter-node transfer perturbations
        (:class:`repro.scenario.LinkPlan`): per-message latency jitter
        and bandwidth brown-out windows.  Intra-node transfers are
        untouched.
    max_events:
        Safety valve against runaway programs.
    record_timeline:
        When True, every Compute op and blocking wait is appended to
        :attr:`timeline` as ``(rank, start, end, kind)`` — Gantt-chart
        raw material (costly at scale; off by default).
    obs:
        Observability handle to emit spans/metrics into; ``None``
        (default) uses the process-wide handle from
        :func:`repro.obs.current`, which is a disabled no-op unless the
        caller installed one.  Compute ops become ``executor`` spans,
        blocking waits ``engine`` spans, and point-to-point transfers
        ``comm`` spans.
    """

    def __init__(
        self,
        num_ranks: int,
        comm_costs: CommCosts,
        node_of_rank: Optional[Callable[[int], int]] = None,
        mpi: Optional[MpiModel] = None,
        rate_multipliers: Optional[Sequence[float]] = None,
        rate_plan: Optional["RatePlan"] = None,
        link_plan: Optional["LinkPlan"] = None,
        max_events: int = 200_000_000,
        record_timeline: bool = False,
        obs: Optional["obs_context.Observability"] = None,
    ) -> None:
        if num_ranks <= 0:
            raise SimulationError(f"num_ranks must be positive, got {num_ranks}")
        self.num_ranks = num_ranks
        self.costs = comm_costs
        self.node_of = node_of_rank or (lambda r: r)
        self.mpi = mpi if mpi is not None else comm_costs.machine.mpi
        # Hot-path precomputation: _charge_edge runs once per edge of a
        # routed broadcast (and once per Send/Isend) and loops over the
        # edge's segments, so the rank→node map and the cost-model scalars
        # are resolved once here instead of through property/call chains
        # per edge.  The numbers are identical — CommCosts is frozen and
        # node maps are pure functions of the grid.
        self._rank_node = [self.node_of(r) for r in range(num_ranks)]
        self._intra_bw = comm_costs.intra_bw
        self._intra_lat = comm_costs.intra_latency
        self._nic_bw = comm_costs.node_nic_bw
        self._inter_lat = comm_costs.inter_latency
        self._staged = not comm_costs.gpu_aware
        self._lat_memo: Dict[Tuple[int, int], float] = {}
        if rate_multipliers is None:
            self._mult = np.ones(num_ranks)
        else:
            self._mult = np.asarray(rate_multipliers, dtype=float)
            if self._mult.shape != (num_ranks,):
                raise SimulationError(
                    f"rate_multipliers must have shape ({num_ranks},), got "
                    f"{self._mult.shape}"
                )
            if self._mult.min() <= 0:
                raise SimulationError("rate multipliers must be positive")
        self._rate_plan = rate_plan
        self._link_plan = link_plan
        self.max_events = max_events

        # resources: per-node NIC next-free times (egress / ingress) and
        # per-rank GPU-interconnect egress (intra-node transfers serialize
        # on the sender's own fabric link)
        self._nic_out: Dict[int, float] = defaultdict(float)
        self._nic_in: Dict[int, float] = defaultdict(float)
        self._link_out: Dict[int, float] = defaultdict(float)

        # message plumbing
        self._mailbox: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
        self._handles: Dict[int, dict] = {}
        self._next_handle = 1

        # collectives: each member's post count by (members, key), in
        # member order, and the posts still waiting for members
        self._coll_seq: Dict[Tuple, List[int]] = {}
        self._pending_coll: Dict[Tuple, PendingCollective] = {}

        self.stats = [RankStats() for _ in range(num_ranks)]
        self._events = 0
        self._transfers = 0
        self.record_timeline = record_timeline
        #: (rank, start, end, kind) spans when record_timeline is on
        self.timeline: List[Tuple[int, float, float, str]] = []

        # observability: one enabled check per emission point; the
        # hot-path instruments are resolved once here so the enabled
        # path never does a registry lookup per message.
        self.obs = obs if obs is not None else obs_context.current()
        self._emit = self.obs.enabled
        if self._emit:
            self._span_add = self.obs.tracer.add
            # the engine builds every segment valid, so it skips the checks
            self._xfer_add = self.obs.tracer.put_xfers
            m = self.obs.metrics
            self._ctr_bytes = {
                True: m.counter("comm.bytes_sent", scope="intra"),
                False: m.counter("comm.bytes_sent", scope="inter"),
            }
            self._ctr_msgs = {
                True: m.counter("comm.messages", scope="intra"),
                False: m.counter("comm.messages", scope="inter"),
            }

        # health telemetry: when a HealthMonitor rides on the handle the
        # run loop samples the engine at the monitor's cadence and the
        # mailbox tracks bytes posted but not yet received
        self._inflight_bytes = 0
        self._health = getattr(self.obs, "health", None) if self._emit else None
        if self._health is not None:
            self._health.attach(self.obs)

    # -- public API -----------------------------------------------------------

    def run(self, program_factory: Callable[[int], Any]) -> EngineResult:
        """Instantiate one generator per rank and run all to completion."""
        self._ranks = [_RankState(program_factory(r)) for r in range(self.num_ranks)]
        self._heap: List[Tuple[float, int]] = [
            (0.0, r) for r in range(self.num_ranks)
        ]
        heapq.heapify(self._heap)

        health = self._health
        # only a sample moves the next due time, so it is read once per sample
        due = health.next_due if health is not None else inf
        while self._heap:
            clock, rank = heapq.heappop(self._heap)
            st = self._ranks[rank]
            if st.status != _READY or clock < st.clock:
                continue  # stale heap entry
            self._step(rank, st)
            self._events += 1
            if self._events > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; suspected "
                    "runaway rank program"
                )
            if clock >= due:
                health.sample_engine(self, clock)  # may raise StallError
                due = health.next_due

        not_done = [r for r, st in enumerate(self._ranks) if st.status != _DONE]
        if not_done:
            blocked = self.blocked_ranks()
            cycle = _wait_for_cycle(blocked)
            details = "; ".join(
                describe_blocked(self._block_info(r, self._ranks[r]))
                for r in not_done[:8]
            )
            if cycle:
                details = f"wait-for cycle: {describe_cycle(cycle)}; {details}"
            raise StallError(
                f"{len(not_done)} rank(s) blocked with no progress possible "
                f"({details})",
                blocked=blocked,
                elapsed=max(st.clock for st in self._ranks),
                cycle=cycle,
            )
        elapsed = max(st.clock for st in self._ranks)
        return EngineResult(
            elapsed=elapsed,
            returns=[st.done_value for st in self._ranks],
            stats=self.stats,
            events=self._events,
            transfers=self._transfers,
            undelivered=sum(len(q) for q in self._mailbox.values()),
        )

    # -- stepping --------------------------------------------------------------

    def _step(self, rank: int, st: _RankState) -> None:
        try:
            op = st.gen.send(st.value)
        except StopIteration as stop:
            st.status = _DONE
            st.done_value = stop.value
            return
        st.value = None
        handler = self._HANDLERS.get(type(op))
        if handler is None:
            raise SimulationError(
                f"rank {rank} yielded unsupported op {type(op).__name__}"
            )
        handler(self, rank, st, op)

    def _resume(self, rank: int, value: Any = None) -> None:
        st = self._ranks[rank]
        st.status = _READY
        st.value = value
        heapq.heappush(self._heap, (st.clock, rank))

    # -- op implementations --------------------------------------------------

    def _op_compute(self, rank: int, st: _RankState, op: Compute) -> None:
        if op.seconds < 0:
            raise SimulationError(
                f"negative compute time {op.seconds} from rank {rank}"
            )
        outage = 0.0
        if self._rate_plan is not None:
            end, outage = self._rate_plan.advance(rank, st.clock, op.seconds)
            scaled = end - st.clock
        else:
            scaled = op.seconds / float(self._mult[rank])
        if self.record_timeline and scaled > 0:
            self.timeline.append((rank, st.clock, st.clock + scaled, op.kind))
        if self._emit and scaled > 0:
            self._span_add(op.kind, "executor", st.clock, st.clock + scaled, rank)
        st.clock += scaled
        # Blackout spans (a crashed rank's outage window) are downtime,
        # not work: the wait_ prefix keeps them out of total_compute so
        # busy-rate detectors see the rank as stopped, not slow.
        self.stats[rank].add(op.kind, scaled - outage)
        if outage > 0:
            self.stats[rank].add("wait_outage", outage)
        self._resume(rank)

    def _charge_edge(
        self, src: int, dst: int, size: float, avail: Sequence[float],
        speed: float, tag: Optional[int] = None,
    ) -> Tuple[float, List[float]]:
        """Charge ``len(avail)`` equal transfers of ``size`` bytes along
        one ``(src, dst)`` edge; returns ``(done, arrivals)``.

        ``avail[s]`` is when segment ``s`` is available at ``src``;
        ``done`` is when the last segment left ``src``.  Intra-node
        transfers serialize on the sender's GPU-fabric link; inter-node
        transfers serialize on both nodes' NICs (the eq.-5 sharing
        mechanism) and pay host staging when not GPU-aware.

        Every segment of an edge shares nodes, bandwidth, latency and
        staging, so those are resolved once and only the recurrence

            start = max(avail[s], free);  free = start + xfer
            arrival = start + lat + jitter + xfer + staging

        runs per segment.  The operand order is part of the contract:
        simulated times are compared bitwise across commits, so the sum
        is never reassociated (no ``avail[j] + (s - j) * xfer`` closed
        form) and the unperturbed path still adds ``jitter = 0.0``.
        """
        src_node, dst_node = self._rank_node[src], self._rank_node[dst]
        intra = src_node == dst_node
        link_plan = None
        staging = 0.0
        if intra:
            free = self._link_out[src]
            base_xfer = size / self._intra_bw
            lat = self._intra_lat
        else:
            free = max(self._nic_out[src_node], self._nic_in[dst_node])
            base_xfer = size / (self._nic_bw * speed)
            link_plan = self._link_plan
            lat = self._lat_memo.get((src_node, dst_node))
            if lat is None:
                lat = self.costs.latency_between(src_node, dst_node)
                self._lat_memo[(src_node, dst_node)] = lat
            if self._staged:
                staging = self.costs.staging_time(size)
        emit = self._emit
        xfer = base_xfer
        jitter = 0.0
        arrivals: List[float] = []
        append = arrivals.append
        if emit:
            starts: List[float] = []
            ends: List[float] = []
        for ready in avail:
            start = ready if ready > free else free
            if link_plan is not None:
                # A brown-out stretches the transfer itself (and thus
                # holds the NICs longer); jitter delays arrival only.
                xfer_scale, jitter = link_plan.perturb(
                    src_node, dst_node, start, size
                )
                xfer = base_xfer * xfer_scale
            append(start + lat + jitter + xfer + staging)
            free = start + xfer
            if emit:
                starts.append(start)
                ends.append(free)
        if intra:
            self._link_out[src] = free
        else:
            self._nic_out[src_node] = free
            self._nic_in[dst_node] = free
        nseg = len(arrivals)
        nbytes = int(size)
        stats = self.stats[src]
        stats.bytes_sent += nbytes * nseg
        stats.messages_sent += nseg
        self._transfers += nseg
        if emit:
            self._xfer_add(src, dst, nbytes, intra, tag, starts, ends)
            self._ctr_msgs[intra].inc(nseg)
            ctr = self._ctr_bytes[intra]
            if nbytes == size and ctr.value.is_integer():
                # whole numbers (below 2**53) add exactly in any grouping
                ctr.inc(size * nseg)
            else:
                # a payload cut into nseg pieces can leave a fractional
                # segment size; the total is compared bitwise across
                # commits, so keep the per-segment rounding
                for _ in range(nseg):
                    ctr.inc(size)
        return free, arrivals

    def _transfer(
        self, src: int, dst: int, size: float, ready: float, speed: float,
        tag: Optional[int] = None,
    ) -> Tuple[float, float]:
        """Charge one point-to-point transfer; returns (departure, arrival)."""
        done, arrivals = self._charge_edge(src, dst, size, (ready,), speed, tag)
        return done, arrivals[0]

    def _op_isend(self, rank: int, st: _RankState, op) -> None:
        if op.speed <= 0:
            raise SimulationError(f"send speed must be positive, got {op.speed}")
        payload = op.payload
        if isinstance(payload, np.ndarray):
            payload = payload.copy()  # MPI semantics: buffer reusable after post
        if not 0 <= op.dst < self.num_ranks:
            raise SimulationError(f"rank {rank} sent to invalid rank {op.dst}")
        done, arrival = self._transfer(
            rank, op.dst, nbytes_of(payload), st.clock, op.speed, tag=op.tag
        )
        self._deliver(Message(rank, op.dst, op.tag, payload, arrival))
        if type(op) is Send:
            waited = max(done - st.clock, 0.0)
            if self._emit and waited > 0:
                self._span_add("wait_send", "engine", st.clock, done, rank)
            self.stats[rank].add("wait_send", waited)
            st.clock = max(st.clock, done)
            self._resume(rank)
        else:
            st.clock += _POST_OVERHEAD_S
            self.stats[rank].add("comm_post", _POST_OVERHEAD_S)
            h = self._new_handle({"type": "isend", "done": done})
            self._resume(rank, h)

    def _op_route(self, rank: int, st: _RankState, op: RouteSend) -> None:
        """Schedule every hop of a routed multicast at initiation time."""
        spec = op.spec
        if rank != spec.root:
            raise SimulationError(
                f"rank {rank} initiated a route rooted at {spec.root}"
            )
        if op.speed <= 0:
            raise SimulationError(f"route speed must be positive, got {op.speed}")
        payload = op.payload
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        size = nbytes_of(payload)
        nseg = spec.segments
        seg_size = size / nseg if nseg > 1 else float(size)
        # Per-rank availability time of each segment.
        seg_at: Dict[int, List[float]] = {spec.root: [st.clock] * nseg}
        root_done = st.clock
        for src, dst in spec.edges:
            if not (0 <= src < self.num_ranks and 0 <= dst < self.num_ranks):
                raise SimulationError(
                    f"route edge ({src}, {dst}) outside world of "
                    f"{self.num_ranks} ranks"
                )
            done, arrivals = self._charge_edge(
                src, dst, seg_size, seg_at[src], op.speed, tag=op.tag
            )
            if src == spec.root:
                root_done = max(root_done, done)
            seg_at[dst] = arrivals
            self._deliver(Message(spec.root, dst, op.tag, payload, arrivals[-1]))
        st.clock += _POST_OVERHEAD_S
        self.stats[rank].add("comm_post", _POST_OVERHEAD_S)
        self._resume(rank, root_done)

    def _deliver(self, msg: Message) -> None:
        key = (msg.src, msg.dst, msg.tag)
        st = self._ranks[msg.dst]
        if st.status == _BLOCKED_RECV and st.block_key == key:
            self._complete_recv(msg.dst, msg)
        else:
            self._mailbox[key].append(msg)
            if self._health is not None:
                self._inflight_bytes += int(nbytes_of(msg.payload))

    def _complete_recv(self, rank: int, msg: Message) -> None:
        st = self._ranks[rank]
        waited = max(msg.arrival - st.clock, 0.0)
        if self.record_timeline and waited > 0:
            self.timeline.append(
                (rank, st.clock, st.clock + waited, "wait_recv")
            )
        if self._emit and waited > 0:
            self._span_add(
                "wait_recv", "engine", st.clock, msg.arrival, rank,
                {"src": msg.src, "tag": msg.tag},
            )
        self.stats[rank].add("wait_recv", waited)
        st.clock = max(st.clock, msg.arrival)
        self._resume(rank, msg.payload)

    def _op_recv(self, rank: int, st: _RankState, op) -> None:
        """Complete a Recv — or the Irecv a Wait is completing."""
        src = op.src
        if not 0 <= src < self.num_ranks:
            raise SimulationError(f"rank {rank} receives from invalid rank {src}")
        key = (src, rank, op.tag)
        box = self._mailbox.get(key)
        if box:
            msg = box.popleft()
            if not box:
                del self._mailbox[key]
            if self._health is not None:
                self._inflight_bytes -= int(nbytes_of(msg.payload))
            self._complete_recv(rank, msg)
        else:
            st.status = _BLOCKED_RECV
            st.block_key = key

    def _op_irecv(self, rank: int, st: _RankState, op: Irecv) -> None:
        self._resume(rank, self._new_handle({"type": "irecv", "op": op}))

    def _op_now(self, rank: int, st: _RankState, op: Now) -> None:
        self._resume(rank, st.clock)

    def _op_block_until(self, rank: int, st: _RankState, op: BlockUntil) -> None:
        waited = max(op.time - st.clock, 0.0)
        if self._emit and waited > 0:
            self._span_add(op.kind, "engine", st.clock, op.time, rank)
        self.stats[rank].add(op.kind, waited)
        st.clock = max(st.clock, op.time)
        self._resume(rank)

    def _op_wait(self, rank: int, st: _RankState, op: Wait) -> None:
        info = self._handles.pop(op.handle, None)
        if info is None:
            raise SimulationError(
                f"rank {rank} waited on unknown handle {op.handle}"
            )
        if info["type"] == "isend":
            done = info["done"]
            waited = max(done - st.clock, 0.0)
            if self._emit and waited > 0:
                self._span_add("wait_send", "engine", st.clock, done, rank)
            self.stats[rank].add("wait_send", waited)
            st.clock = max(st.clock, done)
            self._resume(rank)
        else:  # an Irecv handle
            self._op_recv(rank, st, info["op"])

    def _new_handle(self, info: dict) -> int:
        h = self._next_handle
        self._next_handle += 1
        self._handles[h] = info
        return h

    # -- collectives --------------------------------------------------------------

    def _op_collective(self, rank: int, st: _RankState, op) -> None:
        members = tuple(op.members)
        try:
            slot = members.index(rank)
        except ValueError:
            raise SimulationError(
                f"rank {rank} posted a collective it is not a member of"
            ) from None
        seq_key = (members, op.key)
        seqs = self._coll_seq.get(seq_key)
        if seqs is None:
            seqs = self._coll_seq[seq_key] = [0] * len(members)
        seq = seqs[slot]
        seqs[slot] += 1
        pend_key = (members, op.key, seq, type(op).__name__)
        pend = self._pending_coll.setdefault(pend_key, PendingCollective(members))
        payload = getattr(op, "payload", None)
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        pend.arrived[rank] = (st.clock, payload, op)
        st.status = _BLOCKED_COLL
        st.block_key = pend_key  # type: ignore[assignment]
        if pend.complete():
            self._finish_collective(pend_key, pend)

    def _collective_cost(self, members: Tuple[int, ...], size: int) -> float:
        p = len(members)
        if p <= 1:
            return 0.0
        nodes = {self._rank_node[r] for r in members}
        rounds = max(1, ceil(log2(p)))
        if len(nodes) == 1:
            per_round = self._intra_lat + size / self._intra_bw
        else:
            per_round = self._inter_lat + size / self._nic_bw
        return rounds * per_round

    def _finish_collective(self, pend_key, pend: PendingCollective) -> None:
        del self._pending_coll[pend_key]
        op_name = pend_key[3]
        start = max(t for t, _p, _o in pend.arrived.values())
        example_op = next(iter(pend.arrived.values()))[2]
        if op_name == "Barrier":
            cost = self._collective_cost(pend.members, 8)
            results = {r: None for r in pend.members}
            wait_kind = "wait_barrier"
        else:
            payloads = [pend.arrived[r][1] for r in pend.members]
            size = max(nbytes_of(p) for p in payloads)
            cost = 2.0 * self._collective_cost(pend.members, size)
            reduced = self._reduce_payloads(payloads)
            if op_name == "Allreduce":
                results = {r: reduced for r in pend.members}
                wait_kind = "wait_allreduce"
            else:  # Reduce
                root = example_op.root
                if root not in pend.members:
                    raise SimulationError(
                        f"reduce root {root} not in members {pend.members}"
                    )
                results = {
                    r: (reduced if r == root else None) for r in pend.members
                }
                wait_kind = "wait_reduce"
        finish = start + cost
        for r in pend.members:
            st = self._ranks[r]
            waited = max(finish - st.clock, 0.0)
            if self._emit and waited > 0:
                self._span_add(wait_kind, "engine", st.clock, finish, r)
            self.stats[r].add(wait_kind, waited)
            st.clock = finish
            st.block_key = None
            self._resume(r, results[r])

    @staticmethod
    def _reduce_payloads(payloads: List[Any]) -> Any:
        first = payloads[0]
        if first is None:
            return None
        if isinstance(first, PhantomArray):
            return first
        if isinstance(first, np.ndarray):
            for p in payloads[1:]:
                if not isinstance(p, np.ndarray) or p.shape != first.shape:
                    raise SimulationError(
                        "collective payload mismatch: members contributed "
                        f"{first.shape} and "
                        f"{getattr(p, 'shape', type(p).__name__)} — "
                        "broadcasting would silently corrupt the reduction"
                    )
            out = first.astype(first.dtype, copy=True)
            for p in payloads[1:]:
                out = out + p
            return out
        # scalars
        total = payloads[0]
        for p in payloads[1:]:
            total = total + p
        return total

    #: op type -> handler; ops are matched by exact type (no op class is
    #: subclassed), so the commonest ops cost one lookup, not a chain of
    #: isinstance tests
    _HANDLERS = {
        Compute: _op_compute,
        Isend: _op_isend,
        Send: _op_isend,
        Recv: _op_recv,
        Irecv: _op_irecv,
        Wait: _op_wait,
        RouteSend: _op_route,
        Barrier: _op_collective,
        Allreduce: _op_collective,
        Reduce: _op_collective,
        Now: _op_now,
        BlockUntil: _op_block_until,
    }

    # -- diagnostics ----------------------------------------------------------

    def _block_info(self, rank: int, st: _RankState) -> dict:
        """Structured diagnosis of one blocked rank (for StallError)."""
        info: dict = {"rank": rank, "clock": st.clock}
        if st.status == _BLOCKED_RECV and st.block_key is not None:
            src, dst, wire = st.block_key
            info["state"] = "recv"
            info["src"] = src
            info["dst"] = dst
            info["tag"] = wire
            try:
                from repro.obs.phases import decode_wire_tag

                phase, step = decode_wire_tag(wire)
                info["phase"] = phase
                info["step"] = step
            except Exception:  # lint: ignore[hygiene] - diagnosis best-effort
                info["phase"] = "unknown"
                info["step"] = None
        elif st.status == _BLOCKED_COLL and st.block_key is not None:
            members, key, seq, op_name = st.block_key  # type: ignore[misc]
            pend = self._pending_coll.get(st.block_key)
            info["state"] = "collective"
            info["op"] = op_name
            info["key"] = key
            info["seq"] = seq
            info["members"] = list(members)
            info["arrived"] = (
                sorted(pend.arrived) if pend is not None else []
            )
        else:
            info["state"] = "unknown"
        return info

    def blocked_ranks(self) -> List[dict]:
        """One diagnosis dict per currently-blocked rank.

        The health watchdog calls this mid-run to name the operations a
        stalled run is stuck in; the engine itself calls it at the end
        of :meth:`run` when ranks never finished.
        """
        blocked_states = (_BLOCKED_RECV, _BLOCKED_COLL)
        return [
            self._block_info(r, st)
            for r, st in enumerate(getattr(self, "_ranks", []))
            if st.status in blocked_states
        ]


def _wait_for_cycle(blocked: List[dict]) -> List[int]:
    """One cycle in the wait-for graph of a stall, if any.

    A blocked recv waits on its ``src``; a blocked collective waits on
    the members that have not arrived; a finished rank waits on
    nothing.  Ranks are searched in ``blocked`` order."""
    wait_for: Dict[int, List[int]] = {}
    for info in blocked:
        if info["state"] == "recv":
            wait_for[info["rank"]] = [info["src"]]
        elif info["state"] == "collective":
            wait_for[info["rank"]] = [
                m for m in info["members"] if m not in info["arrived"]
            ]
    # iterative DFS: a stalled run can block thousands of ranks in one
    # chain, deeper than Python's recursion limit
    on_path: Dict[int, bool] = {}  # rank -> still on the DFS path
    for root in wait_for:
        if root in on_path:
            continue
        path, todo = [root], [iter(wait_for[root])]
        on_path[root] = True
        while path:
            nxt = next(todo[-1], None)
            if nxt is None:
                on_path[path.pop()] = False
                todo.pop()
            elif on_path.get(nxt):
                return path[path.index(nxt):]
            elif nxt in wait_for and nxt not in on_path:
                on_path[nxt] = True
                path.append(nxt)
                todo.append(iter(wait_for[nxt]))
    return []
