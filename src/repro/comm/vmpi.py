"""The per-rank communication facade used by rank programs.

:class:`RankComm` wraps the raw engine ops with an mpi4py-flavoured API
(send/recv/isend/bcast/allreduce/...) whose methods are generators — a
rank program drives them with ``yield from``.  The broadcast algorithm
is selected by name, matching the paper's vocabulary:

======== ==============================================================
name     algorithm
======== ==============================================================
bcast    library blocking broadcast (binomial tree; Summit's gets the
         vendor fat-tree bandwidth boost)
ibcast   library nonblocking broadcast (binomial tree, nonblocking
         sends, Spectrum-MPI derate applies)
ring1    single pipelined ring
ring1m   modified ring (direct send to the critical-path successor)
ring2m   modified double ring (the Frontier winner)
======== ==============================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence

from repro.broadcasts import BCAST_NAMES
from repro.comm.bcast import TAG_STRIDE, bcast_tree, ibcast_tree
from repro.comm.ring import bcast_ring1, bcast_ring1m, bcast_ring2m
from repro.comm.route import ROUTE_BUILDERS, RouteSend
from repro.errors import CommunicationError
from repro.machine.spec import MpiModel
from repro.obs import context as obs_context
from repro.obs.phases import phase_of_logical_tag
from repro.simulate.phantom import nbytes_of
from repro.simulate.events import (
    Allreduce,
    Barrier,
    BlockUntil,
    Irecv,
    Isend,
    Now,
    Recv,
    Reduce,
    Send,
    Wait,
)

BCAST_ALGORITHMS: Dict[str, Callable] = dict(zip(
    BCAST_NAMES,
    (bcast_tree, ibcast_tree, bcast_ring1, bcast_ring1m, bcast_ring2m),
))


class RankComm:
    """Communication facade bound to one rank.

    Parameters
    ----------
    rank:
        This rank's id.
    mpi:
        Library-behaviour model (broadcast boost / ibcast derate).
    bcast_algorithm:
        One of :data:`BCAST_ALGORITHMS`; the panel-broadcast strategy
        under study.
    ring_segments:
        Pipeline depth for the ring algorithms; ``None`` (default) adapts
        to the member count so deep rings stay pipelined.
    """

    def __init__(
        self,
        rank: int,
        mpi: MpiModel | None = None,
        bcast_algorithm: str = "bcast",
        ring_segments: int | None = None,
        node_of=None,
    ) -> None:
        if bcast_algorithm not in BCAST_ALGORITHMS:
            raise CommunicationError(
                f"unknown broadcast algorithm {bcast_algorithm!r}; expected "
                f"one of {sorted(BCAST_ALGORITHMS)}"
            )
        self.rank = rank
        self.mpi = mpi or MpiModel()
        self.bcast_algorithm = bcast_algorithm
        self.ring_segments = ring_segments
        #: node locality oracle; lets the library tree be SMP-aware
        self.node_of = node_of
        #: default all-reduce algorithm (None = engine built-in)
        self.allreduce_algorithm: str | None = None
        # Route specs are pure functions of (algorithm, root, members,
        # segments) for a fixed node map; the panel loop rebuilds the
        # same handful of trees thousands of times, so memoize them.
        self._route_cache: Dict[tuple, Any] = {}

    @staticmethod
    def _count_bcast(algo_name: str, payload: Any, tag: int = -1) -> None:
        """Root-side accounting: bytes broadcast per algorithm variant
        and — when the logical ``tag`` is given — per benchmark phase
        (diag_bcast / panel_bcast / ir), the byte-count labels the
        trace-analysis layer joins against."""
        obs = obs_context.current()
        if obs.enabled and payload is not None:
            m = obs.metrics
            size = nbytes_of(payload)
            m.counter("comm.bcast_bytes", algorithm=algo_name).inc(size)
            m.counter("comm.bcast_calls", algorithm=algo_name).inc()
            if tag >= 0:
                phase = phase_of_logical_tag(tag)
                m.counter("comm.phase_bytes", phase=phase).inc(size)
                m.counter("comm.phase_calls", phase=phase).inc()
            health = getattr(obs, "health", None)
            if health is not None:
                health.note_collective(tag, algo_name, size)

    # -- point to point ---------------------------------------------------

    def send(self, dst: int, payload: Any, tag: int):
        """Blocking send (returns once the message left this rank's NIC)."""
        yield Send(dst, payload, tag * TAG_STRIDE, speed=1.0)

    def isend(self, dst: int, payload: Any, tag: int):
        """Nonblocking send; returns a handle."""
        return (yield Isend(dst, payload, tag * TAG_STRIDE, speed=1.0))

    def recv(self, src: int, tag: int):
        """Blocking receive; returns the payload."""
        return (yield Recv(src, tag * TAG_STRIDE))

    def irecv(self, src: int, tag: int):
        """Nonblocking receive; returns a handle for :meth:`wait`."""
        return (yield Irecv(src, tag * TAG_STRIDE))

    def wait(self, handle: int):
        """Complete a nonblocking operation (returns the Irecv payload)."""
        return (yield Wait(handle))

    def wait_all(self, handles: Sequence[int]):
        """Complete several nonblocking operations."""
        results = []
        for h in handles:
            results.append((yield Wait(h)))
        return results

    # -- collectives ---------------------------------------------------------

    def bcast(
        self,
        payload: Any,
        root: int,
        members: Sequence[int],
        tag: int,
        algorithm: str | None = None,
    ):
        """Broadcast with the configured (or overridden) algorithm.

        Non-roots pass ``payload=None`` and get the value as the return.
        """
        algo_name = algorithm or self.bcast_algorithm
        try:
            algo = BCAST_ALGORITHMS[algo_name]
        except KeyError:
            raise CommunicationError(
                f"unknown broadcast algorithm {algo_name!r}"
            ) from None
        if algo_name == "bcast":
            kwargs = {"speed": self.mpi.bcast_bw_boost}
        elif algo_name == "ibcast":
            kwargs = {"speed": self.mpi.ibcast_derate}
        else:
            kwargs = {
                "speed": 1.0,
                "segments": self._ring_segments_for(len(members)),
            }
        self._count_bcast(algo_name, payload, tag)
        result = yield from algo(
            self.rank, payload, root, list(members), tag, **kwargs
        )
        return result

    def _ring_segments_for(self, n_members: int) -> int:
        """Pipeline depth: explicit setting, or adapt to the ring length."""
        if self.ring_segments is not None:
            return self.ring_segments
        return min(64, max(8, n_members))

    def _bcast_speed(self, algo_name: str) -> float:
        if algo_name == "bcast":
            return self.mpi.bcast_bw_boost
        if algo_name == "ibcast":
            return self.mpi.ibcast_derate
        return 1.0

    def bcast_start(
        self,
        payload: Any,
        root: int,
        members: Sequence[int],
        tag: int,
        algorithm: str | None = None,
    ):
        """Root side of a hardware-progressed (routed) broadcast.

        The root initiates the whole distribution schedule and returns
        immediately (nonblocking algorithms) or after its traffic left
        the NIC (the blocking library Bcast).  Non-roots complete the
        broadcast with :meth:`bcast_finish` whenever they actually need
        the data — this is what the look-ahead driver uses to overlap
        panel broadcasts with the trailing GEMM.
        """
        algo_name = algorithm or self.bcast_algorithm
        if algo_name not in ROUTE_BUILDERS:
            raise CommunicationError(
                f"unknown broadcast algorithm {algo_name!r}"
            )
        if self.rank != root:
            return None
        if algo_name in ("bcast", "ibcast"):
            segments = self.mpi.bcast_segments
            node_of = self.node_of if self.mpi.bcast_hierarchical else None
        else:
            segments = self._ring_segments_for(len(members))
            node_of = None
        cache_key = (algo_name, root, tuple(members), segments)
        spec = self._route_cache.get(cache_key)
        if spec is None:
            spec = ROUTE_BUILDERS[algo_name](
                root, list(members), segments, node_of=node_of
            )
            self._route_cache[cache_key] = spec

        self._count_bcast(algo_name, payload, tag)
        root_done = yield RouteSend(
            spec, payload, tag * TAG_STRIDE, speed=self._bcast_speed(algo_name)
        )
        if algo_name == "bcast":
            # The blocking library broadcast does not return at the root
            # until its sends have drained.
            yield BlockUntil(root_done, kind="wait_send")
        return payload

    def bcast_finish(self, root: int, tag: int):
        """Non-root side of a routed broadcast: receive the payload."""
        return (yield Recv(root, tag * TAG_STRIDE))

    def allreduce(
        self,
        payload: Any,
        members: Sequence[int],
        algorithm: str | None = None,
        tag: int = 0,
    ):
        """Sum-reduce across members; all get the result.

        ``algorithm=None`` uses the engine's modelled built-in;
        ``"ring"`` / ``"doubling"`` run the explicit point-to-point
        algorithms from :mod:`repro.comm.collectives` (``tag`` scopes
        their wire messages).
        """
        algo = algorithm if algorithm is not None else self.allreduce_algorithm
        if algo is None:
            return (yield Allreduce(tuple(members), payload))
        from repro.comm.collectives import ALLREDUCE_ALGORITHMS

        try:
            fn = ALLREDUCE_ALGORITHMS[algo]
        except KeyError:
            raise CommunicationError(
                f"unknown all-reduce algorithm {algo!r}; expected one of "
                f"{sorted(ALLREDUCE_ALGORITHMS)} or None"
            ) from None
        result = yield from fn(self.rank, payload, list(members), tag)
        return result

    def reduce(self, payload: Any, root: int, members: Sequence[int]):
        """Sum-reduce to ``root``; non-roots get None."""
        return (yield Reduce(tuple(members), root, payload))

    def barrier(self, members: Sequence[int]):
        """Synchronize members."""
        yield Barrier(tuple(members))

    def now(self):
        """This rank's current virtual time."""
        return (yield Now())
