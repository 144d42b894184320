"""Route topology builders for hardware-progressed broadcasts.

The in-band algorithms in :mod:`repro.comm.bcast` / :mod:`repro.comm.ring`
execute relay forwarding inside each rank's program — faithful to an MPI
library *without* asynchronous progression.  Real runs rely on hardware
(or a progress thread) moving relayed segments while ranks compute,
which is what makes look-ahead effective.  The builders here express
each of the paper's five broadcast strategies as a
:class:`~repro.simulate.events.RouteSpec` whose hops the engine
schedules at initiation time; destinations then ``Recv`` from the root
whenever they actually need the data.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.broadcasts import BCAST_NAMES
from repro.errors import CommunicationError
from repro.simulate.events import RouteSend, RouteSpec

__all__ = [
    "RouteSend",
    "RouteSpec",
    "ROUTE_BUILDERS",
    "route_tree",
    "route_ring1",
    "route_ring1m",
    "route_ring2m",
]


def _ordered(members: Sequence[int], root: int) -> List[int]:
    members = list(members)
    try:
        idx = members.index(root)
    except ValueError as exc:
        raise CommunicationError(f"root {root} not in members {members}") from exc
    return members[idx:] + members[:idx]


def _binomial_edges(chain: List[int]) -> List[Tuple[int, int]]:
    """Binomial-tree edges over ``chain`` rooted at ``chain[0]``.

    Relative rank ``r`` receives from ``r - lowbit(r)``; emitted in
    receiver order so nearer ranks (the critical-path successors) are
    served first.
    """
    n = len(chain)
    edges: List[Tuple[int, int]] = []
    mask = 1
    while mask < n:
        for rel in range(mask, min(2 * mask, n)):
            edges.append((chain[rel - mask], chain[rel]))
        mask <<= 1
    edges.sort(key=lambda e: chain.index(e[1]))
    return edges


def route_tree(
    root: int, members: Sequence[int], node_of=None, segments: int = 1
) -> RouteSpec:
    """The library Bcast/IBcast topology.

    Without node information (``node_of=None``) this models an
    *immature* library: a flat binomial tree over the members, whose
    cost grows as depth × message size — the behaviour the paper
    observed on Frontier's young Slingshot stack, and the reason rings
    beat it there (Finding 6).

    With ``node_of`` it models a *mature* library (Spectrum MPI on
    Summit): large-message broadcast is effectively bandwidth-optimal
    (scatter-allgather / van de Geijn), rendered here as a pipelined
    chain over one leader rank per node plus a binomial fan within each
    node.  That is why hand-built rings cannot beat the vendor broadcast
    on Summit.
    """
    chain = _ordered(members, root)
    segments = max(1, segments)
    if node_of is None:
        return RouteSpec(
            root=root, edges=tuple(_binomial_edges(chain)), segments=segments
        )
    # Group members by node, in first-appearance order; the root's node
    # leads the leader pipeline.
    by_node: dict = {}
    for r in chain:
        by_node.setdefault(node_of(r), []).append(r)
    leaders = [ranks[0] for ranks in by_node.values()]
    edges = list(zip(leaders[:-1], leaders[1:]))  # bandwidth-optimal chain
    for ranks in by_node.values():
        edges.extend(_binomial_edges(ranks))
    return RouteSpec(root=root, edges=tuple(edges), segments=segments)


def route_ring1(root: int, members: Sequence[int], segments: int = 8) -> RouteSpec:
    """Single pipelined chain around the members."""
    chain = _ordered(members, root)
    edges = tuple(zip(chain[:-1], chain[1:]))
    return RouteSpec(root=root, edges=edges, segments=max(1, segments))


def route_ring1m(root: int, members: Sequence[int], segments: int = 8) -> RouteSpec:
    """Modified ring: direct edge to the critical-path successor first,
    then a chain through the remaining members."""
    chain = _ordered(members, root)
    if len(chain) <= 2:
        return route_ring1(root, members, segments)
    rest = [chain[0]] + chain[2:]
    edges = [(chain[0], chain[1])] + list(zip(rest[:-1], rest[1:]))
    return RouteSpec(root=root, edges=tuple(edges), segments=max(1, segments))


def route_ring2m(root: int, members: Sequence[int], segments: int = 8) -> RouteSpec:
    """Modified double ring: direct successor edge plus two half-depth
    chains, interleaved at the root."""
    chain = _ordered(members, root)
    if len(chain) <= 3:
        return route_ring1m(root, members, segments)
    rest = chain[2:]
    half = (len(rest) + 1) // 2
    ring_a = [chain[0]] + rest[:half]
    ring_b = [chain[0]] + rest[half:]
    edges = [(chain[0], chain[1])]
    ea = list(zip(ring_a[:-1], ring_a[1:]))
    eb = list(zip(ring_b[:-1], ring_b[1:]))
    for i in range(max(len(ea), len(eb))):
        if i < len(ea):
            edges.append(ea[i])
        if i < len(eb):
            edges.append(eb[i])
    return RouteSpec(root=root, edges=tuple(edges), segments=max(1, segments))


def _tree_route(root, members, segments=1, node_of=None) -> RouteSpec:
    return route_tree(root, members, node_of, segments)


def _ring_route(route_ring):
    def build(root, members, segments=8, node_of=None) -> RouteSpec:
        return route_ring(root, members, segments)

    return build


# Library trees may be SMP-aware (use node locality) and internally
# pipelined; rings follow the member (process row/column) order, so
# their node-crossing pattern is determined by the node-local grid —
# the paper's tuning knob.
ROUTE_BUILDERS = dict(zip(
    BCAST_NAMES,
    (_tree_route, _tree_route, _ring_route(route_ring1),
     _ring_route(route_ring1m), _ring_route(route_ring2m)),
))
