"""Closed-form broadcast time estimates (the NBB/NBN term of eqs. 3/5).

For a panel chunk of ``nbytes`` broadcast among ``members`` ranks whose
node tiling gives ``crossings`` inter-node hops and ``sharing`` co-located
streams per node (the Q_r / Q_c factors of eq. 5), each algorithm has a
characteristic completion-time shape:

- immature library tree: ``depth x (L + S/bw)`` — the full message is
  re-sent at every level;
- mature library broadcast (scatter-allgather-like): ``~ S/bw`` plus a
  logarithmic latency term, at the boosted bandwidth;
- rings: pipelined chains, ``(depth + segments) x stage`` with the stage
  set by the slower of the NIC and the intra-node fabric;
- ibcast: the immature tree at the derated bandwidth.

These deliberately mirror what the event engine produces so the analytic
model can stand in for it at scales the engine cannot reach.
"""

from __future__ import annotations

from math import ceil, log2

from repro.errors import ConfigurationError
from repro.machine.spec import MpiModel
from repro.machine.topology import CommCosts


def _ring_segments(members: int) -> int:
    return min(128, max(8, members))


def bcast_time(
    algorithm: str,
    nbytes: float,
    members: int,
    costs: CommCosts,
    mpi: MpiModel,
    sharing: int = 1,
    nodes_spanned: int | None = None,
) -> float:
    """Completion time (last receiver) of one broadcast.

    Parameters
    ----------
    nbytes:
        Message size per receiver.
    members:
        Ranks in the broadcast (one process row or column).
    sharing:
        Concurrent sibling broadcasts per node contending for the NICs
        (Q_c for column broadcasts, Q_r for row broadcasts; eq. 5).
    nodes_spanned:
        Distinct nodes among the members (defaults to
        ``ceil(members / sharing-free group)``).
    """
    if members >= 1 and nbytes <= 0:
        return 0.0
    return bcast_curve(algorithm, nbytes, members, costs, mpi, sharing, nodes_spanned)


def bcast_curve(algorithm, nbytes, members, costs, mpi, sharing, nodes_spanned):
    """:func:`bcast_time` of a positive size, one expression per shape: ``nbytes``
    is a number or a ``float64`` array (one entry per factorization step), the
    rest is scalar, and every operator below is valid for both."""
    if members < 1:
        raise ConfigurationError(f"members must be >= 1, got {members}")
    if members == 1:
        return 0.0 * nbytes
    lat = costs.inter_latency
    nic_bw = costs.node_nic_bw / max(sharing, 1)
    intra_bw = costs.intra_bw
    staging = costs.staging_curve(nbytes // 1)  # whole bytes are staged
    nodes = nodes_spanned if nodes_spanned is not None else members
    nodes = max(1, min(nodes, members))

    if algorithm == "bcast" and mpi.bcast_hierarchical:
        # Mature library: bandwidth-optimal inter-node pipeline over node
        # leaders plus an intra-node fan.
        bw = nic_bw * mpi.bcast_bw_boost
        inter = ceil(log2(max(nodes, 2))) * lat + nbytes / bw + staging
        fan = ceil(log2(max(members // max(nodes, 1), 1) + 1)) * (
            nbytes / intra_bw
        )
        return inter + fan
    if algorithm in ("bcast", "ibcast"):
        speed = mpi.bcast_bw_boost if algorithm == "bcast" else mpi.ibcast_derate
        depth = ceil(log2(members))
        # Only the blocking broadcast benefits from the library's
        # internal segmentation; nonblocking broadcasts progress poorly.
        nseg = max(1, mpi.bcast_segments) if algorithm == "bcast" else 1
        seg = nbytes / nseg
        return (depth + nseg - 1) * (
            lat + seg / (nic_bw * speed)
        ) + staging
    if algorithm in ("ring1", "ring1m", "ring2m"):
        nseg = _ring_segments(members)
        seg = nbytes / nseg
        # The slower fabric sets the stage: max(seg / nic_bw, seg / intra_bw), exactly.
        stage = seg / min(nic_bw, intra_bw) + staging / nseg
        depth = members - 1
        if algorithm == "ring2m":
            depth = max(1, (members - 2 + 1) // 2)
        return depth * lat + (depth + nseg - 1) * stage
    raise ConfigurationError(f"unknown broadcast algorithm {algorithm!r}")


def panel_comm_time(
    algorithm: str,
    u_bytes: float,
    l_bytes: float,
    cfg,
    costs: CommCosts,
) -> float:
    """Combined per-iteration panel broadcast time (eq. 5 structure).

    The U chunk travels down each process column (P_r members, Q_c
    sibling columns per node); the L chunk travels along each process row
    (P_c members, Q_r siblings).  Both directions share the node NICs,
    so their times add.  Sizes are positive numbers or arrays.
    """
    mpi = cfg.machine.mpi
    t_u = bcast_curve(
        algorithm,
        u_bytes,
        cfg.p_rows,
        costs,
        mpi,
        sharing=cfg.q_cols,
        nodes_spanned=cfg.node_grid.k_rows,
    )
    t_l = bcast_curve(
        algorithm,
        l_bytes,
        cfg.p_cols,
        costs,
        mpi,
        sharing=cfg.q_rows,
        nodes_spanned=cfg.node_grid.k_cols,
    )
    return t_u + t_l
