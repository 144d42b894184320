"""Communication cost parameters derived from machine + run options.

This module turns a :class:`~repro.machine.spec.NetworkSpec` plus the
run-time communication options the paper tunes — port binding
(Finding 5), GPU-aware MPI (Finding 7) — into the concrete numbers the
simulators charge: effective per-node NIC bandwidth, per-message
latency, staging overheads, and intra-node link speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine.spec import MachineSpec, NetworkSpec


@dataclass(frozen=True)
class CommCosts:
    """Resolved communication cost parameters for one run configuration.

    Parameters
    ----------
    machine:
        The machine preset.
    port_binding:
        Summit-style explicit binding of ranks to both NIC rails.  When
        off, traffic effectively uses a single rail (the MPI default the
        paper measured 35.6-59.7% below the bound configuration).
    gpu_aware:
        Send directly from GPU memory.  When off, every off-node message
        pays a device-to-host staging copy on the sender and a
        host-to-device copy on the receiver.
    """

    machine: MachineSpec
    port_binding: bool = True
    gpu_aware: bool = True

    def __post_init__(self) -> None:
        net = self.network
        if net.nics_per_node < 1:
            raise ConfigurationError("machine must have at least one NIC")

    @property
    def network(self) -> NetworkSpec:
        return self.machine.node.network

    # -- inter-node -----------------------------------------------------------

    @property
    def node_nic_bw(self) -> float:
        """Effective unidirectional off-node bandwidth per node (bytes/s).

        Without explicit port binding only one rail is driven, and ranks
        on the far socket reach it across the SMP bus, roughly halving
        even that rail's delivered bandwidth — the regime behind the
        paper's 35.6-59.7% port-binding improvements (Finding 5).
        """
        net = self.network
        if self.port_binding:
            bw = net.nics_per_node * net.nic_bw_gbs * 1e9
        else:
            bw = 0.5 * net.nic_bw_gbs * 1e9
        if not self.gpu_aware:
            # Host-staged transfers bounce through CPU memory and cannot
            # keep the NIC streaming at line rate (part of Finding 7's
            # 40-57% GPU-aware advantage, on top of the copy time).
            bw *= 0.5
        return bw

    @property
    def inter_latency(self) -> float:
        """Base per-message inter-node latency (seconds), including
        staging latency; topology hops are added per node pair by
        :meth:`latency_between`."""
        lat = self.network.inter_node_latency_s
        if not self.gpu_aware:
            lat += 8.0e-6  # host staging adds launch + copy setup latency
        return lat

    def latency_between(self, src_node: int, dst_node: int) -> float:
        """Hop-aware per-message latency between two nodes."""
        lat = self.network.latency_between(src_node, dst_node)
        if not self.gpu_aware:
            lat += 8.0e-6
        return lat

    def staging_time(self, nbytes: int) -> float:
        """Extra host-staging time per off-node message when not GPU-aware.

        One D2H copy on the sender plus one H2D on the receiver, each at
        the host-link bandwidth.
        """
        return self.staging_curve(nbytes) if nbytes > 0 else 0.0

    def staging_curve(self, nbytes):
        """:meth:`staging_time` of a positive size (number or array)."""
        if self.gpu_aware:
            return 0.0
        h2d = self.machine.gpu_kernels.h2d_bw_gbs * 1e9
        return 2.0 * nbytes / h2d

    def inter_node_time(self, nbytes: int, sharing: int = 1) -> float:
        """Time to move ``nbytes`` off-node with ``sharing`` ranks contending.

        ``sharing`` is the Q_r (or Q_c) factor of eq. (5): how many ranks
        on the node are pushing through the NICs concurrently.
        """
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        bw = self.node_nic_bw / max(sharing, 1)
        return self.inter_latency + nbytes / bw + self.staging_time(nbytes)

    # -- intra-node -------------------------------------------------------------

    @property
    def intra_bw(self) -> float:
        """Intra-node GPU interconnect bandwidth (bytes/s)."""
        return self.network.intra_node_bw_gbs * 1e9

    @property
    def intra_latency(self) -> float:
        return self.network.intra_node_latency_s

    def intra_node_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` between two GCDs on the same node."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        # Intra-node transfers never need host staging: the GPUs share a
        # coherent fabric on both systems.
        return self.intra_latency + nbytes / self.intra_bw

    # -- convenience ---------------------------------------------------------

    def describe(self) -> dict:
        """Resolved parameters as a plain dict (for reports/tests)."""
        return {
            "machine": self.machine.name,
            "port_binding": self.port_binding,
            "gpu_aware": self.gpu_aware,
            "node_nic_bw_gbs": self.node_nic_bw / 1e9,
            "inter_latency_us": self.inter_latency * 1e6,
            "intra_bw_gbs": self.intra_bw / 1e9,
        }
