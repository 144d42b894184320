"""Analytic performance model and parameter tuner (paper Section IV).

The event engine is exact about message interleaving but costs O(events);
the analytic model implements the paper's critical-path recurrence —
eqs. (1)-(3) plus the NIC-sharing communication time of eq. (5) — in
O(N/B) per run, which is what makes the paper-scale configurations
(29584 GCDs, N = 20.6M) tractable.  It is cross-validated against the
event engine at overlapping scales in the test suite.
"""

from repro.model.comm_model import bcast_time, panel_comm_time
from repro.model.perf_model import (
    AnalyticResult,
    IterationCosts,
    estimate_iteration,
    estimate_run,
    iteration_columns,
)
from repro.model.roofline import (
    machine_balance,
    memory_roofline,
    min_local_size_for_compute_bound,
    network_balance,
    network_roofline,
)
from repro.model.tuner import sweep_block_sizes, sweep_local_sizes, sweep_node_grids

__all__ = [
    "bcast_time",
    "panel_comm_time",
    "AnalyticResult",
    "IterationCosts",
    "estimate_iteration",
    "estimate_run",
    "iteration_columns",
    "sweep_block_sizes",
    "sweep_local_sizes",
    "sweep_node_grids",
    "machine_balance",
    "memory_roofline",
    "min_local_size_for_compute_bound",
    "network_balance",
    "network_roofline",
]
