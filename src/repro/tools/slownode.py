"""Slow-GCD identification mini-benchmark (paper Section VI-B).

    "Using a mini-benchmark code, we scan through the GCDs, and thereby
    whole nodes, to exclude them from scaling runs.  The mini-benchmark
    code is implemented with a single GPU LU factorization and an MPI
    aggregator to identify the slow GCDs."

:func:`scan_fleet` runs a single-GCD LU mini-benchmark on every GCD of a
(simulated) fleet, aggregates the per-GCD times, flags outliers relative
to the fleet median, and — because a single slow GCD stalls the whole
bulk-synchronous pipeline — quantifies the projected speed-up from
excluding the flagged nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
import numpy.ma  # noqa: F401 - np.median imports it lazily; serve threads must not

from repro.errors import ConfigurationError
from repro.machine.spec import MachineSpec
from repro.machine.variability import GcdFleet
from repro.model.perf_model import sequential_sum
from repro.util import flops as fl
from repro.util.format import render_table


def flag_outliers(times, threshold: float):
    """Flag entries slower than the fleet median by more than ``threshold``.

    Returns ``(slow_ids, median, cutoff)``.  Shared between the GCD
    scan below and the trace-analysis straggler ranking
    (:mod:`repro.obs.analysis.imbalance`) so both flag "slow" the same
    way the paper's mini-benchmark aggregator does.
    """
    if not 0 < threshold < 1:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
    times = np.asarray(times, dtype=float)
    median = float(np.median(times)) if times.size else 0.0
    cutoff = median * (1.0 + threshold)
    slow = [int(g) for g in np.nonzero(times > cutoff)[0]]
    return slow, median, cutoff


@dataclass(frozen=True)
class MiniBenchmark:
    """The single-GCD LU probe: a fixed-size unpivoted factorization.

    ``n`` is sized so the probe is GEMM-bound (sensitive to the same
    silicon limits as HPL-AI) yet fast enough to sweep a whole machine.
    """

    machine: MachineSpec
    n: int = 8192
    block: int = 512

    def nominal_seconds(self) -> float:
        """Probe runtime on a perfect (multiplier 1.0) GCD."""
        km = self.machine.gpu_kernels
        nb = self.n // self.block
        trailing = self.n - np.arange(1, nb + 1) * self.block
        trailing = trailing[trailing > 0]  # only the last step can be empty
        # One row per step, summed in the order the step loop added them.
        terms = np.zeros((nb, 3))
        terms[:, 0] = km.getrf_time(self.block)
        terms[: trailing.size, 1] = 2 * km.trsm_time_curve(self.block, trailing)
        terms[: trailing.size, 2] = km.gemm_time_curve(
            trailing, trailing, self.block, self.n, trailing
        )
        return sequential_sum(terms.ravel())

    def measure(self, multiplier: float) -> float:
        """Probe runtime on a GCD with the given speed multiplier."""
        if multiplier <= 0:
            raise ConfigurationError(
                f"speed multiplier must be positive, got {multiplier}"
            )
        return self.nominal_seconds() / multiplier


@dataclass
class ScanReport:
    """Result of a fleet scan."""

    probe: MiniBenchmark
    times: np.ndarray
    median_s: float
    threshold_s: float
    slow_gcds: List[int]
    slow_nodes: List[int]
    gcds_per_node: int
    #: fleet speed (slowest surviving GCD) before/after exclusion
    pipeline_before: float
    pipeline_after: float

    @property
    def max_variation(self) -> float:
        """Max fractional spread between fastest and slowest GCD.

        The paper observed ~5% on Frontier.
        """
        return float((self.times.max() - self.times.min()) / self.times.min())

    @property
    def projected_speedup(self) -> float:
        """Run-time factor gained by excluding the flagged nodes."""
        return self.pipeline_after / self.pipeline_before

    def render(self, top: int = 10) -> str:
        """ASCII table of the slowest GCDs and the exclusion verdicts."""
        order = np.argsort(self.times)[::-1]
        rows = [
            [int(g), int(g) // self.gcds_per_node,
             f"{self.times[g]:.4f}",
             f"{self.times[g] / self.median_s - 1.0:+.2%}",
             "EXCLUDE" if int(g) in set(self.slow_gcds) else ""]
            for g in order[:top]
        ]
        return render_table(
            ["gcd", "node", "probe_s", "vs median", "action"],
            rows,
            title=(
                f"GCD scan: {len(self.times)} GCDs, max variation "
                f"{self.max_variation:.1%}, excluding {len(self.slow_nodes)} "
                f"node(s) -> x{self.projected_speedup:.3f} projected"
            ),
        )


def scan_fleet(
    fleet: GcdFleet,
    machine: MachineSpec,
    threshold: float = 0.02,
    probe: MiniBenchmark | None = None,
) -> ScanReport:
    """Scan every GCD with the mini-benchmark and flag slow outliers.

    A GCD is flagged when its probe time exceeds the fleet median by
    more than ``threshold`` (2% default — conservative enough to catch
    the ~5% outliers without trimming healthy silicon).  Whole nodes
    containing a flagged GCD are excluded, mirroring the paper's
    node-granularity scheduling.
    """
    probe = probe or MiniBenchmark(machine)
    nominal = probe.nominal_seconds()
    times = nominal / fleet.multipliers
    slow, median, cutoff = flag_outliers(times, threshold)
    q = machine.node.gcds_per_node
    slow_nodes = sorted({g // q for g in slow})
    # Excluding a node removes all its GCDs.
    excluded_gcds = [
        g for node in slow_nodes for g in range(node * q, (node + 1) * q)
        if g < fleet.num_gcds
    ]
    trimmed = fleet.exclude(excluded_gcds) if excluded_gcds else fleet
    return ScanReport(
        probe=probe,
        times=times,
        median_s=median,
        threshold_s=cutoff,
        slow_gcds=slow,
        slow_nodes=slow_nodes,
        gcds_per_node=q,
        pipeline_before=fleet.pipeline_multiplier(),
        pipeline_after=trimmed.pipeline_multiplier(),
    )
