"""Per-rank utilization and load-imbalance statistics.

At scale the benchmark is bulk-synchronous: every step the slowest rank
sets the pace and everyone else buries the difference in ``wait_*``
spans.  This module turns a span set into:

- per-rank busy/wait/idle fractions (executor time vs engine-wait time
  vs unaccounted gaps),
- per-phase max/mean ratios across ranks (the classic imbalance
  metric: 1.0 = perfectly balanced, 2.0 = the slowest rank spends twice
  the average), and
- a straggler ranking that flags ranks whose busy time exceeds the
  fleet median by the same threshold rule the slow-node scan uses
  (:func:`repro.tools.slownode.flag_outliers`) — a trace-side
  counterpart to the paper's Section VI-B GCD exclusion sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.obs.analysis.loaders import ProfileInput
from repro.tools.slownode import flag_outliers


@dataclass
class RankLoad:
    """Utilization of one rank over the trace window."""

    rank: int
    busy_s: float
    wait_s: float
    elapsed: float

    @property
    def busy_fraction(self) -> float:
        return self.busy_s / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def wait_fraction(self) -> float:
        return self.wait_s / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def idle_fraction(self) -> float:
        return max(0.0, 1.0 - self.busy_fraction - self.wait_fraction)


@dataclass
class PhaseImbalance:
    """Cross-rank spread of one phase's per-rank time."""

    phase: str
    mean_s: float
    max_s: float
    max_rank: int

    @property
    def imbalance(self) -> float:
        """max/mean ratio (1.0 = perfectly balanced)."""
        return self.max_s / self.mean_s if self.mean_s > 0 else 1.0


@dataclass
class ImbalanceReport:
    ranks: List[RankLoad]
    phases: List[PhaseImbalance]
    #: ranks whose busy time exceeds the median by > threshold
    stragglers: List[int]
    threshold: float

    @property
    def mean_busy_fraction(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r.busy_fraction for r in self.ranks) / len(self.ranks)


def load_imbalance(
    spans,
    elapsed: float,
    num_ranks: int,
    threshold: float = 0.02,
) -> ImbalanceReport:
    """Compute utilization + imbalance stats from a span set.

    Busy time is executor (kernel) time; wait time is engine blocking
    (``wait_recv`` etc.).  NIC-occupancy ``xfer`` spans overlap the
    sender's timeline and are excluded from both.
    """
    t = ProfileInput.of(spans)
    ranked = (t.rank >= 0) & (t.rank < num_ranks)

    def per_rank(mask):
        return np.bincount(
            t.rank[mask], weights=t.dur[mask], minlength=num_ranks
        ).tolist()

    executor = ranked & t.where("executor")
    busy, wait = per_rank(executor), per_rank(ranked & t.where("engine"))
    # phase -> per-rank seconds (busy phases only: waits are the
    # *symptom* of imbalance, not its location)
    per_phase = t.phase_rank_seconds(executor, num_ranks)

    ranks = [
        RankLoad(rank=r, busy_s=busy[r], wait_s=wait[r], elapsed=elapsed)
        for r in range(num_ranks)
    ]
    phases = []
    for phase, times in sorted(per_phase.items()):
        mx = max(times)
        phases.append(PhaseImbalance(
            phase=phase,
            mean_s=sum(times) / len(times),
            max_s=mx,
            max_rank=times.index(mx),
        ))
    phases.sort(key=lambda p: -p.max_s)
    stragglers, _, _ = flag_outliers(busy, threshold) if num_ranks else ([], 0, 0)
    return ImbalanceReport(
        ranks=ranks, phases=phases, stragglers=stragglers, threshold=threshold
    )
