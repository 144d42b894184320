"""Model-vs-measured comparison and generic regression deltas.

The analytic model (:mod:`repro.model.perf_model`) prices every
benchmark phase in O(N/B); the trace records what the event engine (or
a real run, for a compatible trace) actually spent.  Joining the two
per phase answers two different questions:

- *calibration*: where does the model diverge from the simulator
  (big deviations = modelling gaps worth fixing), and
- *regression gating*: did a code change move any phase by more than a
  tolerated fraction vs a recorded baseline
  (:func:`regression_deltas`, shared with ``repro bench``'s gate).

Measured per-phase time is the **busiest rank's** total in that phase —
the bulk-synchronous pipeline runs at the slowest rank's pace, which is
what the model's critical-path estimate prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.obs.analysis.loaders import ProfileInput

#: measured comm-phase name → model breakdown key
_MODEL_KEY = {
    "getrf": "getrf",
    "trsm": "trsm",
    "cast": "cast",
    "gemm": "gemm",
    "diag_bcast": "diag_bcast",
    "panel_bcast": "exposed_comm",
}


@dataclass
class PhaseDeviation:
    """One phase's measured vs modelled seconds."""

    phase: str
    measured_s: float
    model_s: float

    @property
    def deviation(self) -> Optional[float]:
        """Fractional (measured - model) / model; None when unmodelled."""
        if self.model_s <= 0:
            return None
        return (self.measured_s - self.model_s) / self.model_s


@dataclass
class DeviationReport:
    phases: List[PhaseDeviation]
    measured_total: float
    model_total: float

    @property
    def total_deviation(self) -> Optional[float]:
        if self.model_total <= 0:
            return None
        return (self.measured_total - self.model_total) / self.model_total

    def worst(self) -> Optional[PhaseDeviation]:
        """Phase with the largest absolute deviation (modelled only)."""
        scored = [p for p in self.phases if p.deviation is not None]
        if not scored:
            return None
        return max(scored, key=lambda p: abs(p.deviation))


def measured_phase_seconds(spans, num_ranks: int) -> Dict[str, float]:
    """Busiest-rank seconds per phase, from executor + wait spans.

    Executor spans contribute compute phases; ``wait_recv`` spans
    contribute the *exposed* communication their tag decodes to.  Other
    engine waits (send drain, collectives) land in their own buckets.
    """
    t = ProfileInput.of(spans)
    mask = (
        (t.rank >= 0) & (t.rank < num_ranks)
        & (t.where("executor") | t.where("engine"))
    )
    per = t.phase_rank_seconds(mask, num_ranks)
    return {phase: max(times) for phase, times in sorted(per.items())}


def model_vs_measured(
    spans,
    cfg,
    elapsed: float,
    num_ranks: int,
) -> DeviationReport:
    """Join busiest-rank measured phase times against the analytic model."""
    from repro.model.perf_model import estimate_run

    est = estimate_run(cfg)
    t = ProfileInput.of(spans)
    measured = measured_phase_seconds(t, num_ranks)

    # Refinement measured time: prefer the driver's phase span; fall
    # back to the busiest rank's IR kernel + wait time.
    driver_ir = np.flatnonzero(t.where("driver", "refinement"))
    ir_measured = (
        float(t.dur[driver_ir[0]])
        if len(driver_ir)
        else measured.get("ir", 0.0) + measured.get("collective", 0.0)
    )

    rows = []
    for phase, key in _MODEL_KEY.items():
        rows.append(PhaseDeviation(
            phase=phase,
            measured_s=measured.get(phase, 0.0),
            model_s=est.breakdown.get(key, 0.0),
        ))
    rows.append(PhaseDeviation(
        phase="refinement",
        measured_s=ir_measured,
        model_s=est.breakdown.get("refinement", 0.0),
    ))
    # Anything measured but unmodelled still shows up (model_s = 0).
    covered = set(_MODEL_KEY) | {"ir", "collective", "refinement"}
    for phase, secs in measured.items():
        if phase not in covered:
            rows.append(PhaseDeviation(phase=phase, measured_s=secs, model_s=0.0))
    rows.sort(key=lambda p: -p.measured_s)
    return DeviationReport(
        phases=rows, measured_total=elapsed, model_total=est.elapsed
    )


# -- generic regression gate ------------------------------------------------

@dataclass
class Regression:
    """One metric's move vs a recorded baseline."""

    name: str
    current_s: float
    baseline_s: float
    regressed: bool

    @property
    def delta(self) -> Optional[float]:
        if self.baseline_s <= 0:
            return None
        return (self.current_s - self.baseline_s) / self.baseline_s


def regression_deltas(
    current: Dict[str, float],
    baseline: Dict[str, float],
    threshold: float,
    min_seconds: float = 0.0,
) -> List[Regression]:
    """Compare two name→seconds maps; one entry per shared name.

    A metric *regresses* when it grew by more than ``threshold``
    (fractional) over the baseline.  ``min_seconds`` suppresses noise on
    negligible phases: below that floor nothing regresses.
    """
    rows = []
    for name in sorted(set(current) & set(baseline)):
        cur, base = float(current[name]), float(baseline[name])
        delta = (cur - base) / base if base > 0 else None
        regressed = (
            delta is not None and delta > threshold and cur >= min_seconds
        )
        rows.append(Regression(name, cur, base, regressed))
    rows.sort(key=lambda r: -(r.delta if r.delta is not None else float("-inf")))
    return rows
