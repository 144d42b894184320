"""Manufacturing variability and warm-up models (Section VI-B, Fig 12).

Two effects the paper documents and works around:

1. **GCD-to-GCD variability** — "approximately 5% maximum variation
   between GCDs on Frontier" from manufacturing variance and
   power/thermal management.  A single slow GCD stalls the whole
   pipeline, hence the slow-node scan + exclusion workflow
   (:mod:`repro.tools.slownode`).  :class:`GcdFleet` assigns every GCD a
   deterministic (seeded) speed multiplier with a small number of slow
   outliers.

2. **Warm-up** — Summit's first full run in a batch job is ~20% slower
   (cold file-system caches for binaries/libraries), then run-to-run
   variation caps at 0.12%; Frontier's first two runs are *faster*,
   after which power/frequency/thermal control settles runs ~0.3% lower.
   :class:`WarmupModel` reproduces both shapes for Fig 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from numpy.random import default_rng

from repro.errors import ConfigurationError
from repro.util.validation import check_positive_int


@dataclass
class GcdFleet:
    """A fleet of GCDs with deterministic per-device speed multipliers.

    Parameters
    ----------
    num_gcds:
        Fleet size.
    seed:
        RNG seed; the same (num_gcds, seed) always produces the same fleet.
    sigma:
        Standard deviation of the baseline (one-sided) speed loss.
    slow_fraction:
        Fraction of GCDs that are distinctly slow outliers.
    slow_penalty:
        Maximum fractional slowdown of outliers (paper: ~5% on Frontier).
    """

    num_gcds: int
    seed: int = 2022
    sigma: float = 0.006
    slow_fraction: float = 0.02
    slow_penalty: float = 0.05

    _multipliers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_gcds, "num_gcds")
        if not 0.0 <= self.slow_fraction < 1.0:
            raise ConfigurationError(
                f"slow_fraction must be in [0, 1), got {self.slow_fraction}"
            )
        rng = default_rng(self.seed)
        # Baseline: every GCD loses a small one-sided amount.
        mult = 1.0 - np.abs(rng.normal(0.0, self.sigma, self.num_gcds))
        # Outliers: a few GCDs lose up to slow_penalty.
        n_slow = int(round(self.slow_fraction * self.num_gcds))
        if n_slow > 0:
            slow_idx = rng.choice(self.num_gcds, size=n_slow, replace=False)
            mult[slow_idx] = 1.0 - rng.uniform(
                self.slow_penalty * 0.6, self.slow_penalty, n_slow
            )
        self._multipliers = np.minimum(mult, 1.0)

    @property
    def multipliers(self) -> np.ndarray:
        """Per-GCD speed multipliers in (0, 1]; read-only view."""
        view = self._multipliers.view()
        view.flags.writeable = False
        return view

    def multiplier(self, gcd: int) -> float:
        """Speed multiplier of one GCD."""
        if not 0 <= gcd < self.num_gcds:
            raise ConfigurationError(
                f"gcd {gcd} out of range for fleet of {self.num_gcds}"
            )
        return float(self._multipliers[gcd])

    def slowest(self, count: int = 10) -> List[int]:
        """Indices of the ``count`` slowest GCDs, slowest first."""
        order = np.argsort(self._multipliers)
        return [int(i) for i in order[:count]]

    def exclude(self, gcds) -> "GcdFleet":
        """Return a fleet view with the given GCDs removed.

        Models the paper's practice of excluding slow nodes from the
        achievement runs.  The returned fleet has its multipliers copied
        (it is a plain re-indexed fleet, not re-randomized).
        """
        keep = np.setdiff1d(np.arange(self.num_gcds), np.asarray(list(gcds)))
        clone = GcdFleet.__new__(GcdFleet)
        clone.num_gcds = int(keep.size)
        clone.seed = self.seed
        clone.sigma = self.sigma
        clone.slow_fraction = self.slow_fraction
        clone.slow_penalty = self.slow_penalty
        clone._multipliers = self._multipliers[keep].copy()
        return clone

    def pipeline_multiplier(self) -> float:
        """Effective fleet speed: the *slowest* GCD gates the pipeline.

        "a single slow GPU can severely worsen total performance by
        stalling the pipeline" — in a bulk-synchronous factorization the
        iteration rate is set by the slowest participant.
        """
        return float(self._multipliers.min()) if self.num_gcds else 1.0


@dataclass(frozen=True)
class WarmupModel:
    """Run-index-dependent performance multipliers (Fig 12).

    ``style="summit"``: cold first run (×0.80 unless warmed up), then
    stable with ±0.12% jitter.  ``style="frontier"``: first two runs
    slightly fast (boost), later runs settle ~0.34% below the early peak
    as power/thermal control engages.
    """

    style: str
    cold_penalty: float = 0.20
    early_boost: float = 0.012
    steady_jitter: float = 0.0012
    thermal_settle: float = 0.0034
    seed: int = 7

    def __post_init__(self) -> None:
        if self.style not in ("summit", "frontier", "generic"):
            raise ConfigurationError(
                f"style must be 'summit', 'frontier' or 'generic', got "
                f"{self.style!r}"
            )

    def run_multiplier(self, run_index: int, warmed_up: bool = False) -> float:
        """Speed multiplier for the ``run_index``-th consecutive run (0-based)."""
        if run_index < 0:
            raise ConfigurationError(f"run_index must be >= 0, got {run_index}")
        rng = default_rng(self.seed + run_index)
        jitter = rng.uniform(-self.steady_jitter, self.steady_jitter)
        if self.style == "generic":
            # Unknown machine: steady runs with jitter only.
            return 1.0 + jitter
        if self.style == "summit":
            if run_index == 0 and not warmed_up:
                # Whole first run slow: binaries/libraries not yet cached.
                return (1.0 - self.cold_penalty) * (1.0 + jitter)
            return 1.0 + jitter
        # Frontier: first two runs faster, then thermal settling.
        if run_index < 2 and not warmed_up:
            return 1.0 + self.early_boost + jitter
        return 1.0 - self.thermal_settle + jitter

    def series(self, num_runs: int, warmed_up: bool = False) -> Dict[int, float]:
        """Multipliers for ``num_runs`` consecutive runs in one batch job."""
        check_positive_int(num_runs, "num_runs")
        return {
            i: self.run_multiplier(i, warmed_up=warmed_up) for i in range(num_runs)
        }
