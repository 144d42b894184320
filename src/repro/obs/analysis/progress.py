"""Live run telemetry: per-panel-column throughput and projected finish.

The factorization rank program already appends one dict per panel
column to its ``trace`` list (``{"k", "panel", "gemm", "recv"}``, rank 0
only).  :class:`LiveProgressReporter` *is* such a list — the driver
passes it straight through — and on every append it prices the step it
just saw: step-k global flops over step wall time gives the column's
effective GF/s, and the ratio of measured-so-far to modelled-so-far
time rescales the model's remaining-time estimate into a projected
finish.  This mirrors watching a real HPL run's per-column output
scroll by, the paper's first signal that a scaling run is healthy.
"""

from __future__ import annotations

import sys
from typing import List, Optional, TextIO

from repro.util import flops as fl

#: modelled-time sums below this give no stable calibration ratio
_EPS_S = 1e-12


def step_flops(n: int, block: int, num_ranks: int, k: int) -> int:
    """Global useful flops of factorization step ``k``.

    GETRF on the diagonal, two panel TRSMs, and the trailing GEMM —
    the leading terms of eq. (2) for one step.
    """
    r = max(0, n - (k + 1) * block)
    return (
        fl.getrf_flops(block)
        + 2 * fl.trsm_flops(block, r)
        + fl.gemm_flops(r, r, block)
    )


class LiveProgressReporter(list):
    """A factorization trace sink that narrates the run as it happens.

    Drop-in for the plain ``trace`` list the driver feeds rank 0's
    program: every appended per-column record prints

    ``[k 12/40] col 512.3 GF/s/GCD | run 498.1 | 31.2s elapsed, ~78.5s total``

    where the projection scales the model's expected remaining time by
    the measured/modelled ratio of the steps completed so far.
    """

    def __init__(
        self,
        cfg,
        stream: Optional[TextIO] = None,
        every: int = 1,
        warmup: int = 2,
    ) -> None:
        super().__init__()
        self.cfg = cfg
        self.stream = stream or sys.stderr
        self.every = max(1, int(every))
        #: leading columns excluded from the calibration window once
        #: later measurements exist (cold caches skew the ratio)
        self.warmup = max(0, int(warmup))
        self._elapsed = 0.0
        self._flops = 0
        self._measured: List[float] = []
        self._expected = self._expected_step_times(cfg)

    @staticmethod
    def _expected_step_times(cfg) -> List[float]:
        """Modelled per-step critical-path seconds (None-safe fallback)."""
        try:
            from repro.machine.topology import CommCosts
            from repro.model.perf_model import iteration_columns

            costs = CommCosts(
                cfg.machine, port_binding=cfg.port_binding,
                gpu_aware=cfg.gpu_aware,
            )
            return iteration_columns(cfg, costs)["total"].tolist()
        except Exception:  # lint: ignore[hygiene] - model gaps must not kill a run
            return []

    def append(self, record: dict) -> None:
        super().append(record)
        try:
            self._report(record)
        except Exception:  # lint: ignore[hygiene] - telemetry must not kill a run
            pass

    def _report(self, record: dict) -> None:
        cfg = self.cfg
        k = int(record.get("k", len(self) - 1))
        step_s = (
            float(record.get("panel", 0.0))
            + float(record.get("gemm", 0.0))
            + float(record.get("recv", 0.0))
        )
        self._elapsed += step_s
        self._measured.append(step_s)
        f = step_flops(cfg.n, cfg.block, cfg.num_ranks, k)
        self._flops += f
        if (k + 1) % self.every and (k + 1) != cfg.num_blocks:
            return
        col_gfs = f / step_s / cfg.num_ranks / 1e9 if step_s > 0 else 0.0
        run_gfs = (
            self._flops / self._elapsed / cfg.num_ranks / 1e9
            if self._elapsed > 0 else 0.0
        )
        line = (
            f"[k {k + 1:>{len(str(cfg.num_blocks))}}/{cfg.num_blocks}] "
            f"col {col_gfs:8.1f} GF/s/GCD | run {run_gfs:8.1f} | "
            f"{self._elapsed:.2f}s elapsed"
        )
        projected = self.projected_total()
        if projected is not None:
            line += f", ~{projected:.2f}s total"
        print(line, file=self.stream)

    def projected_total(self) -> Optional[float]:
        """Projected factorization seconds (measured-calibrated model).

        The measured/modelled ratio is taken over the *post-warm-up*
        columns once any exist — the first panel columns run with cold
        caches and near-zero modelled times, and calibrating on them
        made early projections swing wildly.  A near-zero modelled
        divisor yields ``None`` instead of a nonsense extrapolation.
        """
        done = len(self._measured)
        if not self._expected or done == 0 or done > len(self._expected):
            return None
        start = self.warmup if done > self.warmup else 0
        expected_done = sum(self._expected[start:done])
        if expected_done <= _EPS_S:
            return None
        measured_done = sum(self._measured[start:done])
        ratio = measured_done / expected_done
        remaining = sum(self._expected[done:])
        return self._elapsed + ratio * remaining
