"""Run watchdog: modelled deadlines instead of open-ended hangs.

The paper's operational rule is to *terminate* abnormal runs early
(Section VI-B) — a hung fabric burns node hours silently.  The
watchdog prices each phase of the run with the analytic model
(:func:`repro.model.perf_model.estimate_run`), inflates it by a
``margin``, and — checked at every health sampling tick — raises a
diagnosable :class:`~repro.errors.StallError` naming the blocked
operations (decoded tag, phase, rank set) the moment the virtual clock
blows past a deadline, instead of letting the event loop grind on.

Two deadlines are armed per run:

- **factorization**: all panel columns must complete within
  ``margin × modelled factorization time``;
- **total**: the whole run must complete within ``margin × modelled
  elapsed``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, StallError, describe_blocked
from repro.obs.health.series import SeriesBank

#: default deadline inflation over the analytic model — generous enough
#: that mis-modelled configurations never false-trip (the model is
#: typically within tens of percent), tight enough to catch a stall
#: orders of magnitude before max_events would
DEFAULT_MARGIN = 25.0


class RunWatchdog:
    """Per-phase deadline estimation + diagnosable stall escalation."""

    def __init__(self, margin: float = DEFAULT_MARGIN, enabled: bool = True):
        if margin <= 0:
            raise ConfigurationError(
                f"watchdog margin must be positive, got {margin}"
            )
        self.margin = margin
        self.enabled = enabled
        #: phase name -> deadline (virtual seconds), armed by :meth:`bind`
        self.deadlines: Dict[str, float] = {}
        self._num_blocks: Optional[int] = None
        self.tripped = False

    def bind(self, cfg) -> None:
        """Arm the deadlines from the analytic model of ``cfg``.

        Model gaps (exotic configurations) disarm the watchdog rather
        than kill the run — a health layer must never be the fault.
        """
        if not self.enabled:
            return
        try:
            from repro.model.perf_model import estimate_run

            est = estimate_run(cfg)
            self.deadlines = {
                "factorization": self.margin * est.elapsed_factorization,
                "total": self.margin * est.elapsed,
            }
            self._num_blocks = cfg.num_blocks
        except Exception:  # lint: ignore[hygiene] - model gaps must not kill a run
            self.deadlines = {}

    def check(
        self,
        engine,
        t: float,
        bank: Optional[SeriesBank] = None,
    ) -> None:
        """Raise :class:`StallError` when a deadline is blown.

        Called at every sampling tick with the live engine so the
        exception can name exactly which ranks are blocked on what.
        """
        if not self.enabled or not self.deadlines:
            return
        phase = self._blown_phase(t, bank)
        if phase is None:
            return
        self.tripped = True
        blocked = _blocked_of(engine)
        detail = "; ".join(
            describe_blocked(info) for info in blocked[:8]
        ) or "no rank currently blocked (livelock suspected)"
        raise StallError(
            f"watchdog: {phase} exceeded its deadline "
            f"{self.deadlines[phase]:.3f}s (clock {t:.3f}s, margin "
            f"{self.margin:g}x over the analytic model) — {detail}",
            blocked=blocked,
            elapsed=t,
        )

    def _blown_phase(self, t: float, bank: Optional[SeriesBank]) -> Optional[str]:
        total = self.deadlines.get("total")
        if total is not None and t > total:
            return "total"
        fact = self.deadlines.get("factorization")
        if (
            fact is not None
            and t > fact
            and self._num_blocks is not None
            and bank is not None
        ):
            steps = bank.series("steps_min").last
            if steps is not None and steps[1] < self._num_blocks:
                return "factorization"
        return None

    def to_dict(self) -> dict:
        """JSON-able state (the health report's ``watchdog`` entry)."""
        return {
            "enabled": self.enabled,
            "margin": self.margin,
            "deadlines_s": {k: v for k, v in self.deadlines.items()},
            "tripped": self.tripped,
        }


def _blocked_of(engine) -> List[dict]:
    """The engine's structured blocked-rank diagnosis (empty if none)."""
    fn = getattr(engine, "blocked_ranks", None)
    return fn() if callable(fn) else []

