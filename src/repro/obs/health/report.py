"""The end-of-run health summary document.

A :class:`HealthReport` is the JSON-able artifact a monitored run
leaves behind: the detector findings, the ranks they implicate, the
watchdog state, and a downsampled dump of the sampled time series (so
the dashboard can be rendered later from the document alone).  The
schema is versioned (``repro.obs.health/v1``) and validated by the
``health-report`` row of :mod:`repro.analyze.checkers.schemas`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: schema tag stamped into every health document
HEALTH_SCHEMA = "repro.obs.health/v1"

#: per-series point cap in the report dump (keeps documents small; the
#: live bank keeps full resolution)
REPORT_MAX_POINTS = 200


@dataclass
class HealthReport:
    """Structured summary of one monitored run."""

    schema: str = HEALTH_SCHEMA
    source: str = "<monitor>"
    num_ranks: int = 0
    num_samples: int = 0
    cadence_s: float = 0.0
    elapsed_s: Optional[float] = None
    findings: List[dict] = field(default_factory=list)
    degraded_ranks: List[int] = field(default_factory=list)
    watchdog: dict = field(default_factory=dict)
    collectives: int = 0
    series: dict = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """True when no detector fired and the watchdog never tripped."""
        return not self.findings and not self.watchdog.get("tripped")

    def to_dict(self) -> dict:
        """The ``repro.obs.health/v1`` JSON document."""
        return {
            "schema": self.schema,
            "source": self.source,
            "num_ranks": self.num_ranks,
            "num_samples": self.num_samples,
            "cadence_s": self.cadence_s,
            "elapsed_s": self.elapsed_s,
            "findings": list(self.findings),
            "degraded_ranks": list(self.degraded_ranks),
            "watchdog": dict(self.watchdog),
            "collectives": self.collectives,
            "series": self.series,
        }

    def render_text(self) -> str:
        """Terminal-friendly summary (the ``repro health`` default)."""
        lines = [
            "health report",
            f"  ranks        : {self.num_ranks}",
            f"  samples      : {self.num_samples} "
            f"(cadence {self.cadence_s:.4g}s)",
        ]
        if self.elapsed_s is not None:
            lines.append(f"  elapsed      : {self.elapsed_s:.4f}s")
        wd = self.watchdog
        if wd:
            state = "TRIPPED" if wd.get("tripped") else (
                "armed" if wd.get("deadlines_s") else "disarmed"
            )
            lines.append(
                f"  watchdog     : {state} (margin {wd.get('margin', 0):g}x)"
            )
        if not self.findings:
            lines.append("  findings     : none — run looks healthy")
            return "\n".join(lines)
        lines.append(f"  findings     : {len(self.findings)}")
        if self.degraded_ranks:
            lines.append(
                "  degraded     : rank(s) "
                + ", ".join(str(r) for r in self.degraded_ranks)
            )
        for f in self.findings:
            ranks = f.get("ranks") or []
            who = f"rank {ranks}" if ranks else "global"
            lines.append(
                f"    [{f.get('severity', '?'):8s}] t={f.get('t_s', 0):.4f}s "
                f"{f.get('kind', '?')} ({who}): {f.get('message', '')}"
            )
        return "\n".join(lines)


def build_health_report(monitor, result=None) -> HealthReport:
    """Assemble the report from a finished :class:`HealthMonitor`.

    ``result`` is the driver's RunResult when available — it supplies
    the authoritative elapsed time; otherwise the last sample time is
    used.
    """
    bank = monitor.sampler.bank
    per_rank = bank.rank_series("busy_s")
    elapsed = getattr(result, "elapsed", None)
    if elapsed is None:
        last = bank.series("events").last
        elapsed = last[0] if last else None
    return HealthReport(
        source=f"<monitor:{len(monitor.detectors)} detectors>",
        num_ranks=len(per_rank),
        num_samples=monitor.sampler.num_samples,
        cadence_s=monitor.sampler.effective_cadence,
        elapsed_s=elapsed,
        findings=[ev.to_dict() for ev in monitor.events],
        degraded_ranks=monitor.degraded_ranks,
        watchdog=monitor.watchdog.to_dict(),
        collectives=monitor.collectives_seen,
        series=bank.to_dict(max_points=REPORT_MAX_POINTS),
    )
