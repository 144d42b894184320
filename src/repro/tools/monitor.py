"""Progress monitoring and early termination (paper Section VI-B).

    "Our benchmark code has a detailed progress report for each
    component at definable iterations.  We compare each component's
    performance to our previously recorded data ... We quickly terminate
    runs that incur a significant slowdown in performance."

:class:`ProgressMonitor` consumes the per-iteration trace the driver
records, compares each component against reference expectations (from
the analytic model), and raises
:class:`~repro.errors.EarlyTerminationError` when the run has degraded
beyond tolerance for several consecutive report intervals — the
mechanism that would have caught the paper's Frontier fabric hangs.
:class:`PowerModel` integrates a simple per-GCD power draw over the
phase timeline, supporting the "monitor the power utilization" practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import BenchmarkConfig
from repro.errors import ConfigurationError, EarlyTerminationError
from repro.machine.topology import CommCosts
from repro.model.perf_model import iteration_columns
from repro.obs import context as obs_context
from repro.util.format import format_seconds, render_table


@dataclass
class ProgressReport:
    """One report interval's health summary."""

    iteration: int
    measured_s: float
    expected_s: float
    slowdown: float
    healthy: bool


@dataclass
class PowerModel:
    """Energy accounting from phase times.

    Per-GCD draw: ``busy_watts`` while computing, ``idle_watts`` while
    waiting on communication.  Defaults approximate a V100/MI250X GCD
    envelope.
    """

    busy_watts: float = 300.0
    idle_watts: float = 90.0

    def energy_joules(self, busy_s: float, idle_s: float) -> float:
        """Energy of one GCD given busy/idle phase durations."""
        if busy_s < 0 or idle_s < 0:
            raise ConfigurationError("phase times must be non-negative")
        return busy_s * self.busy_watts + idle_s * self.idle_watts

    def run_energy_mj(self, stats, elapsed: float) -> float:
        """Fleet energy (MJ) from engine per-rank stats."""
        total = 0.0
        for st in stats:
            busy = st.total_compute
            idle = max(elapsed - busy, 0.0)
            total += self.energy_joules(busy, idle)
        return total / 1e6

    def energy_from_spans(self, spans, elapsed: float, num_ranks: int) -> float:
        """Fleet energy (MJ) integrated over a span/timeline stream.

        Accepts :class:`repro.obs.Span` objects or the legacy
        ``(rank, start, end, kind)`` tuples; non-wait spans count as
        busy, everything else (including an entirely empty timeline) is
        idle draw for the whole ``elapsed`` window.
        """
        if elapsed < 0:
            raise ConfigurationError("elapsed must be non-negative")
        if num_ranks < 1:
            raise ConfigurationError("num_ranks must be >= 1")
        busy: Dict[int, float] = {}
        for s in spans:
            if hasattr(s, "rank"):
                rank, dur, kind = s.rank, s.duration, s.name
            else:
                rank, start, end, kind = s
                dur = end - start
            if not kind.startswith("wait") and kind != "comm_post":
                busy[rank] = busy.get(rank, 0.0) + dur
        total = 0.0
        for r in range(num_ranks):
            b = min(busy.get(r, 0.0), elapsed)
            total += self.energy_joules(b, elapsed - b)
        return total / 1e6


class ProgressMonitor:
    """Watchdog over the factorization's per-iteration trace.

    Parameters
    ----------
    cfg:
        The run configuration (used to derive expected per-iteration
        times from the analytic model).
    tolerance:
        Acceptable fractional slowdown vs expectation before an interval
        is unhealthy (the model is a guideline, so this is generous).
    patience:
        Consecutive unhealthy report intervals before termination.
    report_every:
        Report interval in iterations ("definable iterations").
    """

    def __init__(
        self,
        cfg: BenchmarkConfig,
        tolerance: float = 0.5,
        patience: int = 3,
        report_every: int = 10,
    ) -> None:
        if tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
        if patience < 1 or report_every < 1:
            raise ConfigurationError("patience and report_every must be >= 1")
        self.cfg = cfg
        self.tolerance = tolerance
        self.patience = patience
        self.report_every = report_every
        costs = CommCosts(
            cfg.machine, port_binding=cfg.port_binding, gpu_aware=cfg.gpu_aware
        )
        self._expected = iteration_columns(cfg, costs)["total"].tolist()
        self.reports: List[ProgressReport] = []
        self._window: List[float] = []
        self._unhealthy_streak = 0

    def expected_iteration_s(self, k: int) -> float:
        """Model-expected wall time of iteration k."""
        if not 0 <= k < len(self._expected):
            raise ConfigurationError(
                f"k must be in [0, {len(self._expected)}), got {k}"
            )
        return self._expected[k]

    def observe(self, k: int, measured_s: float) -> Optional[ProgressReport]:
        """Feed one iteration's measured wall time.

        Returns a :class:`ProgressReport` at report boundaries (else
        None); raises :class:`EarlyTerminationError` once ``patience``
        consecutive reports are unhealthy.
        """
        if measured_s < 0:
            raise ConfigurationError(f"measured time must be >= 0, got {measured_s}")
        self._window.append(measured_s)
        if (k + 1) % self.report_every != 0 and k + 1 != self.cfg.num_blocks:
            return None
        start = k + 1 - len(self._window)
        expected = sum(
            self.expected_iteration_s(i) for i in range(start, k + 1)
        )
        measured = sum(self._window)
        self._window.clear()
        slowdown = measured / expected - 1.0 if expected > 0 else 0.0
        healthy = slowdown <= self.tolerance
        report = ProgressReport(
            iteration=k,
            measured_s=measured,
            expected_s=expected,
            slowdown=slowdown,
            healthy=healthy,
        )
        self.reports.append(report)
        obs = obs_context.current()
        if obs.enabled:
            m = obs.metrics
            m.gauge("monitor.slowdown").set(slowdown)
            m.counter("monitor.reports").inc()
            if not healthy:
                m.counter("monitor.unhealthy_reports").inc()
        if healthy:
            self._unhealthy_streak = 0
        else:
            self._unhealthy_streak += 1
            if self._unhealthy_streak >= self.patience:
                raise EarlyTerminationError(
                    f"run degraded {slowdown:+.0%} vs expectation for "
                    f"{self._unhealthy_streak} consecutive report intervals "
                    "(suspected fabric hang or slow node); terminating to "
                    "save node hours",
                    iteration=k,
                )
        return report

    def watch_trace(self, trace: List[dict]) -> List[ProgressReport]:
        """Run the watchdog over a recorded driver trace."""
        for entry in trace:
            total = entry.get("panel", 0.0) + entry.get("gemm", 0.0) + entry.get(
                "recv", 0.0
            )
            self.observe(entry["k"], total)
        return self.reports

    def watch_result(self, result) -> List[ProgressReport]:
        """Run the watchdog over a finished run's recorded trace.

        The unified-telemetry entry point: takes a
        :class:`~repro.core.driver.RunResult` (whose per-iteration trace
        the driver recorded) instead of a raw dict list.
        """
        if not getattr(result, "trace", None):
            raise ConfigurationError(
                "result has no per-iteration trace (collect_trace=False?)"
            )
        return self.watch_trace(result.trace)

    def render(self) -> str:
        """ASCII table of all report intervals."""
        rows = [
            [
                r.iteration,
                format_seconds(r.measured_s),
                format_seconds(r.expected_s),
                f"{r.slowdown:+.1%}",
                "ok" if r.healthy else "SLOW",
            ]
            for r in self.reports
        ]
        return render_table(
            ["iter", "measured", "expected", "slowdown", "health"],
            rows,
            title=f"progress report ({self.cfg.machine.name}, "
            f"N={self.cfg.n}, B={self.cfg.block})",
        )
