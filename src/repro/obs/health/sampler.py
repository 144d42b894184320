"""The telemetry sampler and the composed health monitor.

:class:`TelemetrySampler` snapshots the live engine into the bounded
ring series of a :class:`~repro.obs.health.series.SeriesBank` at a
configurable virtual-time cadence:

- per rank: cumulative busy seconds (``busy_s``), cumulative wait
  seconds (``wait_s``), bytes sent, completed panel columns
  (``steps``, fed by the executors' :meth:`note_step` hook);
- run-global: event-queue depth, processed-event count, point-to-point
  bytes in flight, the run's own LCG tile-cache hit ratio (lookups
  since the run was bound; 0.0 before any), minimum completed step
  across ranks (``steps_min``), and simulated GF/s priced from the
  per-step flop counts when a configuration is bound.

:class:`HealthMonitor` is the handle the rest of the package talks to
(``obs.health``): it owns the sampler, runs the online detectors after
every tick, forwards each confirmed finding into the trace stream as a
``health.*`` span, arms the run watchdog, and renders the final
:class:`~repro.obs.health.report.HealthReport`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.health.detectors import (
    Detector,
    HealthEvent,
    default_detectors,
)
from repro.obs.health.series import DEFAULT_CAPACITY, SeriesBank
from repro.obs.health.watchdog import RunWatchdog

#: fallback sampling cadence (virtual seconds) when no model estimate
#: is available to auto-scale it
FALLBACK_CADENCE_S = 0.25

#: auto cadence targets this many samples over a modelled run
TARGET_SAMPLES = 128

#: the series sampled per rank, in the order a rank's are created
_RANK_SERIES = ("busy_s", "wait_s", "bytes_sent", "steps")


class TelemetrySampler:
    """Snapshots engine state into bounded time series at a cadence."""

    def __init__(
        self,
        cadence: Optional[float] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if cadence is not None and cadence <= 0:
            raise ConfigurationError(
                f"sampling cadence must be positive, got {cadence}"
            )
        self.cadence = cadence
        self.bank = SeriesBank(capacity)
        #: next virtual time a sample is due (engine compares per event)
        self.next_due = 0.0
        self.num_samples = 0
        self._auto_cadence: Optional[float] = None
        self._steps: Dict[int, int] = {}
        self._flops_prefix: Optional[List[float]] = None
        self._prev_flops: Optional[tuple] = None  # (t, flops_done)
        #: each rank's :data:`_RANK_SERIES` in :attr:`bank`, resolved once
        self._rank_series: List[list] = []
        #: tile-cache (hits, misses) when the run began: the series
        #: reports this run's lookups, not the process's
        self._cache_base = _cache_counts()

    # -- configuration ----------------------------------------------------

    def bind_config(self, cfg) -> None:
        """Price the run with the model: auto-cadence + per-step flops."""
        self._cache_base = _cache_counts()
        try:
            from repro.obs.analysis.progress import step_flops

            prefix = [0.0]
            for k in range(cfg.num_blocks):
                prefix.append(
                    prefix[-1]
                    + step_flops(cfg.n, cfg.block, cfg.num_ranks, k)
                )
            self._flops_prefix = prefix
        except Exception:  # lint: ignore[hygiene] - telemetry must not kill a run
            self._flops_prefix = None
        if self.cadence is None:
            try:
                from repro.model.perf_model import estimate_run

                est = estimate_run(cfg)
                self._auto_cadence = max(
                    est.elapsed / TARGET_SAMPLES, 1e-9
                )
            except Exception:  # lint: ignore[hygiene] - model gaps must not kill a run
                self._auto_cadence = None

    @property
    def effective_cadence(self) -> float:
        return self.cadence or self._auto_cadence or FALLBACK_CADENCE_S

    # -- hooks ------------------------------------------------------------

    def note_step(self, rank: int, k: int) -> None:
        """Executor hook: rank finished panel column ``k``'s update."""
        done = k + 1
        if done > self._steps.get(rank, 0):
            self._steps[rank] = done

    # -- sampling ---------------------------------------------------------

    def sample(self, engine, t: float) -> dict:
        """Record one snapshot of ``engine`` at virtual time ``t``."""
        bank = self.bank
        num_ranks = engine.num_ranks
        if len(self._rank_series) != num_ranks:
            self._rank_series = [
                [bank.series(name, rank=r) for name in _RANK_SERIES]
                for r in range(num_ranks)
            ]
        steps_min = None
        for r, (busy, wait, sent, steps), st in zip(
            range(num_ranks), self._rank_series, engine.stats
        ):
            busy.append(t, st.total_compute)
            wait.append(t, st.total_wait)
            sent.append(t, st.bytes_sent)
            steps_r = self._steps.get(r, 0)
            steps.append(t, steps_r)
            steps_min = (
                steps_r if steps_min is None else min(steps_min, steps_r)
            )
        steps_min = steps_min or 0
        bank.series("steps_min").append(t, steps_min)
        bank.series("queue_depth").append(t, len(engine._heap))
        bank.series("events").append(t, engine._events)
        bank.series("bytes_in_flight").append(
            t, getattr(engine, "_inflight_bytes", 0)
        )
        bank.series("cache_hit_ratio").append(t, self._cache_hit_ratio())
        gflops = self._gflops(t, steps_min)
        if gflops is not None:
            bank.series("gflops").append(t, gflops)
        self.num_samples += 1
        self.next_due = t + self.effective_cadence
        return {"t": t, "steps_min": steps_min, "gflops": gflops}

    def _gflops(self, t: float, steps_min: int) -> Optional[float]:
        """Windowed simulated GF/s from completed-column flop counts."""
        if self._flops_prefix is None:
            return None
        idx = min(steps_min, len(self._flops_prefix) - 1)
        flops_done = self._flops_prefix[idx]
        prev = self._prev_flops
        self._prev_flops = (t, flops_done)
        if prev is None or t <= prev[0]:
            return None
        return (flops_done - prev[1]) / (t - prev[0]) / 1e9

    def _cache_hit_ratio(self) -> float:
        """Hit ratio of the tile-cache lookups made since the run began."""
        hits, misses = _cache_counts()
        base_hits, base_misses = self._cache_base
        if hits < base_hits or misses < base_misses:
            # the cache was cleared mid-run: count from the clear
            self._cache_base = base_hits, base_misses = 0, 0
        hits -= base_hits
        lookups = hits + misses - base_misses
        return hits / lookups if lookups else 0.0


def _cache_counts() -> tuple:
    """The process-wide tile cache's (hits, misses) counters."""
    from repro.lcg.cache import tile_cache

    cache = tile_cache()
    return cache.hits, cache.misses


class HealthMonitor:
    """Sampler + detectors + watchdog behind one ``obs.health`` handle.

    Attach one to an :class:`~repro.obs.Observability` handle (the
    ``health=`` constructor parameter, or assign ``obs.health``) and
    every engine run under that handle is sampled, watched, and
    summarized::

        obs = Observability(health=HealthMonitor())
        res = simulate_run(cfg, obs=obs)
        print(res.health.render_text())
    """

    def __init__(
        self,
        cadence: Optional[float] = None,
        capacity: int = DEFAULT_CAPACITY,
        detectors: Optional[List[Detector]] = None,
        watchdog: Optional[RunWatchdog] = None,
        straggler_threshold: float = 0.3,
        patience: int = 3,
    ) -> None:
        self.sampler = TelemetrySampler(cadence=cadence, capacity=capacity)
        self.detectors = (
            detectors
            if detectors is not None
            else default_detectors(
                straggler_threshold=straggler_threshold, patience=patience
            )
        )
        self.watchdog = watchdog if watchdog is not None else RunWatchdog()
        self.events: List[HealthEvent] = []
        self.cfg = None
        self.collectives_seen = 0
        self.last_collective: Optional[dict] = None
        self._tracer = None

    # -- wiring -----------------------------------------------------------

    @property
    def next_due(self) -> float:
        """Next virtual time a sample is due (the engine's fast check)."""
        return self.sampler.next_due

    @property
    def bank(self) -> SeriesBank:
        return self.sampler.bank

    def attach(self, obs) -> None:
        """Bind the trace stream health events are emitted into."""
        if obs is not None and obs.enabled:
            self._tracer = obs.tracer

    def bind_run(self, cfg) -> None:
        """Driver hook: price deadlines/cadence from the configuration."""
        self.cfg = cfg
        self.sampler.bind_config(cfg)
        self.watchdog.bind(cfg)

    # -- hooks ------------------------------------------------------------

    def note_step(self, rank: int, k: int) -> None:
        """Executor hook: forward a finished panel column to the sampler."""
        self.sampler.note_step(rank, k)

    def note_collective(self, tag: int, algorithm: str, nbytes: int) -> None:
        """Comm-facade hook: a collective was posted (diagnosis context)."""
        self.collectives_seen += 1
        self.last_collective = {
            "tag": tag, "algorithm": algorithm, "bytes": nbytes,
        }

    def sample_engine(self, engine, t: float) -> None:
        """One sampling tick: snapshot, detect, watchdog-check.

        Called by the engine's event loop; may raise
        :class:`~repro.errors.StallError` when the watchdog trips.
        """
        self.sampler.sample(engine, t)
        bank = self.sampler.bank
        for det in self.detectors:
            for ev in det.update(bank, t):
                self._record(ev)
        self.watchdog.check(engine, t, bank)

    def _record(self, ev: HealthEvent) -> None:
        self.events.append(ev)
        if self._tracer is not None:
            self._tracer.add(
                f"health.{ev.kind}", "health", ev.t, ev.t,
                rank=ev.ranks[0] if ev.ranks else -1,
                attrs={
                    "severity": ev.severity,
                    "ranks": list(ev.ranks),
                    "message": ev.message,
                    **ev.attrs,
                },
            )

    # -- results ----------------------------------------------------------

    @property
    def degraded_ranks(self) -> List[int]:
        """Ranks implicated by any finding, ascending."""
        out = set()
        for ev in self.events:
            out.update(ev.ranks)
        return sorted(out)

    def finalize(self, result=None) -> "HealthReport":
        """Build the run's :class:`HealthReport` (driver calls this)."""
        from repro.obs.health.report import build_health_report

        return build_health_report(self, result=result)
