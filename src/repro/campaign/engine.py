"""The sweep engine: queue + cache + store + worker pool.

:meth:`CampaignEngine.run_sweep` is the whole campaign loop:

1. register every job in the persistent :class:`JobQueue` (a resume
   passes the same queue file back in and only the not-yet-done jobs
   remain pending);
2. satisfy pending jobs from the content-addressed :class:`RunCache`
   (a re-run of an identical sweep is 100% hits, zero recomputation);
3. shard the remaining misses over a process pool
   (``workers=1`` runs inline — no worker processes, easiest to debug);
   a worker that dies fails every job still unfinished, naming each
   key, so the sweep ends and ``--resume`` retries them;
4. as each result lands: append it to the cache and the store, mark the
   queue entry done, and checkpoint the queue (one appended line) — so a
   kill at any instant loses at most the jobs still in flight.

Progress is narrated one line per completion in the
``LiveProgressReporter`` style (``[done/total] key label elapsed``),
and per-job outcomes are mirrored as ``campaign.jobs{event=...}`` obs
counters next to the run-cache counters.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, TextIO, Tuple

from repro.campaign.cache import RunCache
from repro.campaign.jobs import Job
from repro.campaign.queue import JobQueue
from repro.campaign.runner import pool_execute
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError
from repro.obs import context as obs_context

SUMMARY_SCHEMA = "repro.campaign.summary/v1"


def _count(event: str) -> None:
    obs = obs_context.current()
    if obs.enabled:
        obs.metrics.counter("campaign.jobs", event=event).inc()


def _count_worker(row: dict) -> None:
    """Mirror a computed row's worker meta as ``campaign.worker`` metrics.

    Recorded parent-side when the row lands: forked pool workers have
    their own registries that die with the process, so the utilization
    signal has to come back through the row's ``meta`` block.
    """
    obs = obs_context.current()
    if not obs.enabled:
        return
    meta = row.get("meta", {})
    worker = str(meta.get("worker") or "unknown")
    obs.metrics.counter("campaign.worker", worker=worker, event="jobs").inc()
    wait = meta.get("queue_wait_s")
    if isinstance(wait, (int, float)):
        obs.metrics.histogram(
            "campaign.worker.queue_wait_s", worker=worker
        ).observe(float(wait))
    wall = meta.get("compute_wall_s")
    if isinstance(wall, (int, float)):
        obs.metrics.histogram(
            "campaign.worker.run_s", worker=worker
        ).observe(float(wall))


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` call did (the ``--summary-json`` document)."""

    total: int = 0
    computed: int = 0
    cached: int = 0
    failed: int = 0
    wall_s: float = 0.0
    workers: int = 1
    cache_stats: Dict[str, int] = field(default_factory=dict)
    queue_counts: Dict[str, int] = field(default_factory=dict)
    errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def cache_hit_ratio(self) -> float:
        done = self.computed + self.cached
        return self.cached / done if done else 0.0

    def to_dict(self) -> dict:
        """The ``repro.campaign.summary/v1`` document."""
        return {
            "schema": SUMMARY_SCHEMA,
            "total": self.total,
            "computed": self.computed,
            "cached": self.cached,
            "failed": self.failed,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "wall_s": round(self.wall_s, 6),
            "workers": self.workers,
            "cache": dict(self.cache_stats),
            "queue": dict(self.queue_counts),
            "errors": [{"key": k, "error": e} for k, e in self.errors],
        }


class CampaignEngine:
    """Executes job sets against a store/cache pair with N workers."""

    def __init__(
        self,
        store: ResultStore,
        cache: RunCache,
        workers: int = 1,
        log: Optional[Callable[[str], None]] = None,
        stream: Optional[TextIO] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.cache = cache
        self.workers = workers
        if log is not None:
            self._log = log
        else:
            out = stream if stream is not None else sys.stderr
            self._log = lambda msg: print(msg, file=out, flush=True)

    def run_sweep(
        self,
        jobs: Iterable[Job],
        queue: JobQueue,
        code: Optional[str] = None,
        on_complete: Optional[Callable[[str, Optional[dict]], None]] = None,
    ) -> SweepOutcome:
        """Run (or resume) a sweep; returns the outcome summary.

        ``on_complete(key, row_or_None)`` fires after every completion
        *and* its checkpoint — tests use it to kill a sweep at a
        deterministic point and assert resume semantics.
        """
        if code is None:
            from repro.obs.provenance import code_version

            code = code_version()
        t0 = time.perf_counter()
        out = SweepOutcome(workers=self.workers)

        jobs = list(jobs)
        for job in jobs:
            queue.add(job.key(code), job.to_dict())
        queue.checkpoint()
        pending = queue.pending()
        out.total = len(queue)
        done_already = out.total - len(pending)
        if done_already:
            self._log(
                f"campaign: resuming — {done_already}/{out.total} job(s) "
                f"already done in {queue.path}"
            )

        # -- cache pass ---------------------------------------------------
        misses: List[Tuple[str, dict, str, float]] = []
        for key, job_doc in pending:
            row = self.cache.get(key)
            if row is not None:
                self.store.put(row)
                queue.mark_done(key)
                out.cached += 1
                _count("cached")
                self._progress(out, key, row, source="cache")
                if on_complete is not None:
                    on_complete(key, row)
            else:
                misses.append((key, job_doc, code, time.time()))
        queue.checkpoint()

        # -- compute pass -------------------------------------------------
        for key, row, error in self._execute(misses):
            if row is None:
                queue.mark_failed(key, error)
                out.failed += 1
                out.errors.append((key, error))
                _count("failed")
                self._log(f"campaign: job {key} FAILED: {error}")
            else:
                self.cache.put(key, row)
                self.store.put(row)
                queue.mark_done(key)
                out.computed += 1
                _count("computed")
                _count_worker(row)
                self._progress(out, key, row, source="computed")
            queue.checkpoint()
            if on_complete is not None:
                on_complete(key, row)

        out.wall_s = time.perf_counter() - t0
        out.cache_stats = self.cache.stats()
        out.queue_counts = queue.counts()
        return out

    def _execute(self, items: List[Tuple[str, dict, str, float]]):
        """Yield ``(key, row, error)`` for each miss, sharded if asked."""
        if not items:
            return
        if self.workers == 1 or len(items) == 1:
            for item in items:
                yield pool_execute(item)
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(items)),
            mp_context=multiprocessing.get_context("spawn"),
        )
        try:
            futures = {pool.submit(pool_execute, item): item[0] for item in items}
            for future in as_completed(futures):
                key = futures[future]
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    # A worker died (killed, OOM, os._exit): the pool is
                    # unusable and every unfinished job lands here.
                    yield key, None, (
                        f"job {key} lost: a pool worker process died "
                        f"before it finished ({exc})"
                    )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _progress(
        self, out: SweepOutcome, key: str, row: dict, source: str
    ) -> None:
        from repro.util.format import format_flops

        done = out.computed + out.cached + out.failed
        best = row.get("best", {})
        self._log(
            f"[{done}/{out.total}] {key} {row.get('label', '')} "
            f"{best.get('elapsed_s', 0.0):.1f}s "
            f"{format_flops(best.get('total_flops_per_s', 0.0))} "
            f"({source})"
        )
