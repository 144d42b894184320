"""Job execution: one sweep point → one ``repro.campaign.result/v1`` row.

:func:`execute_job` is the function the worker pool runs.  It is a pure
function of the job's canonical form (plus the code version): it builds
the :class:`~repro.core.config.BenchmarkConfig`, draws the seeded GCD
fleet, and runs the full §VI-B record-run workflow — scan, exclusion,
warm-up, ``num_runs`` consecutive runs — against the analytic model via
:func:`repro.tools.campaign.run_campaign`.  Determinism is what makes
the content-addressed cache sound, so nothing time- or host-dependent
goes into the result body; volatile facts (wall time spent computing,
worker pid, UTC stamp) ride in the separate ``"meta"`` block which the
store's :meth:`~repro.campaign.store.ResultStore.snapshot` excludes
from equality comparisons.

The module-level function signature (``dict -> dict``) keeps everything
picklable for ``multiprocessing``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from datetime import datetime, timezone
from typing import Dict, Optional, Tuple

from repro.campaign.jobs import RESULT_SCHEMA, Job
from repro.machine import GcdFleet
from repro.obs.provenance import code_version
from repro.tools.campaign import run_campaign


def execute_job(job_doc: dict, code: Optional[str] = None) -> dict:
    """Run one campaign job; returns the result row (deterministic body)."""
    t0 = time.perf_counter()
    job = Job.from_dict(job_doc)
    code = code or code_version()
    cfg = job.to_config()
    fleet = GcdFleet(
        cfg.num_ranks + job.spare_nodes * cfg.machine.node.gcds_per_node,
        seed=job.seed,
    )
    res = run_campaign(
        cfg, fleet=fleet, num_runs=job.num_runs,
        scenario=job.load_scenario(),
    )
    best = res.best
    row: Dict[str, object] = {
        "schema": RESULT_SCHEMA,
        "key": job.key(code),
        "code": code,
        "label": job.label,
        "job": job.to_dict(),
        "config": cfg.describe(),
        "best": {
            "run": best.index,
            "elapsed_s": best.elapsed_s,
            "gflops_per_gcd": best.gflops_per_gcd,
            "total_flops_per_s": best.total_flops_per_s,
        },
        "runs": [
            {
                "run": r.index,
                "speed_multiplier": r.speed_multiplier,
                "elapsed_s": r.elapsed_s,
                "total_flops_per_s": r.total_flops_per_s,
            }
            for r in res.runs
        ],
        "variability": res.variability,
        "exclusion_applied": res.exclusion_applied,
        "excluded_nodes": (
            len(res.scan.slow_nodes) if res.scan is not None else 0
        ),
        "meta": {
            "completed_utc": datetime.now(timezone.utc).isoformat(),
            "worker_pid": os.getpid(),
            "compute_wall_s": round(time.perf_counter() - t0, 6),
        },
    }
    return row


def pool_execute(item: Tuple) -> Tuple[str, Optional[dict], str]:
    """Pool adapter: ``(key, job_doc, code[, enqueued_unix])`` →
    ``(key, row | None, error)``.

    Exceptions never cross the pool boundary raw — a failed job becomes
    a ``(key, None, message)`` triple so one bad config cannot abort a
    thousand-job sweep.

    The optional fourth element is the engine-side enqueue timestamp
    (``time.time()``, comparable across forked workers); when present,
    the result row's ``meta`` gains the fleet-utilization facts —
    ``worker`` (the pool process name), ``queue_wait_s`` (enqueue →
    start), and ``started_unix`` — which
    :func:`repro.obs.fleet.build_fleet` turns into per-worker
    queue-wait/run-time rollups and the campaign dashboard's Gantt.
    """
    key, job_doc, code = item[0], item[1], item[2]
    enqueued_unix = float(item[3]) if len(item) > 3 else None
    started_unix = time.time()
    try:
        row = execute_job(job_doc, code=code)
    except Exception as exc:  # lint: ignore[hygiene] - worker boundary: error crosses the pool as data
        return key, None, f"{type(exc).__name__}: {exc}"
    meta = row.setdefault("meta", {})
    meta["worker"] = multiprocessing.current_process().name
    meta["started_unix"] = round(started_unix, 6)
    if enqueued_unix is not None:
        meta["queue_wait_s"] = round(max(0.0, started_unix - enqueued_unix), 6)
    return key, row, ""
