"""Campaign-at-scale: sharded sweeps, run cache, result store, serving.

The paper's record runs (§VI-B, Fig 12) were *campaigns* — fleet scan,
warm-up, several consecutive runs, best-of reporting — and its tuning
figures (Fig 8) are sweeps over the (grid, broadcast, scenario, ...)
matrix.  This package turns :func:`repro.tools.campaign.run_campaign`
from a one-config workflow into a production campaign engine:

- :mod:`repro.campaign.jobs` — the sweep matrix: a :class:`Job` is one
  ``(machine, N, B, grid, bcast, scenario)`` point with a canonical
  JSON form and a content-addressed key (config hash + code version);
- :mod:`repro.campaign.queue` — persistent job queue whose checkpoint
  is an append-only log, giving ``--resume`` after a mid-sweep kill;
- :mod:`repro.campaign.cache` — content-addressed whole-run cache (the
  LRU tile cache's on-disk sibling): one append-only log indexed by
  offset, with ``campaign.run_cache`` obs counters;
- :mod:`repro.campaign.store` — indexed JSONL result store, queryable
  through the same :func:`repro.obs.analysis.regression_deltas`
  machinery as ``repro profile --against`` / ``bench --against``;
- :mod:`repro.campaign.engine` — the process pool tying queue + cache
  + store together (``repro campaign --workers N``);
- :mod:`repro.campaign.serve` — the long-lived HTTP/JSON API
  (``repro serve``) with single-flight dedupe of identical requests.

See ``docs/CAMPAIGN.md`` for the architecture and the cache-key
definition.
"""

from repro.campaign.cache import RunCache
from repro.campaign.engine import CampaignEngine, SweepOutcome
from repro.campaign.jobs import RESULT_SCHEMA, SWEEP_SCHEMA, Job, SweepSpec
from repro.campaign.queue import JobQueue
from repro.campaign.runner import execute_job
from repro.campaign.store import ResultStore, compare_stores

__all__ = [
    "CampaignEngine",
    "Job",
    "JobQueue",
    "RESULT_SCHEMA",
    "ResultStore",
    "RunCache",
    "SWEEP_SCHEMA",
    "SweepOutcome",
    "SweepSpec",
    "compare_stores",
    "execute_job",
]
