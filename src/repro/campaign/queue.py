"""Persistent job queue with atomic checkpoints (``--resume``).

The queue is the sweep's durable control state: every job's key, its
canonical document, and its status (``pending`` / ``done`` /
``failed``).  The engine checkpoints it after *every* completion via
the same atomic-write helper as the bench baseline, so a kill -9 at any
instant leaves a loadable checkpoint: resuming re-runs exactly the jobs
that were not yet marked done, and nothing else.

Schema ``repro.campaign.queue/v1``::

    {"schema": "repro.campaign.queue/v1",
     "jobs": [{"key": ..., "status": ..., "job": {...}, "error": ...}]}
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.util.atomicio import atomic_write_json

QUEUE_SCHEMA = "repro.campaign.queue/v1"

_STATUSES = ("pending", "done", "failed")


class JobQueue:
    """Ordered key → {job, status, error} map with a JSON checkpoint."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._jobs: "OrderedDict[str, dict]" = OrderedDict()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        import json

        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot load campaign queue {self.path}: {exc}"
            )
        if not isinstance(doc, dict) or doc.get("schema") != QUEUE_SCHEMA:
            raise ConfigurationError(
                f"{self.path} is not a campaign queue checkpoint "
                f"(expected schema {QUEUE_SCHEMA!r})"
            )
        jobs = doc.get("jobs", [])
        if not isinstance(jobs, list):
            raise ConfigurationError(
                f"{self.path}: 'jobs' must be a list, got "
                f"{type(jobs).__name__}"
            )
        for index, entry in enumerate(jobs):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"{self.path}: queue entry {index} must be an object, "
                    f"got {type(entry).__name__}"
                )
            key = entry.get("key")
            status = entry.get("status", "pending")
            job = entry.get("job", {})
            if (not key or not isinstance(key, str)
                    or status not in _STATUSES or not isinstance(job, dict)):
                raise ConfigurationError(
                    f"{self.path}: malformed queue entry {index}: {entry!r}"
                )
            self._jobs[key] = {
                "key": key, "status": status, "job": job,
                "error": entry.get("error", ""),
            }

    # -- mutation ---------------------------------------------------------

    def add(self, key: str, job_doc: dict) -> None:
        """Register a job as pending (no-op if the key is known)."""
        self._jobs.setdefault(
            key, {"key": key, "status": "pending", "job": dict(job_doc),
                  "error": ""}
        )

    def mark_done(self, key: str) -> None:
        """Record a completed job (it will be skipped on resume)."""
        self._set_status(key, "done")

    def mark_failed(self, key: str, error: str) -> None:
        """Record a failed job with its error (retried on resume)."""
        self._set_status(key, "failed", error)

    def _set_status(self, key: str, status: str, error: str = "") -> None:
        if key not in self._jobs:
            raise ConfigurationError(f"unknown queue key {key!r}")
        self._jobs[key]["status"] = status
        self._jobs[key]["error"] = error

    def checkpoint(self) -> str:
        """Atomically persist the queue state; returns the path written."""
        return atomic_write_json(self.path, self.to_dict())

    # -- inspection -------------------------------------------------------

    def pending(self) -> List[Tuple[str, dict]]:
        """``(key, job_doc)`` of every job not yet done.

        Failed jobs are included: a resume retries them (the failure may
        have been environmental), which is safe because execution is
        deterministic and results are content-addressed.
        """
        return [
            (key, entry["job"]) for key, entry in self._jobs.items()
            if entry["status"] != "done"
        ]

    def status_of(self, key: str) -> Optional[str]:
        """``pending``/``done``/``failed``, or None for unknown keys."""
        entry = self._jobs.get(key)
        return entry["status"] if entry else None

    def counts(self) -> Dict[str, int]:
        """Job tallies by status (the ``--summary-json`` queue block)."""
        out = {s: 0 for s in _STATUSES}
        for entry in self._jobs.values():
            out[entry["status"]] += 1
        return out

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, key: str) -> bool:
        return key in self._jobs

    def to_dict(self) -> dict:
        """The ``repro.campaign.queue/v1`` checkpoint document."""
        return {
            "schema": QUEUE_SCHEMA,
            "jobs": list(self._jobs.values()),
        }
