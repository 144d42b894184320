"""Persistent job queue: an append-only checkpoint log (``--resume``).

The queue is the sweep's durable control state: every job's key, its
canonical document, and its status (``pending`` / ``done`` /
``failed``).  The engine checkpoints it after *every* completion, and a
checkpoint appends only what changed since the last one — one compact
line through :func:`repro.util.atomicio.locked_append` (fsync'd, under
``flock``), nothing at all when nothing changed — so an N-job sweep
writes 1 + N lines instead of rewriting the whole queue N times.  A
kill -9 at any instant leaves a loadable log: resuming re-runs exactly
the jobs that were not yet marked done, and nothing else.

Each line is one ``repro.campaign.queue/v1`` document holding the
entries added or re-statused since the previous checkpoint::

    {"schema": "repro.campaign.queue/v1",
     "jobs": [{"key": ..., "status": ..., "job": {...}, "error": ...}]}

Loading replays the file as a sequence of such documents; the last
entry per key wins, and a key keeps the position where it first
appeared.  A single indented document (the whole-queue checkpoint
earlier versions wrote) is a one-element sequence.  A final line that
is cut short (no terminating newline, not a complete document) is a
torn append: it is dropped with a warning naming ``path:line``, and the
next checkpoint cuts it before appending.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.util.atomicio import locked_append

QUEUE_SCHEMA = "repro.campaign.queue/v1"

_STATUSES = ("pending", "done", "failed")

_WHITESPACE = re.compile(r"\s*")


class JobQueue:
    """Ordered key → {job, status, error} map with an append-only checkpoint."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._jobs: "OrderedDict[str, dict]" = OrderedDict()
        #: keys added or re-statused since the last checkpoint (ordered)
        self._changed: Dict[str, None] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot load campaign queue {self.path}: {exc}"
            )
        decoder = json.JSONDecoder()
        pos = _WHITESPACE.match(text).end()
        line = text.count("\n", 0, pos) + 1
        while pos < len(text):
            try:
                doc, end = decoder.raw_decode(text, pos)
            except ValueError as exc:
                if "\n" in text[pos:]:
                    raise ConfigurationError(
                        f"cannot load campaign queue {self.path}:{line}: {exc}"
                    )
                warnings.warn(
                    f"{self.path}:{line}: dropping a torn final queue line "
                    "(no newline); the next checkpoint truncates it",
                    stacklevel=3,
                )
                return
            keys = self._replay(doc, line)
            start, pos = pos, _WHITESPACE.match(text, end).end()
            line += text.count("\n", start, pos)
            if not text.endswith("\n") and pos == len(text):
                # Complete but unterminated: the next append cuts it, so
                # it is written again then.
                self._changed.update(dict.fromkeys(keys))

    def _replay(self, doc, line: int) -> List[str]:
        """Apply one checkpoint document; returns the keys it names."""
        where = f"{self.path}:{line}"
        if not isinstance(doc, dict) or doc.get("schema") != QUEUE_SCHEMA:
            raise ConfigurationError(
                f"{where} is not a campaign queue checkpoint "
                f"(expected schema {QUEUE_SCHEMA!r})"
            )
        jobs = doc.get("jobs", [])
        if not isinstance(jobs, list):
            raise ConfigurationError(
                f"{where}: 'jobs' must be a list, got {type(jobs).__name__}"
            )
        keys = []
        for index, entry in enumerate(jobs):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"{where}: queue entry {index} must be an object, "
                    f"got {type(entry).__name__}"
                )
            key = entry.get("key")
            status = entry.get("status", "pending")
            job = entry.get("job", {})
            if (not key or not isinstance(key, str)
                    or status not in _STATUSES or not isinstance(job, dict)):
                raise ConfigurationError(
                    f"{where}: malformed queue entry {index}: {entry!r}"
                )
            self._jobs[key] = {
                "key": key, "status": status, "job": job,
                "error": entry.get("error", ""),
            }
            keys.append(key)
        return keys

    # -- mutation ---------------------------------------------------------

    def add(self, key: str, job_doc: dict) -> None:
        """Register a job as pending (no-op if the key is known)."""
        if key not in self._jobs:
            self._jobs[key] = {"key": key, "status": "pending",
                               "job": dict(job_doc), "error": ""}
            self._changed[key] = None

    def mark_done(self, key: str) -> None:
        """Record a completed job (it will be skipped on resume)."""
        self._set_status(key, "done")

    def mark_failed(self, key: str, error: str) -> None:
        """Record a failed job with its error (retried on resume)."""
        self._set_status(key, "failed", error)

    def _set_status(self, key: str, status: str, error: str = "") -> None:
        entry = self._jobs.get(key)
        if entry is None:
            raise ConfigurationError(f"unknown queue key {key!r}")
        if (entry["status"], entry["error"]) != (status, error):
            entry["status"] = status
            entry["error"] = error
            self._changed[key] = None

    def checkpoint(self) -> str:
        """Durably append what changed since the last checkpoint.

        Writes nothing when nothing changed.  Returns the queue path.
        """
        if self._changed:
            doc = {"schema": QUEUE_SCHEMA,
                   "jobs": [self._jobs[k] for k in self._changed]}
            line = json.dumps(doc, separators=(",", ":")) + "\n"
            locked_append(self.path, line.encode())
            self._changed.clear()
        return str(self.path)

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
