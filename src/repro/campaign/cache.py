"""Content-addressed whole-run cache (the tile cache's on-disk sibling).

PR 2's LRU tile cache memoizes LCG tiles *within* a process because a
tile is a pure function of ``(n, seed, a, c, range)``.  A campaign run
is pure the same way — a function of the job's canonical form and the
code version — so identical configs across sweeps, resumes, and serve
requests should be computed exactly once.  :class:`RunCache` keeps one
append-only log under its directory (``runs.log``): each put appends a
``<key>\\t<row JSON>`` line through
:func:`repro.util.atomicio.locked_append` (fsync'd, under ``flock``).
In memory it holds only ``key → (offset, length)``, never the rows, so
a hit is one ``pread`` and one ``json.loads``.  Processes sharing the
directory (``repro serve`` beside a ``repro campaign``) see each
other's puts: an index miss first indexes the complete lines appended
since the last look.  An unparsable or key-mismatched entry is a miss
(and is recomputed) rather than poisoning the sweep; a torn final line
is never indexed, and the next put cuts it.

Hit/miss/store events are mirrored into the obs metrics registry as
``campaign.run_cache{event=...}`` counters — the same idiom as
``lcg.tile_cache`` — so closed-loop tests and ``repro metrics`` can
verify a re-run sweep was 100% cache hits with zero recomputation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.obs import context as obs_context
from repro.util.atomicio import locked_append

#: the log file inside the cache directory
LOG_NAME = "runs.log"


def _count(event: str) -> None:
    """Mirror a cache event as a ``campaign.run_cache`` obs counter."""
    obs = obs_context.current()
    if obs.enabled:
        obs.metrics.counter("campaign.run_cache", event=event).inc()


class RunCache:
    """Append-only log of content-addressed campaign results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / LOG_NAME
        #: key → (offset, length) of its latest line, without the newline
        self._index: Dict[str, Tuple[int, int]] = {}
        #: bytes of the log scanned into the index so far
        self._scanned = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _scan(self) -> None:
        """Index the complete lines appended since the last scan."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(self._scanned)
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn: never indexed
                key = line.partition(b"\t")[0].decode(errors="replace")
                self._index[key] = (self._scanned, len(line) - 1)
                self._scanned += len(line)

    def _locate(self, key: str) -> Optional[Tuple[int, int]]:
        if key not in self._index:
            self._scan()
        return self._index.get(key)

    def _read(self, key: str) -> Optional[dict]:
        where = self._locate(key)
        if where is None:
            return None
        offset, length = where
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            line = os.pread(fd, length, offset)
        finally:
            os.close(fd)
        head, _, body = line.partition(b"\t")
        if head != key.encode():
            return None
        try:
            row = json.loads(body)
        except ValueError:
            return None
        return row if isinstance(row, dict) and row.get("key") == key else None

    def get(self, key: str) -> Optional[dict]:
        """The cached result row for ``key``, or None.

        An unreadable or key-mismatched entry counts as a miss (and is
        recomputed) rather than poisoning the sweep.
        """
        row = self._read(key)
        if row is None:
            self.misses += 1
            _count("miss")
            return None
        self.hits += 1
        _count("hit")
        return row

    def put(self, key: str, row: dict) -> str:
        """Store a result row under its content address (one fsync'd append).

        Returns the log path.
        """
        line = f"{key}\t{json.dumps(row)}".encode()
        offset = locked_append(self.path, line + b"\n")
        self._index[key] = (offset, len(line))
        self.stores += 1
        _count("store")
        return str(self.path)

    def __contains__(self, key: str) -> bool:
        return self._locate(key) is not None

    def __len__(self) -> int:
        self._scan()
        return len(self._index)

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy (mirrors ``TileCache.stats``)."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }
