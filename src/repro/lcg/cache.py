"""Bounded, shared cache of regenerated LCG matrix tiles.

On-the-fly generation (the paper's Section III-C trick) trades memory
for recomputation: every :meth:`~repro.lcg.matrix.HplAiMatrix.block`
call reruns the O(64 · area) jump-ahead passes.  In an exact run the
same tiles are requested many times — the distributed fill asks for each
row band once *per process column*, and every iterative-refinement
residual regenerates the whole fill's worth of entries.  Entries are
pure functions of ``(n, seed, a, c)`` and the requested range, so
identical requests are trivially memoizable.  (The acceptance test in
:mod:`repro.core.verify` deliberately regenerates outside the cache.)

This module provides a process-wide :class:`TileCache`: an LRU keyed by
``(n, seed, a, c, row_start, row_stop, col_start, col_stop)`` holding
read-only FP64 arrays under a byte budget.  :class:`HplAiMatrix`
consults it from :meth:`~repro.lcg.matrix.HplAiMatrix.band`, which hands
readers the write-protected cached array itself, and from
:meth:`~repro.lcg.matrix.HplAiMatrix.block`, which returns a private
copy callers may mutate.  Because the key is value-based, the
cache is shared across matrix instances — which is exactly what makes it
effective: in a simulated SPMD run every rank owns its own
``HplAiMatrix`` object, but they all describe the same matrix.

The cache is bounded (default 256 MiB) and single entries larger than
the budget are simply not stored, so phantom-scale misuse degrades to
the old recompute-always behaviour instead of exhausting memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import context as obs_context

#: default byte budget — holds the full FP64 matrix up to N=4096 (the
#: FP16-safe exact-run ceiling) in b-row bands with room to spare
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

Key = Tuple[int, int, int, int, int, int, int, int]


def _count(event: str) -> None:
    """Mirror a cache event into the observability metrics registry.

    The cache keeps its own integer counters regardless (they are free
    and the bench report reads them); this adds the same events as
    ``lcg.tile_cache{event=...}`` counters when a handle is enabled so
    cache behaviour lands next to the comm/executor metrics in
    ``repro metrics`` exports.
    """
    obs = obs_context.current()
    if obs.enabled:
        obs.metrics.counter("lcg.tile_cache", event=event).inc()


class TileCache:
    """Byte-bounded LRU of read-only FP64 tile arrays."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes < 0:
            raise ConfigurationError(
                f"cache budget must be >= 0 bytes, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Key, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core ------------------------------------------------------------

    def get(self, key: Key) -> Optional[np.ndarray]:
        """The cached (read-only) array for ``key``, or None."""
        with self._lock:
            arr = self._entries.get(key)
            if arr is None:
                self.misses += 1
                _count("miss")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            _count("hit")
            return arr

    def put(self, key: Key, value: np.ndarray) -> None:
        """Store ``value`` (kept read-only); oversized values are skipped."""
        nbytes = value.nbytes
        if nbytes > self.max_bytes:
            return
        value = np.ascontiguousarray(value)
        value.setflags(write=False)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = value
            self._bytes += nbytes
            while self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1
                _count("eviction")

    # -- management ------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = self.misses = self.evictions = 0

    def resize(self, max_bytes: int) -> None:
        """Change the budget, evicting oldest entries if it shrank."""
        if max_bytes < 0:
            raise ConfigurationError(
                f"cache budget must be >= 0 bytes, got {max_bytes}"
            )
        with self._lock:
            self.max_bytes = max_bytes
            while self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy as a plain dict (for bench/obs reports)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_GLOBAL = TileCache()


def tile_cache() -> TileCache:
    """The process-wide shared tile cache."""
    return _GLOBAL


def clear_tile_cache() -> None:
    """Drop all cached tiles (tests / long campaigns with many seeds)."""
    _GLOBAL.clear()


def configure_tile_cache(max_bytes: int) -> None:
    """Set the shared cache's byte budget (0 disables retention)."""
    _GLOBAL.resize(max_bytes)
