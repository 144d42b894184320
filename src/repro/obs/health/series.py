"""Bounded time-series storage for the online health layer.

A :class:`RingSeries` is a fixed-capacity ring of ``(t, value)``
samples — the health sampler appends one point per series per sampling
tick, so memory stays bounded no matter how long the run is (the same
design constraint as the span tracer's ring).  A :class:`SeriesBank`
is the named collection the sampler writes into and the detectors read
from: global series are keyed by name, per-rank series by ``(name,
rank)``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: default per-series sample bound (one run's worth at ~1% cadence)
DEFAULT_CAPACITY = 512


class RingSeries:
    """Fixed-capacity ring of ``(t, value)`` samples."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"series capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._points: "deque[Tuple[float, float]]" = deque(maxlen=capacity)
        #: samples pushed out of the ring (diagnostic, like tracer.dropped)
        self.dropped = 0

    def append(self, t: float, value: float) -> None:
        """Record one sample; the oldest point falls off when full."""
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((float(t), float(value)))

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, i: int) -> Tuple[float, float]:
        return self._points[i]

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self._points)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self._points[-1] if self._points else None

    def times(self) -> List[float]:
        """The retained timestamps, oldest first."""
        return [t for t, _v in self._points]

    def values(self) -> List[float]:
        """The retained values, oldest first."""
        return [v for _t, v in self._points]

    def rate(self, window: int = 1) -> Optional[float]:
        """Backward difference quotient over the last ``window`` steps.

        ``(v[-1] - v[-1-window]) / (t[-1] - t[-1-window])``, or None
        when the series is too short or time did not advance.  This is
        the primitive every drift detector shares: applied to a
        cumulative series (busy seconds, events) it yields the activity
        *rate* over the recent window.
        """
        if window <= 0 or len(self._points) <= window:
            return None
        t1, v1 = self._points[-1]
        t0, v0 = self._points[-1 - window]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def to_dict(self, max_points: Optional[int] = None) -> dict:
        """JSON-able dump, optionally downsampled to ``max_points``."""
        pts = list(self._points)
        if max_points is not None and len(pts) > max_points > 0:
            stride = len(pts) / max_points
            pts = [pts[int(i * stride)] for i in range(max_points)]
        return {
            "t": [round(t, 9) for t, _v in pts],
            "v": [v for _t, v in pts],
            "dropped": self.dropped,
        }


class SeriesBank:
    """Named collection of ring series (global and per-rank)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._series: Dict[Tuple[str, Optional[int]], RingSeries] = {}
        #: per-rank series by name, then rank, in creation order
        self._ranked: Dict[str, Dict[int, RingSeries]] = {}

    def series(self, name: str, rank: Optional[int] = None) -> RingSeries:
        """Get-or-create the series for ``name`` (optionally per-rank)."""
        key = (name, rank)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = RingSeries(self.capacity)
            if rank is not None:
                self._ranked.setdefault(name, {})[rank] = s
        return s

    def rank_series(self, name: str) -> Dict[int, RingSeries]:
        """Every rank's series under ``name``, keyed by rank."""
        return dict(self._ranked.get(name, {}))

    def names(self) -> List[str]:
        """Distinct series names (global and per-rank collapsed)."""
        return sorted({name for name, _rank in self._series})

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _rank in self._series)

    def to_dict(self, max_points: Optional[int] = None) -> dict:
        """JSON-able dump: global series by name, per-rank series under
        ``<name>/rank<r>``."""
        out = {}
        for (name, rank), s in sorted(
            self._series.items(), key=lambda kv: (kv[0][0], kv[0][1] or -1)
        ):
            key = name if rank is None else f"{name}/rank{rank}"
            out[key] = s.to_dict(max_points=max_points)
        return out
