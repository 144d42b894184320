"""Critical-path extraction over the span DAG.

The simulator's spans form a DAG: within one rank, spans are totally
ordered by time; across ranks, a ``wait_recv`` span (attrs ``src`` /
``tag``) depends on the matching ``xfer`` span on the sender.  The
*critical path* is the dependency chain ending at the globally latest
span — the sequence of work/wait segments that actually bounded wall
time.  Attribution of its segments to benchmark phases is the Fig.-10
style answer to "what bounds this run: panel GETRF/TRSM, the
broadcasts, the GEMM update, or refinement?".

Algorithm (back-walk): start from the span with the latest end time.
From a ``wait_recv`` span, jump to the sender's matching ``xfer`` span
(same tag, latest end not after the wait's end); from anything else,
step to the same-rank predecessor with the latest end at or before the
span's start.  Stop when no predecessor exists.  Gaps between
consecutive path segments (scheduler slack the trace doesn't explain)
are reported as uncovered time rather than attributed to a phase.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.analysis.loaders import ProfileInput
from repro.obs.tracer import NONE, Span

#: slack tolerated when matching predecessor end times (float noise)
_EPS = 1e-9


@dataclass
class PathSegment:
    """One span on the critical path (time-ordered)."""

    span: Span
    phase: str
    step: Optional[int]

    @property
    def duration(self) -> float:
        return self.span.end - self.span.start


@dataclass
class CriticalPathResult:
    """The extracted path plus its phase attribution."""

    segments: List[PathSegment]
    #: seconds of path time per benchmark phase, descending order
    phase_seconds: Dict[str, float]
    #: total wall time of the trace window
    elapsed: float
    #: fraction of ``elapsed`` the path's segments explain
    coverage: float
    #: per-factorization-step bounding phase, for steps whose comm
    #: segments appear on the path
    step_bound: Dict[int, str] = field(default_factory=dict)

    @property
    def bounding_phase(self) -> Optional[str]:
        """The phase with the most path time (None for an empty path)."""
        if not self.phase_seconds:
            return None
        return max(self.phase_seconds, key=lambda p: self.phase_seconds[p])


def _slices(keys: np.ndarray) -> Dict[tuple, Tuple[int, int]]:
    """``key -> [lo, hi)`` for the runs of equal rows in sorted ``keys``."""
    if not len(keys):
        return {}
    edges = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
    bounds = [0, *edges.tolist(), len(keys)]
    return {
        tuple(keys[lo].tolist()): (lo, hi) for lo, hi in zip(bounds, bounds[1:])
    }


def critical_path(spans, elapsed: float) -> CriticalPathResult:
    """Extract the critical path from a span set (see module docstring)."""
    t = ProfileInput.of(spans)
    start, end, rank = t.start, t.end, t.rank
    ranked = np.flatnonzero((rank >= 0) & (end > start))
    if not len(ranked):
        return CriticalPathResult([], {}, elapsed, 0.0)

    # Each rank's spans by (end, start), and each (src, dst) pair's xfer
    # spans by end — stable, so ties stay in span order.
    by_rank = ranked[np.lexsort((start[ranked], end[ranked], rank[ranked]))]
    rank_ends = end[by_rank].tolist()
    rank_slice = _slices(rank[by_rank][:, None])
    xfers = ranked[t.xfers[ranked]]
    xfers = xfers[np.lexsort((end[xfers], t.x_dst[xfers], rank[xfers]))]
    xfer_ends = end[xfers].tolist()
    xfer_tags = t.x_tag[xfers]
    pair_slice = _slices(np.stack([rank[xfers], t.x_dst[xfers]], axis=1))

    def rank_predecessor(r: int, not_after: float) -> Optional[int]:
        lo, hi = rank_slice.get((r,), (0, 0))
        i = bisect.bisect_right(rank_ends, not_after + _EPS, lo, hi) - 1
        return int(by_rank[i]) if i >= lo else None

    def sender_xfer(src, dst, tag, not_after: float) -> Optional[int]:
        """Latest xfer span src→dst ending at or before ``not_after``;
        prefers an exact tag match when the wait recorded one, else
        falls back to any tag (e.g. staged transfers)."""
        lo, hi = pair_slice.get((src, dst), (0, 0))
        k = bisect.bisect_right(xfer_ends, not_after + _EPS, lo, hi)
        if tag != NONE:
            hits = np.flatnonzero(xfer_tags[lo:k] == tag)
            if len(hits):
                return int(xfers[lo + hits[-1]])
        return int(xfers[k - 1]) if k > lo else None

    recv = t.where(name="wait_recv") & (t.x_src != NONE)
    cur: Optional[int] = int(ranked[np.argmax(end[ranked])])
    path: List[int] = []
    seen = set()
    # Each hop moves to a span ending no later than the current one; the
    # seen-set guards against equal-end ties looping forever.
    while cur is not None and cur not in seen:
        seen.add(cur)
        path.append(cur)
        nxt = None
        if recv[cur]:
            nxt = sender_xfer(
                int(t.x_src[cur]), int(rank[cur]), t.x_tag[cur], float(end[cur])
            )
        if nxt is None or nxt in seen:
            nxt = rank_predecessor(int(rank[cur]), float(start[cur]))
        cur = nxt
    path.reverse()
    segments = [
        PathSegment(span, *t.phase_step(i))
        for i, span in zip(path, t.take(np.array(path)))
    ]

    phase_seconds: Dict[str, float] = {}
    step_bound: Dict[int, Dict[str, float]] = {}
    covered = 0.0
    for seg in segments:
        phase_seconds[seg.phase] = phase_seconds.get(seg.phase, 0.0) + seg.duration
        covered += seg.duration
        if seg.step is not None:
            per = step_bound.setdefault(seg.step, {})
            per[seg.phase] = per.get(seg.phase, 0.0) + seg.duration
    phase_seconds = dict(
        sorted(phase_seconds.items(), key=lambda kv: -kv[1])
    )
    bound = {
        k: max(per, key=lambda p: per[p]) for k, per in sorted(step_bound.items())
    }
    coverage = min(1.0, covered / elapsed) if elapsed > 0 else 0.0
    return CriticalPathResult(segments, phase_seconds, elapsed, coverage, bound)
