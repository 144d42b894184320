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
from functools import cached_property
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

    #: the path's spans, time-ordered, as indices into ``source``
    index: List[int]
    #: seconds of path time per benchmark phase, descending order
    phase_seconds: Dict[str, float]
    #: total wall time of the trace window
    elapsed: float
    #: fraction of ``elapsed`` the path's segments explain
    coverage: float
    #: per-factorization-step bounding phase, for steps whose comm
    #: segments appear on the path
    step_bound: Dict[int, str] = field(default_factory=dict)
    #: the span columns the path was extracted from
    source: Optional[ProfileInput] = field(default=None, repr=False, compare=False)

    @cached_property
    def segments(self) -> List[PathSegment]:
        """The path as span objects, built on first use."""
        if not self.index:
            return []
        index = np.array(self.index)
        return list(map(PathSegment, self.source.take(index),
                        *zip(*self.source.phase_steps(index))))

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
        return CriticalPathResult([], {}, elapsed, 0.0, source=t)

    # Each rank's spans by (end, start), and each (src, dst) pair's xfer
    # spans by end — stable, so ties stay in span order.
    by_rank = ranked[np.lexsort((start[ranked], end[ranked], rank[ranked]))]
    xfers = ranked[t.xfers[ranked]]
    xfers = xfers[np.lexsort((end[xfers], t.x_dst[xfers], rank[xfers]))]
    xfer_ends = end[xfers].tolist()
    xfer_tags = t.x_tag[xfers]
    pair_slice = _slices(np.stack([rank[xfers], t.x_dst[xfers]], axis=1))

    # Every ranked span's same-rank predecessor (-1: none): the latest
    # span of its rank ending at or before its start.
    predecessor = np.full(len(t), -1)
    for lo, hi in _slices(rank[by_rank][:, None]).values():
        spans_r = by_rank[lo:hi]
        k = np.searchsorted(end[spans_r], start[spans_r] + _EPS, side="right")
        predecessor[spans_r] = np.where(k > 0, spans_r[np.maximum(k - 1, 0)], -1)

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

    recv = set(np.flatnonzero(t.where(name="wait_recv") & (t.x_src != NONE)).tolist())
    cur = int(ranked[np.argmax(end[ranked])])
    path: List[int] = []
    seen = set()
    # Each hop moves to a span ending no later than the current one; the
    # seen-set guards against equal-end ties looping forever.
    while cur >= 0 and cur not in seen:
        seen.add(cur)
        path.append(cur)
        nxt = None
        if cur in recv:
            nxt = sender_xfer(
                int(t.x_src[cur]), int(rank[cur]), t.x_tag[cur], float(end[cur])
            )
        if nxt is None or nxt in seen:
            nxt = int(predecessor[cur])
        cur = nxt
    path.reverse()

    phase_seconds: Dict[str, float] = {}
    step_bound: Dict[int, Dict[str, float]] = {}
    covered = 0.0
    index = np.array(path)
    for (phase, step), duration in zip(t.phase_steps(index), t.dur[index].tolist()):
        phase_seconds[phase] = phase_seconds.get(phase, 0.0) + duration
        covered += duration
        if step is not None:
            per = step_bound.setdefault(step, {})
            per[phase] = per.get(phase, 0.0) + duration
    phase_seconds = dict(
        sorted(phase_seconds.items(), key=lambda kv: -kv[1])
    )
    bound = {
        k: max(per, key=lambda p: per[p]) for k, per in sorted(step_bound.items())
    }
    coverage = min(1.0, covered / elapsed) if elapsed > 0 else 0.0
    return CriticalPathResult(path, phase_seconds, elapsed, coverage, bound, t)
