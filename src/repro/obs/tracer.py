"""Lightweight span tracer: the package's common telemetry event.

A :class:`Span` is one closed interval of work attributed to a rank and
a category (the layer that emitted it: ``engine``, ``executor``,
``comm``, ``driver``, ...).  Times are *virtual seconds* when the spans
come from the event engine and wall seconds when they come from real
code; the tracer does not care — it only requires ``end >= start``.

Three emission styles are supported:

- :meth:`SpanTracer.add` — record a finished span with explicit times
  (what the engine uses: it already knows both clock values; it records
  its charged edges through :meth:`SpanTracer.put_xfers`, which skips
  :meth:`SpanTracer.add_xfers`' checks);
- :meth:`SpanTracer.start` / :meth:`SpanTracer.end` — open/close API for
  code that discovers the end time later;
- :meth:`SpanTracer.span` — a context manager reading a clock callable
  (defaults to :func:`time.perf_counter`), with nesting tracked so child
  spans carry their parent's id.

Storage is **columnar**: one entry per span in parallel typed arrays
(:data:`FIELDS`), ``name``/``cat`` interned to small ints.  The engine's
transfer attrs ``{dst, bytes, intra[, tag]}`` — nine spans in ten — sit
in four typed columns; any other attrs dict goes in a sparse table keyed
by span index.  A :class:`Span` object exists only while a caller
iterates; exporters and analyses read :meth:`SpanTracer.columns`.

Memory is bounded with ``capacity``: the tracer becomes a ring that
evicts the oldest spans and counts :attr:`SpanTracer.dropped` — the
"don't let telemetry OOM the run" option for large simulations.
"""

from __future__ import annotations

import operator
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: the (rank, start, end, kind) tuple consumed by the legacy Gantt tools
TimelineSpan = Tuple[int, float, float, str]

#: "absent" in an integer attribute column (a span without a ``tag``, ...)
NONE = -(1 << 62)

#: the columns, in storage order, and their :mod:`array` type codes; the
#: last four are the typed transfer lane (``dst < 0``: not in the lane)
FIELDS = ("name", "cat", "start", "end", "rank", "parent",
          "dst", "nbytes", "intra", "tag")
_CODES = "iiddiiiqbq"
_NO_LANE = (-1, 0, False, NONE)
_XFER_KEYS = ("dst", "bytes", "intra")


@dataclass
class Span:
    """One closed interval of attributed work."""

    name: str
    cat: str
    start: float
    end: float
    rank: int = -1
    attrs: Dict[str, Any] = field(default_factory=dict)
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_timeline(self) -> TimelineSpan:
        """The legacy ``(rank, start, end, kind)`` tuple."""
        return (self.rank, self.start, self.end, self.name)


def _xfer_lane(attrs: Dict[str, Any]):
    """``(dst, bytes, intra, tag)`` when ``attrs`` is exactly the
    engine's transfer shape (keys, order and types), else None — so a
    span read back from the typed columns equals the dict it came from."""
    keys = tuple(attrs)
    if keys != _XFER_KEYS and keys != _XFER_KEYS + ("tag",):
        return None
    dst, nbytes, intra = attrs["dst"], attrs["bytes"], attrs["intra"]
    tag = attrs.get("tag", 0)
    if (
        type(dst) is type(nbytes) is type(tag) is int and type(intra) is bool
        and 0 <= dst < 1 << 31 and 0 <= nbytes < -NONE and 0 <= tag < -NONE
    ):
        return dst, nbytes, intra, (tag if "tag" in attrs else NONE)
    return None


def _intern(ids: Dict[str, int], label: str) -> int:
    i = ids.get(label)
    if i is None:
        i = ids[label] = len(ids)
    return i


class SpanColumns:
    """NumPy snapshot of a tracer's columns, in span order.

    What exporters and the analysis layer read instead of ``Span``
    objects: one array per :data:`FIELDS` entry (``name`` / ``cat``
    index :attr:`names` / :attr:`cats`), plus :attr:`extra`, the attrs
    of spans outside the typed lane, keyed by span index.  The arrays
    are copies, so the tracer may keep recording.
    """

    def __init__(self, tracer: "SpanTracer") -> None:
        tracer._trim()
        self.names, self.cats = tuple(tracer.names), tuple(tracer.cats)
        self.extra: Dict[int, Dict[str, Any]] = dict(tracer._extra)
        for name, col in zip(FIELDS, tracer._cols):
            setattr(self, name, np.array(col))

    @classmethod
    def of(cls, spans: "SpanColumns | SpanTracer | Iterable[Span]"):
        """``spans`` as columns: itself, a tracer's, or a span list's."""
        if isinstance(spans, cls):
            return spans
        if not isinstance(spans, SpanTracer):
            tracer = SpanTracer()
            tracer.merge(spans)
            spans = tracer
        return cls(spans)

    def __len__(self) -> int:
        return len(self.start)

    def where(self, cat: Optional[str] = None, name: Optional[str] = None):
        """Mask of the spans in category ``cat`` and/or named ``name``."""
        mask = np.ones(len(self), dtype=bool)
        for column, labels, label in (
            (self.cat, self.cats, cat), (self.name, self.names, name)
        ):
            if label is not None:
                mask &= column == (labels.index(label) if label in labels else -1)
        return mask

    def take(self, index: np.ndarray) -> List[Span]:
        """Materialise the spans at ``index`` (an integer array)."""
        rows = (getattr(self, name)[index].tolist() for name in FIELDS)
        return list(map(self._span, index.tolist(), *rows))

    def _span(self, i, name, cat, start, end, rank, parent, dst, nbytes,
              intra, tag) -> Span:
        if dst >= 0:
            attrs = {"dst": dst, "bytes": nbytes, "intra": bool(intra)}
            if tag != NONE:
                attrs["tag"] = tag
        else:
            attrs = self.extra.get(i)
            if attrs is None:
                attrs = {}
        return Span(self.names[name], self.cats[cat], start, end, rank,
                    attrs, parent if parent >= 0 else None)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.take(np.arange(len(self))))


class SpanTracer:
    """Collects spans into parallel columns, optionally a bounded ring.

    Parameters
    ----------
    capacity:
        ``None`` keeps every span; a positive int keeps only the newest
        ``capacity`` spans and counts evictions in :attr:`dropped`.
    clock:
        Default clock for :meth:`span` / :meth:`start` when no explicit
        time is given.  Engine-side emitters always pass explicit
        virtual times, so the default (:func:`time.perf_counter`) only
        matters for real-world instrumentation.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(
                f"tracer capacity must be positive or None, got {capacity}"
            )
        self.capacity = capacity
        self.clock = clock
        #: token -> (name, cat, start, rank, attrs, parent) of an open span
        self._open: Dict[int, tuple] = {}
        self._next_token = 1
        #: per-thread-of-control nesting stack (token ids)
        self._stack: List[int] = []
        self.clear()

    def clear(self) -> None:
        """Drop all spans (including open ones) and reset the columns,
        the attrs table, the intern maps and the counters."""
        self._cols = tuple(array(code) for code in _CODES)
        #: attrs outside the typed lane, keyed by span index
        self._extra: Dict[int, Dict[str, Any]] = {}
        #: interned span names / categories -> their column value
        self.names: Dict[str, int] = {}
        self.cats: Dict[str, int] = {}
        #: (name, cat) -> their ids; the xfer spans' constant columns
        self._kinds: Dict[Tuple[Any, Any], Tuple[int, int]] = {}
        self._xfer_record: Optional[tuple] = None
        self._evicted = 0
        self._open.clear()
        self._stack.clear()

    @classmethod
    def from_columns(cls, names, cats, columns, attrs=()) -> "SpanTracer":
        """A tracer holding ``columns`` (one array per :data:`FIELDS` entry,
        of its type code) with each ``(span index, attrs)`` of ``attrs``
        placed by the lane rule of :meth:`add`."""
        if any(c.dtype != np.dtype(code) or c.shape != columns[0].shape
               for code, c in zip(_CODES, columns)):
            raise ConfigurationError("span columns do not match FIELDS")
        tracer = cls()
        tracer.names = dict(zip(names, range(len(names))))
        tracer.cats = dict(zip(cats, range(len(cats))))
        tracer._cols = tuple(array(code, c.tobytes()) for code, c in zip(_CODES, columns))
        for i, a in attrs:
            lane = _xfer_lane(a) if a else _NO_LANE
            if lane is None:
                tracer._extra[i] = a
            else:
                for col, value in zip(tracer._cols[6:], lane):
                    col[i] = value
        return tracer

    # -- recording ---------------------------------------------------------

    def _unwind(self, n: int) -> None:
        """Cut every column back to ``n`` spans: a value one column
        rejected must not leave the others a row ahead."""
        for col in self._cols:
            del col[n:]
        self._extra.pop(n, None)

    def _trim(self) -> None:
        """Physically drop what the ring has evicted."""
        over = len(self._cols[0]) - len(self)
        if over:
            for col in self._cols:
                del col[:over]
            self._extra = {
                i - over: a for i, a in self._extra.items() if i >= over
            }
            self._evicted += over

    def _kind(self, name, cat) -> Tuple[int, int]:
        """The ids of ``name`` and ``cat``, interned on first sight."""
        ids = self._kinds.get((name, cat))
        if ids is None:
            ids = self._kinds[name, cat] = (_intern(self.names, name),
                                            _intern(self.cats, cat))
        return ids

    def _put(self, name, cat, start, end, rank, attrs, parent) -> None:
        c = self._cols
        n = len(c[0])
        lane = _xfer_lane(attrs) if attrs else _NO_LANE
        if lane is None:
            lane = _NO_LANE
            self._extra[n] = attrs
        try:  # unrolled: the trace loader comes through here once per event
            ids = self._kind(name, cat)
            c[0].append(ids[0])
            c[1].append(ids[1])
            c[2].append(start)
            c[3].append(end)
            c[4].append(rank)
            c[5].append(-1 if parent is None else parent)
            c[6].append(lane[0])
            c[7].append(lane[1])
            c[8].append(lane[2])
            c[9].append(lane[3])
        except (TypeError, OverflowError):
            self._unwind(n)
            raise
        # The ring trims in blocks of ``capacity``: memmoving every
        # column once per evicted span would make a full ring quadratic.
        if self.capacity is not None and n + 1 >= 2 * self.capacity:
            self._trim()

    def add(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        rank: int = -1,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Optional[int] = None,
    ) -> None:
        """Record a finished span with explicit times."""
        if end < start:
            raise ConfigurationError(
                f"span {name!r} ends ({end}) before it starts ({start})"
            )
        self._put(name, cat, start, end, rank, attrs, parent)

    def add_xfers(
        self,
        src: int,
        dst: int,
        nbytes: int,
        intra: bool,
        tag: Optional[int],
        starts: Sequence[float],
        ends: Sequence[float],
    ) -> None:
        """Record one ``comm``/``xfer`` span per ``(starts[i], ends[i])``
        on rank ``src``'s lane, all with attrs ``{dst, bytes, intra[,
        tag]}`` — the engine's one call per charged edge."""
        if len(starts) != len(ends) or any(map(operator.lt, ends, starts)):
            raise ConfigurationError(
                f"xfer spans {list(zip(starts, ends))}: each must end after it starts"
            )
        self.put_xfers(src, dst, nbytes, intra, tag, starts, ends)

    def put_xfers(
        self,
        src: int,
        dst: int,
        nbytes: int,
        intra: bool,
        tag: Optional[int],
        starts: Sequence[float],
        ends: Sequence[float],
    ) -> None:
        """:meth:`add_xfers` for an emitter that builds its segments
        valid (as many ends as starts, each segment ending at or after
        its start) — the engine's charged edges: nothing is checked, and
        the constant columns repeat one cached record of one-value
        arrays."""
        if self._xfer_record is None:
            name, cat = self._kind("xfer", "comm")
            self._xfer_record = tuple(array("i", (v,)) for v in (name, cat, -1))
        (name, cat, parent), k = self._xfer_record, len(starts)
        c = self._cols
        n = len(c[0])
        try:
            c[0].extend(name * k)
            c[1].extend(cat * k)
            c[2].extend(starts)
            c[3].extend(ends)
            c[4].extend(array("i", (src,)) * k)
            c[5].extend(parent * k)
            c[6].extend(array("i", (dst,)) * k)
            c[7].extend(array("q", (nbytes,)) * k)
            c[8].extend(array("b", (intra,)) * k)
            c[9].extend(array("q", (NONE if tag is None else tag,)) * k)
        except (TypeError, OverflowError):
            self._unwind(n)
            raise
        if self.capacity is not None and n + k >= 2 * self.capacity:
            self._trim()

    def start(
        self,
        name: str,
        cat: str,
        rank: int = -1,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns a token for :meth:`end`."""
        token = self._next_token
        self._next_token += 1
        parent = self._stack[-1] if self._stack else None
        t = at if at is not None else self.clock()
        self._open[token] = (name, cat, t, rank, attrs, parent)
        self._stack.append(token)
        return token

    def end(self, token: int, at: Optional[float] = None) -> Span:
        """Close a previously started span and record it."""
        opened = self._open.pop(token, None)
        if opened is None:
            raise ConfigurationError(f"unknown or already-ended span token {token}")
        if token in self._stack:
            self._stack.remove(token)
        name, cat, start, rank, attrs, parent = opened
        t = at if at is not None else self.clock()
        span = Span(name, cat, start, max(t, start), rank, attrs, parent)
        self._put(name, cat, start, span.end, rank, attrs, parent)
        return span

    @contextmanager
    def span(self, name: str, cat: str, rank: int = -1, **attrs: Any):
        """Context manager recording one span around a code block."""
        token = self.start(name, cat, rank, **attrs)
        try:
            yield
        finally:
            self.end(token)

    def merge(self, other: "SpanTracer | Iterable[Span]") -> None:
        """Fold another tracer's (or iterable's) spans into this one."""
        for s in other:
            self._put(s.name, s.cat, s.start, s.end, s.rank, s.attrs, s.parent)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        n = len(self._cols[0])
        return n if self.capacity is None else min(n, self.capacity)

    @property
    def dropped(self) -> int:
        """Spans the ring has evicted since the last :meth:`clear`."""
        return self._evicted + len(self._cols[0]) - len(self)

    def columns(self) -> SpanColumns:
        """A NumPy snapshot of the columns (see :class:`SpanColumns`)."""
        return SpanColumns(self)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.columns())

    @property
    def spans(self) -> List[Span]:
        return list(self.columns())

    def categories(self) -> Dict[str, int]:
        """Span count per category."""
        self._trim()
        cats = list(self.cats)
        return {cats[c]: n for c, n in Counter(self._cols[1]).items()}

    # -- adapters ----------------------------------------------------------

    def as_timeline(
        self, cats: Optional[Iterable[str]] = None
    ) -> List[TimelineSpan]:
        """Legacy ``(rank, start, end, kind)`` tuples for the Gantt tools.

        ``cats`` restricts to the given categories (default: everything
        attributed to a real rank, i.e. ``rank >= 0``).
        """
        self._trim()
        allow = None if cats is None else {self.cats.get(c) for c in cats}
        names = list(self.names)
        return [
            (rank, start, end, names[name])
            for name, cat, start, end, rank in zip(*self._cols[:5])
            if rank >= 0 and (allow is None or cat in allow)
        ]

    def total_by_name(self) -> Dict[str, float]:
        """Summed duration per span name (all ranks)."""
        self._trim()
        names = list(self.names)
        totals: Dict[str, float] = {}
        for name, _cat, start, end in zip(*self._cols[:4]):
            totals[names[name]] = totals.get(names[name], 0.0) + (end - start)
        return totals
