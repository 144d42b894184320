"""Exporters: Chrome/Perfetto trace JSON, JSONL span logs, Prometheus text.

Three machine-readable views of one telemetry stream:

- :func:`write_chrome_trace` / :func:`to_chrome_trace` — the
  ``trace_event`` JSON format loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev (spans become ``"X"`` complete events; ranks
  become thread lanes, categories become event ``cat`` values; the
  provenance block rides in ``otherData``); the writer leaves the
  columns the view parses back to beside it (:func:`spans_companion`);
- :func:`write_jsonl` — one JSON object per span, append-friendly, the
  format to diff/grep across recorded campaigns;
- :func:`to_prometheus_text` — a flat Prometheus-exposition-style dump
  of the metrics registry (counters/gauges as samples, histograms as
  cumulative ``_bucket``/``_sum``/``_count`` series).

The span exporters stream from the tracer's columns
(:class:`~repro.obs.tracer.SpanColumns`): an index sort gives the
export order, and the events are formatted straight to text in blocks
of :data:`BLOCK` spans, each encoded and written before the next is
formatted, so no event list or document tree is built and memory does
not grow with the trace.  Within a block only the times are formatted
per span: the rest of an event is formatted once per run of spans that
share it (the segments of one charged edge), a duration once per
distinct value.  The text is what ``json.dumps`` would write for the
same document — ``repr`` for finite floats, ``null`` for non-finite
ones, so the output is *strict* JSON (``json.dumps`` alone would emit
bare ``NaN``/``Infinity`` tokens that other parsers reject).
:func:`sanitize_json` applies that rule to the small documents
serialized whole (``otherData``, free-form span attrs, reports).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import FIELDS, NONE, Span, SpanColumns, SpanTracer

#: schema version stamped into exported Chrome traces
TRACE_SCHEMA_VERSION = 1

#: schema id of a Chrome view's span-columns companion (docs/OBSERVABILITY.md)
SPANS_SCHEMA = "repro.obs.spans/v1"

#: seconds -> trace_event microseconds
_US = 1e6

#: spans the exporters format, encode and write at a time
BLOCK = 4096


def sanitize_json(obj):
    """Recursively replace non-finite floats with None (strict JSON)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    return obj


#: what ``json.dumps(obj, allow_nan=False)`` builds per call, built once
_STRICT = json.JSONEncoder(allow_nan=False)


def dumps_strict(obj, **kwargs) -> str:
    """``json.dumps`` that never emits NaN/Infinity tokens."""
    if kwargs:
        return json.dumps(sanitize_json(obj), allow_nan=False, **kwargs)
    return _STRICT.encode(sanitize_json(obj))


def _num(x: float) -> str:
    """A float as ``json.dumps`` writes it, non-finite as ``null``."""
    return repr(x) if x - x == 0.0 else "null"


def select_spans(
    cols: SpanColumns,
    cats: Optional[Sequence[str]] = None,
    ranks: Optional[Sequence[int]] = None,
    sort: bool = False,
) -> np.ndarray:
    """Indices of the spans to export, in export order.

    ``cats`` / ``ranks`` keep only matching categories / rank lanes
    (None = keep all).  ``sort=True`` applies the canonical ordering
    ``(start, end, rank, cat, name)`` so two exports of the same run are
    byte-identical regardless of buffer/merge interleaving — which is
    what makes trace files diffable across runs.
    """
    keep = np.ones(len(cols), dtype=bool)
    if cats is not None:
        keep &= np.isin(cols.cat, [i for i, c in enumerate(cols.cats) if c in cats])
    if ranks is not None:
        keep &= np.isin(cols.rank, list(ranks))
    idx = np.flatnonzero(keep)
    if sort:
        def by_text(labels, ids):  # each id's position among the sorted labels
            pos = {label: k for k, label in enumerate(sorted(labels))}
            return np.array([pos[label] for label in labels], dtype=int)[ids]

        idx = idx[np.lexsort((
            by_text(cols.names, cols.name[idx]), by_text(cols.cats, cols.cat[idx]),
            cols.rank[idx], cols.end[idx], cols.start[idx],
        ))]
    return idx


def filter_spans(
    spans: "Union[SpanTracer, Iterable[Span]]",
    cats: Optional[Sequence[str]] = None,
    ranks: Optional[Sequence[int]] = None,
    sort: bool = False,
) -> List[Span]:
    """The spans :func:`select_spans` picks, as objects."""
    cols = SpanColumns.of(spans)
    return cols.take(select_spans(cols, cats, ranks, sort))


def _runs(cols: SpanColumns, texts: Dict[int, str]):
    """``(run id per span, first span of each run)``.  Consecutive spans
    in tracer order with equal name, cat, rank and transfer lane form one
    run — the segments of one charged edge are one run — and a span with
    side-table attrs (``texts``) is a run of its own, so a run's spans
    differ only in their times."""
    n = len(cols)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for col in (cols.name, cols.cat, cols.rank, cols.dst, cols.nbytes,
                cols.intra, cols.tag):
        new[1:] |= col[1:] != col[:-1]
    at = np.fromiter(texts, dtype=np.int64, count=len(texts))
    new[at] = True
    new[at[at + 1 < n] + 1] = True
    return np.cumsum(new, dtype=np.int32) - 1, np.flatnonzero(new)


def _span_blocks(cols: SpanColumns, idx: np.ndarray, texts: Dict[int, str],
                 head, fields, tail) -> Iterator[str]:
    """The text of the spans at ``idx``, one string per :data:`BLOCK` spans.

    An event is ``head(name, cat, rank)``, then ``fields`` — each a
    constant string or a time ``(of(start, end), once_per_value)`` — then
    ``tail(rank, attrs as JSON text or None)``; ``texts`` holds each
    side-table attrs dict as JSON text.  Only the times vary within a
    run (:func:`_runs`), so head and tail are formatted once per run,
    when a block first meets it, and a ``once_per_value`` time (a
    duration) once per distinct value in a block.  A time is ``repr`` of
    the float, ``null`` when it is not finite.
    """
    run, firsts = _runs(cols, texts)
    # each run's head and tail text, formatted when a block first meets
    # it; forgotten (and formatted again if met again) past 8 blocks' worth
    # of runs, so memory stays bounded on any trace
    heads: List[Optional[str]] = [None] * len(firsts)
    tails: List[Optional[str]] = [None] * len(firsts)
    cached: List[int] = []
    head_of: Dict[tuple, str] = {}  # by (name, cat, rank)
    bare_tail: Dict[int, str] = {}  # by rank, for spans without attrs

    def format_runs(new: List[int]) -> None:
        cached.extend(new)
        at = firsts[new]
        for r, i, name, cat, rank, dst, nbytes, intra, tag in zip(new, at.tolist(), *(
            col[at].tolist() for col in (cols.name, cols.cat, cols.rank, cols.dst,
                                         cols.nbytes, cols.intra, cols.tag)
        )):
            text = head_of.get((name, cat, rank))
            if text is None:
                text = head_of[name, cat, rank] = head(cols.names[name], cols.cats[cat], rank)
            heads[r] = text
            if i in texts:
                tails[r] = tail(rank, texts[i])
            elif dst >= 0:
                tails[r] = tail(rank, f'{{"dst": {dst}, "bytes": {nbytes}, "intra": '
                                      f'{"true" if intra else "false"}'
                                      + ("}" if tag == NONE else f', "tag": {tag}}}'))
            else:
                text = bare_tail.get(rank)
                if text is None:
                    text = bare_tail[rank] = tail(rank, None)
                tails[r] = text

    template = [None, *(f if isinstance(f, str) else None for f in fields), None]
    width = len(template)
    for lo in range(0, len(idx), BLOCK):
        at = idx[lo:lo + BLOCK]
        if len(cached) > 7 * BLOCK:
            for r in cached:
                heads[r] = tails[r] = None
            cached.clear()
        format_runs([r for r in np.unique(run[at]).tolist() if heads[r] is None])
        runs = run[at].tolist()
        start, end = cols.start[at], cols.end[at]
        pieces = template * len(runs)
        pieces[0::width] = map(heads.__getitem__, runs)
        for k, field in enumerate(fields, 1):
            if isinstance(field, str):
                continue
            time, once = field
            with np.errstate(invalid="ignore"):  # inf - inf: a null, as per span
                values = time(start, end)
            if once:
                distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
                text = list(map(_num, distinct.view(np.float64).tolist()))
                pieces[k::width] = map(text.__getitem__, inverse.tolist())
            else:
                fmt = repr if np.isfinite(values).all() else _num
                pieces[k::width] = map(fmt, values.tolist())
        pieces[width - 1::width] = map(tails.__getitem__, runs)
        yield "".join(pieces)


def _resolve(source: "Union[SpanTracer, object]"):
    """Accept an Observability handle or a bare tracer."""
    tracer = getattr(source, "tracer", source)
    metrics = getattr(source, "metrics", None)
    provenance = getattr(source, "provenance", None)
    return tracer, metrics, provenance


def _chrome_view(source, provenance=None, include_metrics=True, cats=None, ranks=None,
                 sort=False):
    """What a Chrome export writes: ``(columns, export order, side-table
    attrs as JSON text by span, otherData as JSON text)``."""
    tracer, metrics, auto_prov = _resolve(source)
    provenance = provenance if provenance is not None else auto_prov
    cols = tracer.columns()
    other: dict = {"schema": TRACE_SCHEMA_VERSION, "dropped_spans": tracer.dropped}
    if provenance is not None:
        other["provenance"] = provenance
    if include_metrics and metrics is not None and len(metrics):
        other["metrics"] = metrics.snapshot()
    texts = {i: dumps_strict(attrs) for i, attrs in cols.extra.items()}
    return cols, select_spans(cols, cats, ranks, sort), texts, dumps_strict(other)


def _chrome_text(cols, idx, texts, other, pid=0) -> Iterator[str]:
    """The Chrome trace document of a :func:`_chrome_view` as JSON text,
    in pieces."""
    driver_tid = int(cols.rank.max(initial=-1)) + 1

    def thread(tid, name, kind="thread_name"):
        return json.dumps({"name": kind, "ph": "M", "pid": pid, "tid": tid,
                           "args": {"name": name}})

    lanes = np.unique(np.where(cols.rank[idx] >= 0, cols.rank[idx], driver_tid))
    yield '{"traceEvents": [' + ", ".join(
        [thread(0, "repro virtual machine", "process_name")]
        + [thread(t, f"rank {t}" if t < driver_tid else "driver") for t in lanes.tolist()]
    )
    pid_tid = f', "pid": {json.dumps(pid)}, "tid": '
    yield from _span_blocks(
        cols, idx, texts,
        lambda name, cat, _rank: (f', {{"name": {json.dumps(name)}, "cat": '
                                  f'{json.dumps(cat)}, "ph": "X", "ts": '),
        [(lambda start, _end: start * _US, False), ', "dur": ',
         (lambda start, end: (end - start) * _US, True)],
        lambda rank, attrs: (f'{pid_tid}{rank if rank >= 0 else driver_tid}'
                             + (f', "args": {attrs}}}' if attrs else "}")),
    )
    yield '], "displayTimeUnit": "ms", "otherData": ' + other + "}"


def to_chrome_trace(
    source,
    provenance: Optional[dict] = None,
    include_metrics: bool = True,
    pid: int = 0,
    cats: Optional[Sequence[str]] = None,
    ranks: Optional[Sequence[int]] = None,
    sort: bool = False,
) -> dict:
    """Build the ``trace_event`` JSON document for a span stream.

    ``source`` is an :class:`~repro.obs.context.Observability` handle or
    a bare :class:`SpanTracer`.  Each rank becomes one thread lane
    (``tid = rank``); spans with ``rank < 0`` (driver-level phases) land
    in a dedicated lane after the largest rank.  ``cats`` / ``ranks`` /
    ``sort`` select and canonically order spans (:func:`select_spans`);
    the driver lane stays after the largest rank *seen in the full
    stream* so filtered exports keep stable lane numbering.

    The document is parsed back from the text :func:`write_chrome_trace`
    writes, so there is one definition of an event.
    """
    view = _chrome_view(source, provenance, include_metrics, cats, ranks, sort)
    return json.loads("".join(_chrome_text(*view, pid)))


def spans_companion(path) -> Path:
    """The span columns written beside the Chrome view ``path``: ``<path>.spans.npz``."""
    return Path(f"{path}.spans.npz")


def write_chrome_trace(path, source, pid: int = 0, **kwargs) -> Path:
    """Stream the :func:`to_chrome_trace` document to ``path``, then its
    :func:`spans_companion` (see :data:`SPANS_SCHEMA`); returns the path."""
    path = Path(path)
    view = _chrome_view(source, **kwargs)
    digest, size = hashlib.sha256(), 0
    with path.open("wb") as fh:
        for piece in _chrome_text(*view, pid):
            chunk = piece.encode()
            digest.update(chunk)
            size += fh.write(chunk)
    _write_companion(path, *view, digest.hexdigest(), size)
    return path


def _write_companion(path: Path, cols, idx, texts, other, sha256: str, size: int) -> None:
    """Write the columns the view at ``path`` parses back to (none if it
    does not parse): an ``np.savez`` archive, written one column at a
    time.  (``np.savez`` itself takes every column at once: on a sorted
    105 k-span export that lifts the ``tracemalloc`` peak beyond the
    span columns from 7.2 to 11.3 MiB.)"""
    companion = spans_companion(path)
    with np.errstate(invalid="ignore"):
        ts, dur = cols.start[idx] * _US, (cols.end[idx] - cols.start[idx]) * _US
    if not (np.isfinite(ts).all() and ((dur >= 0) & (dur < np.inf)).all()
            and all(type(label) is str for label in cols.names + cols.cats)):
        companion.unlink(missing_ok=True)
        return
    relabelled, tables = {}, []  # labels re-interned in order of first appearance
    for field, labels in (("name", cols.names), ("cat", cols.cats)):
        ids = getattr(cols, field)[idx]
        present, first = np.unique(ids, return_index=True)
        order = present[np.argsort(first)]
        relabel = np.zeros(len(labels), dtype=np.int32)
        relabel[order] = np.arange(len(order))
        relabelled[field] = relabel[ids]
        tables.append(json.dumps([labels[i] for i in order.tolist()]))
    at = np.flatnonzero(np.isin(idx, list(texts)))  # export positions with side-table attrs
    attrs = ", ".join(f"[{p}, {texts[i]}]" for p, i in zip(at.tolist(), idx[at].tolist()))
    side = (f'{{"schema": "{SPANS_SCHEMA}", "view_sha256": "{sha256}", "view_bytes": {size}, '
            f'"names": {tables[0]}, "cats": {tables[1]}, "attrs": [{attrs}], "other": {other}}}')

    def columns():
        yield "side", np.frombuffer(side.encode(), dtype=np.uint8)
        start = ts / _US  # times after the µs round trip
        for field in FIELDS:
            if field in relabelled:
                yield field, relabelled.pop(field)
            elif field == "start":
                yield field, start
            elif field == "end":
                yield field, start + dur / _US
            elif field == "rank":  # the driver lane reads back as -1
                yield field, np.maximum(cols.rank[idx], -1)
            elif field == "parent":  # the view carries no parents
                yield field, np.full(len(idx), -1, dtype=cols.parent.dtype)
            else:
                yield field, getattr(cols, field)[idx]

    tmp = companion.with_name(companion.name + ".tmp")
    with tmp.open("wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
        for name, column in columns():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array(out, column)
    os.replace(tmp, companion)


def write_jsonl(
    path,
    tracer: SpanTracer,
    cats: Optional[Sequence[str]] = None,
    ranks: Optional[Sequence[int]] = None,
    sort: bool = False,
) -> Path:
    """One JSON object per span (rank/cat/name/start/end/attrs).

    ``cats`` / ``ranks`` / ``sort`` as in :func:`select_spans`.
    """
    path = Path(path)
    cols = tracer.columns()
    texts = {i: dumps_strict(attrs) for i, attrs in cols.extra.items()}
    with path.open("w") as fh:
        fh.writelines(_span_blocks(
            cols, select_spans(cols, cats, ranks, sort), texts,
            lambda name, cat, rank: (f'{{"name": {json.dumps(name)}, "cat": '
                                     f'{json.dumps(cat)}, "rank": {rank}, "start_s": '),
            [(lambda start, _end: start, False), ', "end_s": ', (lambda _start, end: end, False),
             ', "dur_s": ', (lambda start, end: end - start, True)],
            lambda _rank, attrs: f', "attrs": {attrs or "{}"}}}\n',
        ))
    return path


def read_jsonl(path):
    """Load a JSONL span log back into a list of dicts."""
    out = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def _prom_labels(labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus-exposition-style flat text dump of the registry.

    Metric names keep their dotted form with dots mapped to underscores
    (``comm.bcast_bytes`` → ``comm_bcast_bytes``).
    """
    lines = []
    typed = set()
    for (name, labels), inst in registry:
        prom = name.replace(".", "_").replace("-", "_")
        if prom not in typed:
            lines.append(f"# TYPE {prom} {inst.kind}")
            typed.add(prom)
        if isinstance(inst, Histogram):
            cumulative = 0
            for bound, count in zip(inst.boundaries, inst.bucket_counts):
                cumulative += count
                le = _prom_labels(labels + (("le", f"{bound:g}"),))
                lines.append(f"{prom}_bucket{le} {cumulative}")
            le = _prom_labels(labels + (("le", "+Inf"),))
            lines.append(f"{prom}_bucket{le} {inst.count}")
            lines.append(f"{prom}_sum{_prom_labels(labels)} {inst.sum:g}")
            lines.append(f"{prom}_count{_prom_labels(labels)} {inst.count}")
            # Summary-style quantiles alongside the raw buckets, so a
            # scrape (or a human) gets p50/p90/p99 without re-deriving
            # them from the cumulative bucket counts.
            if inst.count:
                for q in (0.5, 0.9, 0.99):
                    ql = _prom_labels(labels + (("quantile", f"{q:g}"),))
                    lines.append(f"{prom}{ql} {inst.quantile(q):g}")
        else:
            lines.append(f"{prom}{_prom_labels(labels)} {inst.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")
