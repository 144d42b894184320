"""Span loading and normalization for the analysis layer.

Every analysis in this package runs off one normalized input — a
:class:`ProfileInput`: the tracer's columns plus whatever metadata rode
along (provenance, metrics snapshot) — so the same critical-path /
imbalance / comm-matrix code works on:

- a live :class:`~repro.obs.SpanTracer` (or ``Observability`` handle),
- an exported Chrome-trace JSON file (``repro trace --out``) or its span columns, or
- an exported JSONL span log (``repro trace --jsonl``).

The loaders also own the *semantic* mapping from raw span names to
benchmark phases (:func:`phase_of_span`): executor kernel kinds map to
themselves, refinement kernels collapse into ``ir``, and comm/wait
spans are decoded through their wire-tag attr
(:func:`repro.obs.phases.decode_wire_tag`) into ``diag_bcast`` /
``panel_bcast`` / ``ir`` traffic.  The mapping is resolved once per
distinct ``(cat, name, tag)``, never once per span.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.export import SPANS_SCHEMA, spans_companion
from repro.obs.phases import decode_wire_tag
from repro.obs.tracer import FIELDS, NONE, Span, SpanColumns, SpanTracer

#: executor span names that belong to the refinement solve
_IR_KERNELS = {"gemv", "trsv", "ir_gemv", "ir_setup", "ir_update"}

#: engine wait kinds that are synchronization, not point-to-point comm
_COLLECTIVE_WAITS = {"wait_allreduce", "wait_reduce", "wait_barrier"}

#: what a mistyped or out-of-range field of a trace record raises
_BAD_RECORD = (TypeError, ValueError, OverflowError, AttributeError, ConfigurationError)


class _BadAttrs(ConfigurationError):
    """Span ``span``'s attrs do not fold into the attribute columns."""

    def __init__(self, span: int, exc: Exception) -> None:
        super().__init__(f"span {span}: {exc}")
        self.span, self.exc = span, exc


def distinct_rows(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal rows of parallel integer columns: ``(index of each
    group's first row, group of every row)``.  (Dense per-column codes
    composed into one key: a 1-D sort, where ``np.unique(axis=0)`` sorts
    byte strings.)"""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        values, code = np.unique(column, return_inverse=True)
        key = key * len(values) + code
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return first, group


class ProfileInput(SpanColumns):
    """Normalized analysis input: span columns + run metadata.

    On top of the tracer's columns: ``dur`` (``end - start``) and
    ``x_dst`` / ``x_src`` / ``x_tag`` / ``x_bytes`` / ``x_intra``, which
    fold the typed transfer lane and the free-form attrs into one
    integer column per key (:data:`~repro.obs.tracer.NONE` = the span
    has no such attr).  :attr:`spans` materialises objects for callers
    that iterate them.

    Reductions over these columns must add in span order —
    ``np.bincount(weights=)``, ``np.add.at`` or a plain loop, never
    ``np.sum``'s pairwise tree — so a profile is the same document,
    to the last bit, as the per-span loops it replaced produced.
    """

    def __init__(
        self,
        tracer: SpanTracer,
        provenance: Optional[dict] = None,
        metrics: Optional[dict] = None,
        source: str = "<tracer>",
    ) -> None:
        super().__init__(tracer)
        self.provenance = provenance
        #: metrics snapshot exported alongside the trace, if any
        self.metrics = metrics
        self.source = source
        #: wall time of the observed window (max span end, virtual seconds)
        self.elapsed = float(self.end.max()) if len(self) else 0.0
        #: world size implied by the spans (max rank + 1)
        self.num_ranks = int(self.rank.max(initial=-1)) + 1
        self.dur = self.end - self.start
        self.x_dst = np.where(self.dst >= 0, self.dst, NONE)
        self.x_src = np.full(len(self), NONE)
        self.x_tag = self.tag.copy()
        self.x_bytes = self.nbytes.copy()
        self.x_intra = self.intra.astype(bool)
        for i, attrs in self.extra.items():
            try:
                if attrs.get("tag") is not None:
                    self.x_tag[i] = int(attrs["tag"])
                if "src" in attrs:
                    self.x_src[i] = int(attrs["src"])
                if "dst" in attrs:
                    self.x_dst[i] = int(attrs["dst"])
                    self.x_bytes[i] = int(attrs.get("bytes", 0))
                    self.x_intra[i] = bool(attrs.get("intra"))
            except _BAD_RECORD as exc:
                raise _BadAttrs(i, exc) from None

    @cached_property
    def spans(self) -> List[Span]:
        return list(self)

    @cached_property
    def xfers(self) -> np.ndarray:
        """Mask of the point-to-point transfer spans (``comm``/``xfer``
        with a ``dst``)."""
        return self.where("comm", "xfer") & (self.x_dst != NONE)

    def phase_step(self, i: int) -> Tuple[str, Optional[int]]:
        """``(phase, factorization step)`` of span ``i``."""
        return self.phase_steps(np.array([i]))[0]

    def phase_steps(self, index: np.ndarray) -> List[Tuple[str, Optional[int]]]:
        """:meth:`phase_step` of each span in ``index``."""
        return [
            _phase_step(self.cats[cat], self.names[name], None if tag == NONE else tag)
            for cat, name, tag in zip(self.cat[index].tolist(), self.name[index].tolist(),
                                      self.x_tag[index].tolist())
        ]

    @cached_property
    def phases(self) -> Tuple[np.ndarray, List[str]]:
        """``(phase id per span, phase names)``, resolved once per
        distinct ``(cat, name, tag)``."""
        first, kind_of = distinct_rows(self.cat, self.name, self.x_tag)
        names: Dict[str, int] = {}
        ids = [
            names.setdefault(self.phase_step(i)[0], len(names))
            for i in first.tolist()
        ]
        return np.array(ids, dtype=int)[kind_of], list(names)

    def phase_rank_seconds(
        self, mask: np.ndarray, num_ranks: int
    ) -> Dict[str, List[float]]:
        """Per-rank summed duration of the masked spans, by phase (only
        phases the mask touches; ``mask`` must imply ``0 <= rank <
        num_ranks``)."""
        ids, names = self.phases
        sums = np.bincount(
            ids[mask] * num_ranks + self.rank[mask], weights=self.dur[mask],
            minlength=len(names) * num_ranks,
        ).reshape(len(names), num_ranks)
        return {names[p]: sums[p].tolist() for p in np.unique(ids[mask]).tolist()}


def from_tracer(
    tracer: SpanTracer,
    provenance: Optional[dict] = None,
    metrics: Optional[dict] = None,
) -> ProfileInput:
    """Snapshot a live tracer's spans as analysis input."""
    return ProfileInput(tracer, provenance, metrics)


def from_observability(obs) -> ProfileInput:
    """Wrap an :class:`~repro.obs.Observability` handle as input."""
    metrics = obs.metrics.snapshot() if len(obs.metrics) else None
    return from_tracer(obs.tracer, provenance=obs.provenance, metrics=metrics)


def _rank_of_tid(tid: int, labels: dict) -> int:
    label = labels.get(tid)
    if label == "driver":
        return -1
    if label is not None and label.startswith("rank "):
        try:
            return int(label.split()[1])
        except ValueError:
            pass
    return tid


def _fill_from_chrome(tracer: SpanTracer, doc: dict) -> Callable[[int], str]:
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ConfigurationError(
            "not a Chrome trace: top-level 'traceEvents' list is missing"
        )
    labels = {
        ev.get("tid"): ev.get("args", {}).get("name")
        for ev in events
        if isinstance(ev, dict) and ev.get("ph") == "M"
        and ev.get("name") == "thread_name"
    }
    lanes: dict = {}  # tid -> rank, resolved once per lane
    where = []
    for n, ev in enumerate(events):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        try:
            tid = ev.get("tid", -1)
            if tid not in lanes:
                lanes[tid] = _rank_of_tid(tid, labels)
            start = float(ev.get("ts", 0.0)) / 1e6
            tracer.add(
                ev.get("name", ""), ev.get("cat", ""), start,
                start + float(ev.get("dur", 0.0)) / 1e6, lanes[tid],
                ev.get("args"),
            )
        except _BAD_RECORD as exc:
            raise ConfigurationError(f"traceEvents[{n}]: {exc}") from None
        where.append(n)
    return lambda i: f"traceEvents[{where[i]}]"


def _fill_from_jsonl(tracer: SpanTracer, lines) -> Callable[[int], str]:
    where = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("not a JSON object")
            tracer.add(
                rec.get("name", ""), rec.get("cat", ""),
                float(rec.get("start_s", 0.0)), float(rec.get("end_s", 0.0)),
                int(rec.get("rank", -1)), rec.get("attrs"),
            )
        except _BAD_RECORD as exc:
            raise ConfigurationError(f"line {n}: {exc}") from None
        where.append(n)
    return lambda i: f"line {where[i]}"


def _load_spans_npz(npz: Path, view: Optional[Path] = None) -> ProfileInput:
    """The input a :data:`~repro.obs.export.SPANS_SCHEMA` file holds; with
    ``view``, only if bound to that view's bytes.  Nothing is unpickled."""
    with np.load(npz, allow_pickle=False) as z:
        side = json.loads(z["side"].tobytes())
        columns = [z[field] for field in FIELDS]
    if side["schema"] != SPANS_SCHEMA or view and (
        view.stat().st_size != side["view_bytes"]
        or hashlib.sha256(view.read_bytes()).hexdigest() != side["view_sha256"]
    ):
        raise ConfigurationError(f"not the {SPANS_SCHEMA} columns of {view or 'a view'}")
    tracer = SpanTracer.from_columns(side["names"], side["cats"], columns, side["attrs"])
    other = side["other"] or {}
    return ProfileInput(tracer, other.get("provenance"), other.get("metrics"),
                        source=str(view or npz))


def load_profile_input(path) -> ProfileInput:
    """Load an exported trace artifact (Chrome JSON, JSONL spans or
    span columns).

    A file with the zip magic is span columns.  A Chrome view is read
    from its :func:`~repro.obs.export.spans_companion` while that is
    bound to the view's bytes, and parsed otherwise.  A ``.jsonl``
    suffix means a span log; anything else must be one JSON document
    whose first non-blank character is ``{``.  Empty, truncated and
    mistyped input raises :class:`~repro.errors.ConfigurationError`
    naming the file (and the line or event).
    """
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"trace file {p} does not exist")
    with p.open("rb") as fh:
        npz = fh.read(4) == b"PK\x03\x04"  # the zip magic: span columns
    if npz or p.suffix != ".jsonl":
        try:
            return _load_spans_npz(p) if npz else _load_spans_npz(spans_companion(p), p)
        except Exception as exc:  # lint: ignore[hygiene] - no usable companion: parse the view
            if npz:
                raise ConfigurationError(f"{p}: not a span-columns file: {exc}") from None
    tracer = SpanTracer()
    prov = metrics = None
    try:
        with p.open() as fh:
            if p.suffix == ".jsonl":
                where = _fill_from_jsonl(tracer, fh)
                if not len(tracer):
                    raise ConfigurationError("is empty")
            else:
                text = fh.read()
                if text.lstrip()[:1] != "{":
                    raise ConfigurationError(
                        "is empty" if not text.strip() else
                        "neither a Chrome trace (not a JSON object) nor a "
                        "'.jsonl' span log"
                    )
                try:
                    doc = json.loads(text)
                except ValueError as exc:
                    raise ConfigurationError(f"not valid JSON: {exc}") from None
                if "traceEvents" not in doc:
                    raise ConfigurationError(
                        "neither a Chrome trace (no 'traceEvents') nor a "
                        "JSONL span log"
                    )
                where = _fill_from_chrome(tracer, doc)
                other = doc.get("otherData") or {}
                prov = other.get("provenance")
                metrics = other.get("metrics")
        try:
            return ProfileInput(tracer, prov, metrics, source=str(p))
        except _BadAttrs as exc:
            raise ConfigurationError(f"{where(exc.span)}: {exc.exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{p}: {exc}") from None


# -- semantic mapping -------------------------------------------------------

@lru_cache(maxsize=4096)
def _phase_step(
    cat: str, name: str, tag: Optional[int]
) -> Tuple[str, Optional[int]]:
    """``(benchmark phase, factorization step)`` of a span kind — what
    :func:`phase_of_span` / :func:`step_of_span` report, memoized: a run
    has a few hundred distinct ``(cat, name, tag)``."""
    wire, step = ("comm", None) if tag is None else decode_wire_tag(int(tag))
    if cat == "executor":
        if name in _IR_KERNELS:
            return "ir", step
        return name or "other", step
    if cat in ("comm", "engine"):
        return ("collective" if name in _COLLECTIVE_WAITS else wire), step
    if cat == "driver":
        return name, step
    return cat or "other", step


def _kind_of(span: Span) -> Tuple[str, Optional[int]]:
    return _phase_step(
        span.cat, span.name, span.attrs.get("tag") if span.attrs else None
    )


def phase_of_span(span: Span) -> str:
    """Benchmark-phase bucket of one span (see module docstring)."""
    return _kind_of(span)[0]


def step_of_span(span: Span) -> Optional[int]:
    """Factorization step ``k`` a comm span belongs to (None if unknown)."""
    return _kind_of(span)[1]


def config_from_provenance(prov: dict):
    """Rebuild the :class:`~repro.core.config.BenchmarkConfig` a
    provenance block describes (for model-vs-measured comparison).

    Raises :class:`~repro.errors.ConfigurationError` when the block has
    no usable ``config`` section.
    """
    from repro.core.config import BenchmarkConfig
    from repro.machine import get_machine

    desc = (prov or {}).get("config")
    if not isinstance(desc, dict):
        raise ConfigurationError(
            "provenance block carries no 'config' section; cannot rebuild "
            "the run configuration"
        )
    try:
        machine = get_machine(str(desc["machine"]))
        p_rows, p_cols = (int(v) for v in str(desc["grid"]).split("x"))
        q_rows, q_cols = (int(v) for v in str(desc["node_grid"]).split("x"))
        kwargs = dict(
            n=int(desc["N"]),
            block=int(desc["B"]),
            machine=machine,
            p_rows=p_rows,
            p_cols=p_cols,
            bcast_algorithm=str(desc["bcast"]),
            lookahead=bool(desc["lookahead"]),
            # older traces predate these fields; their defaults match
            allreduce_algorithm=(
                str(desc["allreduce"]) if desc.get("allreduce") else None
            ),
            progression=str(desc.get("progression", "routed")),
            gpu_aware=bool(desc["gpu_aware"]),
            port_binding=bool(desc["port_binding"]),
        )
        # Sub-node grids record the 1-rank-per-node fallback, which the
        # explicit q_rows/q_cols path (rightly) rejects; passing None
        # re-derives the identical default deterministically.
        if q_rows * q_cols == machine.node.gcds_per_node:
            kwargs["q_rows"] = q_rows
            kwargs["q_cols"] = q_cols
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"provenance config section is incomplete: {exc}"
        ) from None
    if "seed" in prov:
        kwargs["seed"] = int(prov["seed"])
    if "panel_precision" in prov:
        kwargs["panel_precision"] = str(prov["panel_precision"])
    if "refinement_solver" in prov:
        kwargs["refinement_solver"] = str(prov["refinement_solver"])
    return BenchmarkConfig(**kwargs)
