"""Tests for the exporters (repro.obs.export) and provenance capture."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import export
from repro.obs.context import Observability
from repro.obs.export import (
    dumps_strict,
    read_jsonl,
    sanitize_json,
    spans_companion,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.provenance import run_provenance, same_experiment
from repro.obs.tracer import _CODES, SpanTracer


def _tracer():
    tr = SpanTracer()
    tr.add("gemm", "executor", 0.0, 1e-3, rank=0, attrs={"k": 1})
    tr.add("xfer", "comm", 0.0, 5e-4, rank=1, attrs={"bytes": 128})
    tr.add("factorization", "driver", 0.0, 1e-3)  # rank -1 -> driver lane
    return tr


class TestSanitize:
    def test_non_finite_to_null(self):
        data = {"a": float("nan"), "b": [1.0, float("inf")], "c": "NaN"}
        clean = sanitize_json(data)
        assert clean == {"a": None, "b": [1.0, None], "c": "NaN"}

    def test_dumps_strict_never_emits_nan(self):
        text = dumps_strict({"x": float("nan")})
        assert "NaN" not in text
        assert json.loads(text) == {"x": None}


class TestChromeTrace:
    def test_structure(self):
        doc = to_chrome_trace(_tracer())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        gemm = next(e for e in xs if e["name"] == "gemm")
        assert gemm["cat"] == "executor"
        assert gemm["ts"] == 0.0
        assert gemm["dur"] == pytest.approx(1e3)  # microseconds
        assert gemm["tid"] == 0
        assert gemm["args"] == {"k": 1}

    def test_driver_lane_after_ranks(self):
        doc = to_chrome_trace(_tracer())
        drv = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "factorization"
        )
        assert drv["tid"] == 2  # max rank 1 + 1
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"rank 0", "rank 1", "driver"} <= names

    def test_observability_handle_carries_provenance_and_metrics(self):
        obs = Observability()
        obs.tracer.add("gemm", "executor", 0.0, 1.0, rank=0)
        obs.metrics.counter("n").inc()
        obs.provenance = {"schema": 1, "version": "x"}
        doc = to_chrome_trace(obs)
        assert doc["otherData"]["provenance"]["version"] == "x"
        assert "n" in doc["otherData"]["metrics"]

    def test_written_file_is_strict_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", _tracer())
        strict = json.loads(
            path.read_text(),
            parse_constant=lambda s: pytest.fail(f"bare {s} in output"),
        )
        assert strict["otherData"]["schema"] == 1


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = write_jsonl(tmp_path / "spans.jsonl", _tracer())
        back = read_jsonl(path)
        assert len(back) == 3
        assert back[0]["name"] == "gemm"
        assert back[0]["dur_s"] == pytest.approx(1e-3)
        assert back[1]["attrs"] == {"bytes": 128}


class TestProvenance:
    def test_captures_environment(self):
        prov = run_provenance()
        assert prov["package"] == "repro"
        assert prov["schema"] == 1
        assert prov["python"].count(".") == 2
        assert "timestamp_utc" in prov

    def test_captures_config(self):
        from repro.core.config import BenchmarkConfig
        from repro.machine import get_machine

        cfg = BenchmarkConfig(
            n=128, block=32, machine=get_machine("summit"), p_rows=2, p_cols=2
        )
        prov = run_provenance(cfg, extra={"campaign": 7})
        assert prov["machine"] == "summit"
        assert prov["seed"] == cfg.seed
        assert prov["config"]["N"] == 128
        assert prov["extra"] == {"campaign": 7}
        assert json.loads(json.dumps(prov)) == prov

    def test_same_experiment(self):
        from repro.core.config import BenchmarkConfig
        from repro.machine import get_machine

        cfg = BenchmarkConfig(
            n=128, block=32, machine=get_machine("summit"), p_rows=2, p_cols=2
        )
        a, b = run_provenance(cfg), run_provenance(cfg)
        assert same_experiment(a, b)  # timestamps differ, experiment same
        cfg2 = BenchmarkConfig(
            n=128, block=32, machine=get_machine("summit"), p_rows=2,
            p_cols=2, seed=99,
        )
        assert not same_experiment(a, run_provenance(cfg2))


# -- the block-wise formatter against an independent oracle ---------------

#: free-form attrs, which the tracer keeps in its side table
_side_attrs = st.dictionaries(
    st.sampled_from(["src", "tag", "k", "msg"]),
    st.integers(-5, 1 << 40) | st.text(max_size=3) | st.floats(allow_nan=True),
    min_size=1, max_size=3,
)
_times = st.floats(0, 1e3, allow_nan=False) | st.sampled_from(
    [0.0, 1e-7, 0.1, 123.456789, float("inf"), float("-inf"), float("nan")])


@st.composite
def _span_sets(draw):
    """A tracer of ``0, 1, block - 1, block, block + 1`` or ``3 * block +
    k`` spans: single spans with or without side-table attrs, and
    multi-segment charged edges, so runs and attrs fall on block edges."""
    block = draw(st.sampled_from([1, 2, 3, 5]))
    count = draw(st.sampled_from(
        [0, 1, block - 1, block, block + 1, 3 * block + draw(st.integers(1, block))]))
    finite = draw(st.booleans())
    time = st.floats(0, 1e3, allow_nan=False) if finite else _times
    tracer, rows = SpanTracer(), []
    while len(rows) < count:
        rank = draw(st.integers(-2, 6))
        if draw(st.booleans()):  # one charged edge, as the engine records it
            segs = draw(st.integers(1, count - len(rows)))
            dst, nbytes = draw(st.integers(0, 6)), draw(st.integers(0, 1 << 40))
            intra, tag = draw(st.booleans()), draw(st.none() | st.integers(0, 1 << 40))
            starts = [draw(time) for _ in range(segs)]
            ends = [s + draw(st.floats(0, 10)) for s in starts]
            tracer.add_xfers(max(rank, 0), dst, nbytes, intra, tag, starts, ends)
            attrs = {"dst": dst, "bytes": nbytes, "intra": intra}
            if tag is not None:
                attrs["tag"] = tag
            rows += [("xfer", "comm", s, e, max(rank, 0), attrs) for s, e in zip(starts, ends)]
        else:
            name = draw(st.sampled_from(["gemm", "wait_recv", "πhase", 'q"uote']))
            cat = draw(st.sampled_from(["executor", "engine", "driver", "health"]))
            start = draw(time)
            end = start + draw(st.floats(0, 10))
            attrs = draw(st.none() | _side_attrs)
            tracer.add(name, cat, start, end, rank, attrs)
            rows.append((name, cat, start, end, rank, attrs or {}))
    return block, tracer, rows


def _oracle(rows, cats, ranks, sort):
    """The Chrome view and JSONL log of ``rows`` from per-event dicts."""
    keep = [r for r in rows if (cats is None or r[1] in cats)
            and (ranks is None or r[4] in ranks)]
    if sort:  # (start, end, rank, cat, name), NaN after every number
        def key(r):
            return tuple((x != x, 0.0 if x != x else x) for x in r[2:4]) + (r[4], r[1], r[0])

        keep.sort(key=key)
    driver = max([-1] + [r[4] for r in rows]) + 1
    tids = [r[4] if r[4] >= 0 else driver for r in keep]
    meta = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "repro virtual machine"}}] + [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": t,
         "args": {"name": f"rank {t}" if t < driver else "driver"}}
        for t in sorted(set(tids))
    ]
    events = []
    for (name, cat, start, end, _rank, attrs), tid in zip(keep, tids):
        ev = {"name": name, "cat": cat, "ph": "X", "ts": start * 1e6,
              "dur": (end - start) * 1e6, "pid": 0, "tid": tid}
        if attrs:
            ev["args"] = attrs
        events.append(ev)
    doc = {"traceEvents": meta + events, "displayTimeUnit": "ms",
           "otherData": {"schema": 1, "dropped_spans": 0}}
    lines = [{"name": name, "cat": cat, "rank": rank, "start_s": start, "end_s": end,
              "dur_s": end - start, "attrs": attrs} for name, cat, start, end, rank, attrs in keep]
    finite = all(math.isfinite(x) for r in keep for x in (r[2] * 1e6, (r[3] - r[2]) * 1e6))
    return (_dumps(doc), "".join(_dumps(line) + "\n" for line in lines), finite)


def _dumps(doc) -> str:
    """``json.dumps``, or ``dumps_strict`` where a time or an attr is not finite."""
    try:
        return json.dumps(doc, allow_nan=False)
    except ValueError:
        return dumps_strict(doc)


class TestBlockWiseFormatter:
    @given(_span_sets(), st.none() | st.just(["comm", "engine"]),
           st.none() | st.lists(st.integers(-2, 6), max_size=3), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_view_and_log_are_the_per_event_documents(self, spans, cats, ranks, sort):
        """Block by block, the Chrome view and the JSONL log are the
        ``json.dumps`` of their per-event dicts (``dumps_strict`` where a
        time is not finite, which also leaves no companion)."""
        block, tracer, rows = spans
        view, log, finite = _oracle(rows, cats, ranks, sort)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(export, "BLOCK", block):
            path = write_chrome_trace(Path(tmp) / "t.json", tracer, cats=cats,
                                      ranks=ranks, sort=sort)
            jsonl = write_jsonl(Path(tmp) / "s.jsonl", tracer, cats=cats,
                                ranks=ranks, sort=sort)
            assert path.read_text() == view
            assert jsonl.read_text() == log
            assert spans_companion(path).exists() == finite

    def test_companion_relabels_many_names_by_first_appearance(self, tmp_path):
        """With a few hundred distinct names, the companion's label
        tables list them in order of first appearance in the view, and
        its columns index them back to each event's name and cat."""
        tracer, rng = SpanTracer(), np.random.default_rng(7)
        for i, k in enumerate(rng.integers(0, 400, size=3000).tolist()):
            start = float(rng.uniform(0, 1))  # sorted, the view reorders the names
            tracer.add(f"op{k}", f"cat{k % 7}", start, start + 1e-4, i % 5)
        path = write_chrome_trace(tmp_path / "t.json", tracer, sort=True)
        events = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
        with np.load(spans_companion(path)) as z:
            side = json.loads(z["side"].tobytes())
            names, cats = z["name"].tolist(), z["cat"].tolist()
        assert len(side["names"]) > 300
        assert side["names"] == list(dict.fromkeys(e["name"] for e in events))
        assert side["cats"] == list(dict.fromkeys(e["cat"] for e in events))
        assert [side["names"][i] for i in names] == [e["name"] for e in events]
        assert [side["cats"][i] for i in cats] == [e["cat"] for e in events]

    def test_export_memory_is_bounded_by_the_block(self, tmp_path):
        """Beyond the span columns it snapshots, a sorted export of a
        ~105 k-span trace peaks at a few MiB: the text is formatted,
        hashed and written block by block (a per-span pass peaked near
        20 MiB above the columns)."""
        tracer = SpanTracer()
        for e in range(3600):  # charged edges, plus a wait per edge
            src, dst, base = e % 36, (e * 7 + 1) % 36, e * 1e-4
            starts = [base + s * 3e-6 for s in range(28)]
            tracer.add_xfers(src, dst, 131072, src // 6 == dst // 6, e,
                             starts, [s + 2.5e-6 for s in starts])
            tracer.add("wait_recv", "engine", base, base + 1e-4, dst,
                       {"src": src, "tag": e})
        assert len(tracer) > 100_000
        columns = len(tracer) * sum(np.dtype(c).itemsize for c in _CODES)
        tracemalloc.start()
        try:
            write_chrome_trace(tmp_path / "t.json", tracer, sort=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - columns < 10 * 2**20
        assert spans_companion(tmp_path / "t.json").exists()
