"""Tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.tracer import Span, SpanTracer
from repro.simulate.timeline import render_gantt


class TestSpanBasics:
    def test_add_and_iterate(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.5, rank=3, attrs={"k": 2})
        tr.add("wait_recv", "engine", 1.5, 2.0, rank=3)
        assert len(tr) == 2
        spans = tr.spans
        assert spans[0].name == "gemm"
        assert spans[0].duration == pytest.approx(1.5)
        assert spans[0].attrs == {"k": 2}
        assert spans[1].cat == "engine"

    def test_rejects_backwards_span(self):
        tr = SpanTracer()
        with pytest.raises(ConfigurationError):
            tr.add("gemm", "executor", 2.0, 1.0)

    def test_categories(self):
        tr = SpanTracer()
        for _ in range(3):
            tr.add("a", "engine", 0.0, 1.0)
        tr.add("b", "comm", 0.0, 1.0)
        assert tr.categories() == {"engine": 3, "comm": 1}

    def test_total_by_name(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0)
        tr.add("gemm", "executor", 2.0, 2.5)
        tr.add("fill", "executor", 0.0, 0.25)
        totals = tr.total_by_name()
        assert totals["gemm"] == pytest.approx(1.5)
        assert totals["fill"] == pytest.approx(0.25)


class TestStartEnd:
    def test_explicit_times(self):
        tr = SpanTracer()
        token = tr.start("phase", "driver", rank=0, at=1.0)
        span = tr.end(token, at=3.0)
        assert span.start == 1.0 and span.end == 3.0

    def test_unknown_token_rejected(self):
        tr = SpanTracer()
        with pytest.raises(ConfigurationError):
            tr.end(99)

    def test_double_end_rejected(self):
        tr = SpanTracer()
        t = tr.start("x", "driver", at=0.0)
        tr.end(t, at=1.0)
        with pytest.raises(ConfigurationError):
            tr.end(t, at=2.0)

    def test_nesting_records_parent(self):
        tr = SpanTracer()
        outer = tr.start("outer", "driver", at=0.0)
        inner = tr.start("inner", "driver", at=0.5)
        tr.end(inner, at=0.7)
        tr.end(outer, at=1.0)
        inner_span, outer_span = tr.spans
        assert inner_span.parent == outer
        assert outer_span.parent is None

    def test_virtual_clock(self):
        clock = iter([10.0, 12.0])
        tr = SpanTracer(clock=lambda: next(clock))
        with tr.span("step", "driver", rank=1, k=4):
            pass
        (s,) = tr.spans
        assert (s.start, s.end) == (10.0, 12.0)
        assert s.attrs == {"k": 4}


class TestRing:
    def test_capacity_bounds_memory(self):
        tr = SpanTracer(capacity=3)
        for i in range(10):
            tr.add(f"s{i}", "engine", float(i), float(i) + 1)
        assert len(tr) == 3
        assert tr.dropped == 7
        assert [s.name for s in tr] == ["s7", "s8", "s9"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SpanTracer(capacity=0)

    def test_merge_respects_capacity(self):
        a = SpanTracer(capacity=2)
        b = SpanTracer()
        for i in range(4):
            b.add(f"s{i}", "engine", 0.0, 1.0)
        a.merge(b)
        assert len(a) == 2
        assert a.dropped == 2


class TestMerge:
    def test_merge_keeps_overlapping_rank_spans(self):
        """Per-rank tracers merged into one keep every overlapping span."""
        a, b = SpanTracer(), SpanTracer()
        a.add("gemm", "executor", 0.0, 2.0, rank=0)
        b.add("gemm", "executor", 1.0, 3.0, rank=1)  # overlaps rank 0's
        b.add("wait_recv", "engine", 3.0, 4.0, rank=1)
        a.merge(b)
        assert len(a) == 3
        assert a.categories() == {"executor": 2, "engine": 1}
        assert a.total_by_name()["gemm"] == pytest.approx(4.0)

    def test_merge_accepts_plain_iterable(self):
        tr = SpanTracer()
        tr.merge([
            Span("gemm", "executor", 0.0, 1.0, rank=0),
            Span("gemm", "executor", 0.5, 1.5, rank=1),
        ])
        assert len(tr) == 2

    def test_merged_timeline_interleaves_ranks(self):
        """as_timeline on a merged tracer exposes the concurrency: both
        ranks' tuples survive even where their intervals overlap."""
        merged = SpanTracer()
        for rank in range(3):
            per_rank = SpanTracer()
            per_rank.add("gemm", "executor", 0.25 * rank, 2.0, rank=rank)
            per_rank.add("fill", "executor", 2.0, 2.5 + 0.25 * rank,
                         rank=rank)
            merged.merge(per_rank)
        tl = merged.as_timeline()
        assert len(tl) == 6
        assert {t[0] for t in tl} == {0, 1, 2}
        # every rank's gemm overlaps t=1.0
        covering = [t for t in tl if t[1] <= 1.0 <= t[2] and t[3] == "gemm"]
        assert len(covering) == 3


class TestTimelineAdapter:
    def test_as_timeline_tuples(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0, rank=0)
        tr.add("wait_recv", "engine", 1.0, 2.0, rank=1)
        tr.add("factorization", "driver", 0.0, 2.0, rank=-1)  # no rank lane
        tl = tr.as_timeline()
        assert tl == [(0, 0.0, 1.0, "gemm"), (1, 1.0, 2.0, "wait_recv")]

    def test_category_filter(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0, rank=0)
        tr.add("xfer", "comm", 0.0, 0.5, rank=0)
        assert len(tr.as_timeline(cats=["executor"])) == 1

    def test_gantt_renders_spans(self):
        """The legacy Gantt renderer works on tracer output unchanged."""
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 0.6, rank=0)
        tr.add("wait_recv", "engine", 0.6, 1.0, rank=0)
        tr.add("gemm", "executor", 0.0, 1.0, rank=1)
        out = render_gantt(tr.as_timeline(), width=20)
        assert "r0" in out and "r1" in out
        assert "#=gemm" in out


class TestColumnarContract:
    """What the columnar store must keep of the deque-of-Span one."""

    XFER = {"dst": 3, "bytes": 4096, "intra": True, "tag": 17}

    def test_ring_wraps_in_insertion_order_across_add_end_merge(self):
        tr = SpanTracer(capacity=4)
        for i in range(6):
            tr.add(f"a{i}", "engine", float(i), float(i) + 1, attrs={"i": i})
        assert tr.dropped == 2
        tr.end(tr.start("e", "driver", at=6.0, k=1), at=7.0)
        assert tr.dropped == 3
        tr.merge([Span("m0", "comm", 8.0, 9.0, 1, dict(self.XFER)),
                  Span("m1", "comm", 9.0, 10.0, 1)])
        assert (len(tr), tr.dropped) == (4, 5)
        assert [s.name for s in tr] == ["a5", "e", "m0", "m1"]
        # attrs follow their span through every block trim
        assert [s.attrs for s in tr] == [{"i": 5}, {"k": 1}, self.XFER, {}]
        assert tr.categories() == {"engine": 1, "driver": 1, "comm": 2}

    def test_ring_survives_many_wraps(self):
        tr = SpanTracer(capacity=3)
        for i in range(50):
            tr.add("s", "engine", float(i), float(i), attrs={"i": i})
        assert [s.attrs["i"] for s in tr] == [47, 48, 49]
        assert (len(tr), tr.dropped) == (3, 47)

    def test_merge_of_a_tracer_and_of_an_iterable(self):
        src = SpanTracer()
        src.add("gemm", "executor", 0.0, 1.0, rank=2, attrs={"k": [1, 2]})
        src.add_xfers(0, 3, 4096, True, 17, [1.0, 2.0], [2.0, 3.5])
        a, b = SpanTracer(), SpanTracer()
        a.merge(src)
        b.merge(iter(src.spans))
        assert a.spans == b.spans == src.spans
        assert len(a) == 3

    def test_xfer_lane_round_trips_exactly(self):
        tr = SpanTracer()
        tr.add("xfer", "comm", 0.0, 1.0, 0, dict(self.XFER))
        tr.add_xfers(0, 3, 4096, True, 17, [1.0], [2.0])
        tr.add_xfers(1, 2, 8, False, None, [1.0], [2.0])
        first, second, untagged = tr.spans
        assert first.attrs == second.attrs == self.XFER
        assert list(first.attrs) == ["dst", "bytes", "intra", "tag"]
        assert first.attrs["intra"] is True
        assert untagged.attrs == {"dst": 2, "bytes": 8, "intra": False}
        assert (second.name, second.cat, second.rank) == ("xfer", "comm", 0)

    @pytest.mark.parametrize("attrs", [
        {"dst": 1},                                          # partial shape
        {"bytes": 8, "dst": 1, "intra": True},               # other key order
        {"dst": 1, "bytes": 8.0, "intra": True},             # float size
        {"dst": 1, "bytes": 8, "intra": 1},                  # int, not bool
        {"dst": 1, "bytes": 8, "intra": True, "tag": None},
        {"dst": -1, "bytes": 8, "intra": True},
        {"nested": {"a": [1.5, {"b": None}]}, "xs": [1, 2.5, "s"]},
    ])
    def test_near_miss_and_nested_attrs_round_trip(self, attrs):
        tr = SpanTracer()
        tr.add("xfer", "comm", 0.0, 1.0, 0, attrs)
        (span,) = tr.spans
        assert span.attrs == attrs
        assert list(span.attrs) == list(attrs)
        assert [type(v) for v in span.attrs.values()] == [
            type(v) for v in attrs.values()
        ]

    def test_non_finite_attr_values_export_as_null(self, tmp_path):
        import json

        from repro.obs.export import write_chrome_trace, write_jsonl

        tr = SpanTracer()
        tr.add("probe", "health", 0.0, 1.0, 0,
               {"nan": float("nan"), "xs": [1.0, float("inf"), [float("-inf")]]})
        want = {"nan": None, "xs": [1.0, None, [None]]}
        doc = json.loads(write_chrome_trace(tmp_path / "t.json", tr).read_text())
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"] == want
        (line,) = write_jsonl(tmp_path / "s.jsonl", tr).read_text().splitlines()
        assert json.loads(line)["attrs"] == want

    def test_nested_span_contexts_keep_parent_ids(self):
        clock = iter(range(100))
        tr = SpanTracer(clock=lambda: float(next(clock)))
        with tr.span("outer", "driver"):
            with tr.span("mid", "driver"):
                with tr.span("inner", "driver", k=1):
                    pass
            with tr.span("sibling", "driver"):
                pass
        by_name = {s.name: s for s in tr}
        assert by_name["outer"].parent is None
        assert by_name["mid"].parent == by_name["sibling"].parent
        assert by_name["mid"].parent is not None
        assert by_name["inner"].parent not in (None, by_name["mid"].parent)
        assert by_name["inner"].attrs == {"k": 1}

    def test_iterating_twice_yields_equal_spans(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0, 1, {"k": 2})
        tr.add_xfers(0, 1, 64, False, 5, [0.0, 1.0], [1.0, 2.0])
        first, second = list(tr), list(tr)
        assert first == second == tr.spans
        assert all(a is not b for a, b in zip(first, second))

    def test_clear_resets_columns_tables_and_intern_maps(self):
        tr = SpanTracer(capacity=2)
        for i in range(5):
            tr.add("gemm", "executor", 0.0, 1.0, 0, {"i": i})
        tr.start("open", "driver", at=0.0)
        tr.clear()
        assert (len(tr), tr.dropped, tr.spans) == (0, 0, [])
        assert tr.categories() == {} and tr.total_by_name() == {}
        assert not tr.names and not tr.cats
        assert len(tr.columns()) == 0 and tr.columns().extra == {}
        tr.add("fill", "executor", 0.0, 1.0)
        (span,) = tr.spans
        assert (span.name, span.attrs, span.parent) == ("fill", {}, None)

    def test_a_rejected_value_leaves_no_partial_row(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0, 0)
        with pytest.raises(TypeError):
            tr.add("gemm", "executor", 1.0, 2.0, rank="3", attrs={"k": 1})
        with pytest.raises(TypeError):
            tr.add_xfers(0, 1, 64, False, None, [1.0, "x"], [2.0, 3.0])
        tr.add("fill", "executor", 2.0, 3.0, 1)
        assert [(s.name, s.rank, s.attrs) for s in tr] == [
            ("gemm", 0, {}), ("fill", 1, {}),
        ]

    def test_xfers_validate_like_add(self):
        tr = SpanTracer()
        with pytest.raises(ConfigurationError):
            tr.add_xfers(0, 1, 64, False, None, [2.0], [1.0])
        with pytest.raises(ConfigurationError):
            tr.add_xfers(0, 1, 64, False, None, [1.0, 2.0], [3.0])
        assert len(tr) == 0
