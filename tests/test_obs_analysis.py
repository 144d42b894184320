"""Tests for the trace-analytics layer (repro.obs.analysis)."""

import enum
import gc
import io
import json
import warnings
from unittest import mock

import numpy as np
import pytest

from repro.cli import main
from repro.comm.bcast import TAG_STRIDE
from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.errors import ConfigurationError
from repro.machine import get_machine
from repro.obs import Observability
from repro.obs.analysis import (
    LiveProgressReporter,
    build_profile,
    comm_matrix,
    compare_profiles,
    config_from_provenance,
    critical_path,
    from_observability,
    from_tracer,
    load_imbalance,
    load_profile_input,
    loaders,
    measured_phase_seconds,
    phase_of_span,
    regression_deltas,
    step_flops,
    step_of_span,
)
from repro.obs.export import filter_spans, spans_companion, write_chrome_trace
from repro.obs.phases import STEP_STRIDE, TAG_DIAG_ROW, TAG_U_PANEL
from repro.obs.tracer import FIELDS, Span, SpanTracer


def _cfg(**kwargs):
    defaults = dict(
        n=512, block=64, machine=get_machine("frontier"), p_rows=2, p_cols=2
    )
    defaults.update(kwargs)
    return BenchmarkConfig(**defaults)


@pytest.fixture(scope="module")
def observed():
    """One instrumented 4-rank run shared by the module's tests."""
    obs = Observability()
    cfg = _cfg()
    res = simulate_run(cfg, obs=obs)
    return cfg, obs, res


def _wire_tag(k, offset):
    return (STEP_STRIDE * k + offset) * TAG_STRIDE


class TestPhaseOfSpan:
    @pytest.mark.parametrize("name,cat,attrs,phase", [
        ("gemm", "executor", {}, "gemm"),
        ("getrf", "executor", {}, "getrf"),
        ("fill", "executor", {}, "fill"),
        ("gemv", "executor", {}, "ir"),
        ("trsv", "executor", {}, "ir"),
        ("wait_allreduce", "engine", {}, "collective"),
        ("wait_barrier", "engine", {}, "collective"),
        ("wait_recv", "engine", {}, "comm"),
        ("factorization", "driver", {}, "factorization"),
    ])
    def test_static_mapping(self, name, cat, attrs, phase):
        assert phase_of_span(Span(name, cat, 0.0, 1.0, 0, attrs)) == phase

    def test_tagged_comm_decodes_phase_and_step(self):
        sp = Span("xfer", "comm", 0.0, 1.0, 0,
                  {"dst": 1, "tag": _wire_tag(3, TAG_DIAG_ROW)})
        assert phase_of_span(sp) == "diag_bcast"
        assert step_of_span(sp) == 3
        sp2 = Span("wait_recv", "engine", 0.0, 1.0, 0,
                   {"src": 1, "tag": _wire_tag(5, TAG_U_PANEL)})
        assert phase_of_span(sp2) == "panel_bcast"
        assert step_of_span(sp2) == 5

    def test_untagged_span_has_no_step(self):
        assert step_of_span(Span("gemm", "executor", 0.0, 1.0, 0)) is None


class TestCriticalPath:
    def _spans(self):
        tag = _wire_tag(0, TAG_DIAG_ROW)
        return [
            # rank 0 computes, then sends to rank 1
            Span("getrf", "executor", 0.0, 0.5, 0),
            Span("xfer", "comm", 0.5, 2.0, 0,
                 {"dst": 1, "bytes": 4096, "tag": tag, "intra": True}),
            # rank 1 computes, blocks on the recv, then computes again
            Span("gemm", "executor", 0.0, 1.0, 1),
            Span("wait_recv", "engine", 1.0, 2.0, 1, {"src": 0, "tag": tag}),
            Span("gemm", "executor", 2.0, 4.0, 1),
        ]

    def test_cross_rank_back_walk(self):
        res = critical_path(self._spans(), elapsed=4.0)
        names = [seg.span.name for seg in res.segments]
        # latest span is rank 1's trailing gemm; the recv hops to the
        # sender's xfer, which chains to rank 0's getrf
        assert names == ["getrf", "xfer", "wait_recv", "gemm"]
        # xfer (1.5s) + wait_recv (1.0s) outweigh the 2.0s gemm
        assert res.bounding_phase == "diag_bcast"
        assert res.phase_seconds["diag_bcast"] == pytest.approx(2.5)
        assert res.phase_seconds["gemm"] == pytest.approx(2.0)
        assert res.coverage == pytest.approx(1.0)
        # the step-0 comm segments dominate step 0's path time
        assert res.step_bound == {0: "diag_bcast"}

    def test_same_rank_chain_without_comm(self):
        spans = [
            Span("getrf", "executor", 0.0, 1.0, 0),
            Span("gemm", "executor", 1.0, 3.0, 0),
        ]
        res = critical_path(spans, elapsed=3.0)
        assert [s.span.name for s in res.segments] == ["getrf", "gemm"]
        assert res.coverage == pytest.approx(1.0)

    def test_empty_input(self):
        res = critical_path([], elapsed=1.0)
        assert res.segments == [] and res.coverage == 0.0
        assert res.bounding_phase is None

    def test_coverage_counts_gaps_as_uncovered(self):
        spans = [
            Span("getrf", "executor", 0.0, 1.0, 0),
            Span("gemm", "executor", 3.0, 4.0, 0),  # 2s unexplained gap
        ]
        res = critical_path(spans, elapsed=4.0)
        assert res.coverage == pytest.approx(0.5)


class TestImbalance:
    def test_straggler_flagged_over_median(self):
        spans = []
        for r, busy in enumerate((1.0, 1.0, 1.0, 2.0)):
            spans.append(Span("gemm", "executor", 0.0, busy, r))
            spans.append(Span("wait_recv", "engine", busy, 2.0, r))
        rep = load_imbalance(spans, elapsed=2.0, num_ranks=4, threshold=0.5)
        assert rep.stragglers == [3]
        assert len(rep.ranks) == 4
        assert rep.ranks[3].busy_fraction == pytest.approx(1.0)
        assert rep.ranks[0].wait_fraction == pytest.approx(0.5)
        (gemm,) = rep.phases
        assert gemm.phase == "gemm"
        assert gemm.max_rank == 3
        assert gemm.imbalance == pytest.approx(2.0 / 1.25)

    def test_idle_fraction_is_unaccounted_time(self):
        spans = [Span("gemm", "executor", 0.0, 1.0, 0)]
        rep = load_imbalance(spans, elapsed=4.0, num_ranks=1)
        assert rep.ranks[0].idle_fraction == pytest.approx(0.75)

    def test_xfer_spans_excluded_from_busy_and_wait(self):
        spans = [
            Span("gemm", "executor", 0.0, 1.0, 0),
            Span("xfer", "comm", 0.0, 5.0, 0, {"dst": 1, "bytes": 8}),
        ]
        rep = load_imbalance(spans, elapsed=5.0, num_ranks=1)
        assert rep.ranks[0].busy_s == pytest.approx(1.0)
        assert rep.ranks[0].wait_s == 0.0


class TestCommMatrix:
    def test_pairs_phases_and_link_classes(self):
        spans = [
            Span("xfer", "comm", 0.0, 1.0, 0,
                 {"dst": 1, "bytes": 100, "intra": True,
                  "tag": _wire_tag(0, TAG_DIAG_ROW)}),
            Span("xfer", "comm", 1.0, 2.0, 0,
                 {"dst": 1, "bytes": 50, "intra": False,
                  "tag": _wire_tag(0, TAG_U_PANEL)}),
            Span("xfer", "comm", 0.0, 1.0, 1, {"dst": 0, "bytes": 7}),
            Span("gemm", "executor", 0.0, 1.0, 0),  # ignored
        ]
        cm = comm_matrix(spans, num_ranks=2)
        assert cm.total_bytes == 157
        assert cm.total_messages == 3
        assert cm.bytes_by_pair[(0, 1)] == 150
        assert cm.msgs_by_pair[(0, 1)] == 2
        assert cm.intra_bytes == 100 and cm.inter_bytes == 57
        assert cm.bytes_by_phase == {
            "diag_bcast": 100, "panel_bcast": 50, "comm": 7,
        }
        assert cm.matrix() == [[0, 150], [7, 0]]
        assert cm.top_pairs(1) == [(0, 1, 150, 2)]


class TestRegressionDeltas:
    def test_detects_growth_over_threshold(self):
        deltas = regression_deltas(
            {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 2.0}, threshold=0.25
        )
        by_name = {d.name: d for d in deltas}
        assert by_name["a"].regressed and by_name["a"].delta == pytest.approx(1.0)
        assert not by_name["b"].regressed
        # sorted worst-first
        assert deltas[0].name == "a"

    def test_min_seconds_floor_suppresses_noise(self):
        (d,) = regression_deltas(
            {"a": 2e-4}, {"a": 1e-4}, threshold=0.25, min_seconds=1e-3
        )
        assert d.delta == pytest.approx(1.0)
        assert not d.regressed

    def test_only_shared_names_compared(self):
        deltas = regression_deltas({"a": 1.0}, {"b": 1.0}, threshold=0.25)
        assert deltas == []

    def test_zero_baseline_never_regresses(self):
        (d,) = regression_deltas({"a": 1.0}, {"a": 0.0}, threshold=0.25)
        assert d.delta is None and not d.regressed


class TestMeasuredPhaseSeconds:
    def test_busiest_rank_basis(self):
        spans = [
            Span("gemm", "executor", 0.0, 1.0, 0),
            Span("gemm", "executor", 0.0, 3.0, 1),
        ]
        assert measured_phase_seconds(spans, 2) == {"gemm": 3.0}


class TestLoaders:
    def test_chrome_round_trip(self, observed, tmp_path):
        _cfg_, obs, _res = observed
        path = tmp_path / "trace.json"
        obs.export_chrome_trace(path)
        pi = load_profile_input(path)
        assert pi.num_ranks == 4
        assert len(pi.spans) == len(obs.tracer)
        assert pi.provenance is not None
        # driver-lane spans come back with the sentinel rank
        assert any(s.rank == -1 and s.cat == "driver" for s in pi.spans)
        live = from_observability(obs)
        assert live.elapsed == pytest.approx(pi.elapsed, rel=1e-6)

    def test_jsonl_round_trip(self, observed, tmp_path):
        _cfg_, obs, _res = observed
        path = tmp_path / "spans.jsonl"
        obs.export_jsonl(path)
        pi = load_profile_input(path)
        assert len(pi.spans) == len(obs.tracer)
        assert pi.num_ranks == 4
        # tagged comm attrs survive the round trip
        assert any(
            s.cat == "comm" and "tag" in s.attrs for s in pi.spans
        )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_profile_input(tmp_path / "nope.json")

    def test_non_trace_json_rejected(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text('{"hello": 1}')
        with pytest.raises(ConfigurationError):
            load_profile_input(p)

    def test_leading_whitespace_is_still_a_chrome_trace(self, observed, tmp_path):
        _cfg_, obs, _res = observed
        path = obs.export_chrome_trace(tmp_path / "trace.json")
        path.write_text("\n  \t" + path.read_text())
        pi = load_profile_input(path)
        assert len(pi.spans) == len(obs.tracer)
        assert all(s.name for s in pi.spans)

    def test_load_closes_the_file(self, observed, tmp_path):
        _cfg_, obs, _res = observed
        paths = [obs.export_chrome_trace(tmp_path / "trace.json"),
                 obs.export_jsonl(tmp_path / "spans.jsonl")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for path in paths:
                load_profile_input(path)
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]

    @pytest.mark.parametrize("name,text,needle", [
        ("empty.json", "", "is empty"),
        ("blank.json", " \n\n", "is empty"),
        ("empty.jsonl", "\n", "is empty"),
        ("array.json", "[1, 2]", "neither a Chrome trace"),
        ("cut.json", '{"traceEvents": [{"ph": "X", "na', "not valid JSON"),
        ("cut.jsonl",
         '{"name": "a", "start_s": 0, "end_s": 1}\n\n{"name": "b", "sta',
         "line 3"),
        ("list.jsonl", "[1, 2]\n", "line 1"),
        ("ts.json",
         '{"traceEvents": [{"ph": "X", "name": "a", "ts": "soon", "dur": 1}]}',
         "traceEvents[0]"),
        ("tid.json",
         '{"traceEvents": [{"ph": "X", "name": "a", "ts": 0, "tid": "main"}]}',
         "traceEvents[0]"),
        ("backwards.json",
         '{"traceEvents": [{"ph": "X", "name": "a", "ts": 5, "dur": -2}]}',
         "before it starts"),
        ("rank.jsonl", '{"name": "a", "rank": "zero"}\n', "line 1"),
        # attrs that do not fold into the attribute columns, located by
        # record (span 0 is traceEvents[1] / line 2)
        ("tag.json",
         '{"traceEvents": [{"ph": "M", "name": "thread_name", "tid": 0}, '
         '{"ph": "X", "name": "a", "ts": 0, "args": {"src": 1, "tag": "x"}}]}',
         "traceEvents[1]: invalid literal"),
        ("huge.json",
         '{"traceEvents": [{"ph": "M"}, {"ph": "X", "name": "a", "ts": 0, '
         '"args": {"dst": 99999999999999999999999}}]}',
         "traceEvents[1]:"),
        ("list-args.json",
         '{"traceEvents": [{"ph": "M"}, {"ph": "X", "name": "a", "args": [1]}]}',
         "traceEvents[1]:"),
        ("tag.jsonl", '\n{"name": "a", "attrs": {"src": 1, "tag": "x"}}\n',
         "line 2: invalid literal"),
        ("huge.jsonl", '{"name": "a"}\n{"name": "b", "attrs": {"src": 1e400}}\n',
         "line 2:"),
    ])
    def test_bad_input_names_the_file(self, tmp_path, name, text, needle):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigurationError) as exc:
            load_profile_input(path)
        assert str(path) in str(exc.value) and needle in str(exc.value)

    def test_mistyped_attrs_fail_located_with_a_companion_too(self, tmp_path):
        tracer = SpanTracer()
        tracer.add("a", "x", 0.0, 1.0, 0)
        tracer.add("b", "x", 1.0, 2.0, 0, {"src": 1, "tag": "x"})
        path = write_chrome_trace(tmp_path / "t.json", tracer)
        assert spans_companion(path).exists()
        with pytest.raises(ConfigurationError, match=r"t\.json: traceEvents\[3\]: invalid"):
            load_profile_input(path)

    def test_spans_are_materialised_once_and_lazily(self, observed):
        _cfg_, obs, _res = observed
        pi = from_observability(obs)
        assert "spans" not in vars(pi)
        assert pi.spans is pi.spans
        assert pi.spans == obs.tracer.spans

    def test_config_from_provenance_round_trip(self, observed):
        cfg, obs, _res = observed
        rebuilt = config_from_provenance(obs.provenance)
        assert (rebuilt.n, rebuilt.block) == (cfg.n, cfg.block)
        assert (rebuilt.p_rows, rebuilt.p_cols) == (cfg.p_rows, cfg.p_cols)
        assert rebuilt.machine.name == cfg.machine.name
        assert rebuilt.seed == cfg.seed

    def test_config_from_empty_provenance_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_provenance({})


def _same_columns(a, b):
    """``a`` and ``b`` hold the same spans, bit for bit."""
    return all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in FIELDS
    ) and (a.names, a.cats, a.extra) == (b.names, b.cats, b.extra)


def _rewrite(npz, **changes):
    """Rewrite the span-columns file ``npz`` with ``changes`` applied."""
    with np.load(npz) as z:
        arrays = dict(z)
    arrays.update(changes)
    with open(npz, "wb") as fh:
        np.savez(fh, **arrays)


_unpickled = []


class _Unpickles:
    """An object whose unpickling would leave a mark."""

    def __reduce__(self):
        return _unpickled.append, ("unpickled",)


class TestSpanColumnsCompanion:
    """``load_profile_input`` reads a Chrome view's ``.spans.npz`` only
    while it is bound to the view's bytes; anything else parses the view."""

    @pytest.fixture()
    def exported(self, observed, tmp_path):
        _cfg_, obs, _res = observed
        view = obs.export_chrome_trace(tmp_path / "trace.json", sort=True)
        companion = spans_companion(view)
        with mock.patch.object(loaders, "_fill_from_chrome",
                               side_effect=AssertionError("the view was parsed")):
            fast = load_profile_input(view)
        data = companion.read_bytes()
        companion.unlink()
        parsed = load_profile_input(view)
        companion.write_bytes(data)
        return view, companion, fast, parsed

    def test_companion_is_read_instead_of_the_view(self, exported):
        view, companion, fast, parsed = exported
        assert companion.name == "trace.json.spans.npz"
        assert _same_columns(fast, parsed) and fast.source == parsed.source == str(view)
        assert build_profile(fast).to_dict() == build_profile(parsed).to_dict()

    def test_truncated_companion_is_ignored(self, exported):
        view, companion, _fast, parsed = exported
        companion.write_bytes(companion.read_bytes()[: companion.stat().st_size // 2])
        assert _same_columns(load_profile_input(view), parsed)

    def test_companion_of_another_schema_is_ignored(self, exported):
        view, companion, _fast, parsed = exported
        with np.load(companion) as z:
            side = json.loads(z["side"].tobytes())
            start = z["start"]
        side["schema"] = "repro.obs.spans/v0"
        _rewrite(companion, start=start * 2,
                 side=np.frombuffer(json.dumps(side).encode(), dtype=np.uint8))
        assert _same_columns(load_profile_input(view), parsed)

    def test_edited_view_is_parsed(self, exported):
        view, _companion, _fast, _parsed = exported
        text = view.read_text()
        view.write_text(text.replace('"name": "gemm"', '"name": "gemn"', 1))
        assert view.stat().st_size == len(text)  # only the digest can tell
        assert "gemn" in load_profile_input(view).names

    def test_object_array_is_rejected_not_unpickled(self, exported):
        view, companion, _fast, parsed = exported
        _rewrite(companion, side=np.array([_Unpickles()], dtype=object))
        assert _same_columns(load_profile_input(view), parsed)
        with pytest.raises(ConfigurationError, match="not a span-columns file"):
            load_profile_input(companion)
        assert _unpickled == []

    def test_npz_loads_directly(self, exported):
        _view, companion, _fast, parsed = exported
        direct = load_profile_input(companion)
        assert _same_columns(direct, parsed)
        assert (direct.provenance, direct.metrics) == (parsed.provenance, parsed.metrics)
        assert direct.source == str(companion)

    def test_non_finite_time_writes_no_companion(self, tmp_path):
        path = tmp_path / "t.json"
        tracer = SpanTracer()
        tracer.add("a", "x", 0.0, 1.0, 0)
        write_chrome_trace(path, tracer)
        assert spans_companion(path).exists()
        tracer.add("b", "x", 0.0, float("inf"), 0)
        write_chrome_trace(path, tracer)  # the stale companion goes too
        assert not spans_companion(path).exists()
        with pytest.raises(ConfigurationError, match=r"t\.json: traceEvents\[3\]: float"):
            load_profile_input(path)

    def test_attrs_that_fit_the_lane_after_the_round_trip(self, tmp_path):
        """An int subclass keeps a dict out of the typed lane; its JSON
        text does not — both loads apply the lane rule of ``add``."""
        one = enum.IntEnum("One", "ONE").ONE
        tracer = SpanTracer()
        tracer.add("xfer", "comm", 0.0, 1.0, 0, {"dst": one, "bytes": 8, "intra": True})
        assert tracer.columns().extra  # not in the lane while live
        view = write_chrome_trace(tmp_path / "t.json", tracer)
        fast = loaders._load_spans_npz(spans_companion(view), view)
        assert not fast.extra and fast.dst.tolist() == [1]
        spans_companion(view).unlink()
        assert _same_columns(fast, load_profile_input(view))


class TestBuildProfile:
    def test_end_to_end_sections(self, observed):
        _cfg_, obs, res = observed
        rep = build_profile(from_observability(obs))
        assert rep.num_ranks == 4
        assert rep.elapsed == pytest.approx(res.elapsed, rel=0.05)
        assert rep.path.bounding_phase is not None
        assert rep.path.coverage > 0.5
        assert len(rep.imbalance.ranks) == 4
        assert rep.comm.total_bytes > 0
        assert rep.phase_seconds.get("gemm", 0.0) > 0
        # provenance rode along, so the model section exists
        assert rep.deviation is not None
        assert rep.deviation.total_deviation is not None

    def test_to_dict_passes_schema_checker(self, observed):
        from repro.analyze.checkers.trace_schema import check_profile_report

        _cfg_, obs, _res = observed
        doc = build_profile(from_observability(obs)).to_dict()
        assert check_profile_report(doc) == []
        # strict-JSON serializable
        assert json.loads(json.dumps(doc))["schema"] == "repro.obs.profile/v1"

    def test_render_text_mentions_every_section(self, observed):
        _cfg_, obs, _res = observed
        text = build_profile(from_observability(obs)).render_text()
        for needle in ("critical path", "load balance", "comm matrix",
                       "model vs measured"):
            assert needle in text

    def test_csv_rows_are_flat(self, observed):
        _cfg_, obs, _res = observed
        rows = build_profile(from_observability(obs)).csv_rows()
        assert rows[0] == ["section", "name", "value"]
        assert all(len(r) == 3 for r in rows)

    def test_no_model_skips_deviation(self, observed):
        _cfg_, obs, _res = observed
        rep = build_profile(from_observability(obs), with_model=False)
        assert rep.deviation is None
        assert "deviation" not in rep.to_dict()

    def test_empty_spans_rejected(self):
        with pytest.raises(ConfigurationError):
            build_profile(from_tracer(SpanTracer()))


class TestCompareProfiles:
    def test_self_comparison_is_clean(self, observed):
        _cfg_, obs, _res = observed
        doc = build_profile(from_observability(obs)).to_dict()
        deltas = compare_profiles(doc, doc, threshold=0.25)
        assert deltas and not any(d.regressed for d in deltas)

    def test_inflated_phase_regresses(self, observed):
        _cfg_, obs, _res = observed
        doc = build_profile(from_observability(obs)).to_dict()
        baseline = json.loads(json.dumps(doc))
        baseline["phase_seconds"] = {
            k: v / 100.0 for k, v in baseline["phase_seconds"].items()
        }
        deltas = compare_profiles(doc, baseline, threshold=0.25)
        assert any(d.regressed for d in deltas)

    def test_non_profile_document_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_profiles({"phase_seconds": {}}, {"nope": 1}, 0.25)


class TestLiveProgress:
    def test_prints_per_column_lines(self):
        cfg = _cfg()
        out = io.StringIO()
        rep = LiveProgressReporter(cfg, stream=out)
        for k in range(cfg.num_blocks):
            rep.append({"k": k, "panel": 0.01, "gemm": 0.02, "recv": 0.005})
        text = out.getvalue()
        assert len(rep) == cfg.num_blocks
        assert text.count("\n") == cfg.num_blocks
        assert f"[k {cfg.num_blocks}/{cfg.num_blocks}]" in text
        assert "GF/s/GCD" in text and "s total" in text

    def test_every_throttles_but_last_column_always_prints(self):
        cfg = _cfg()
        out = io.StringIO()
        rep = LiveProgressReporter(cfg, stream=out, every=cfg.num_blocks)
        for k in range(cfg.num_blocks):
            rep.append({"k": k, "panel": 0.01, "gemm": 0.02, "recv": 0.0})
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert f"[k {cfg.num_blocks}/{cfg.num_blocks}]" in lines[0]

    def test_projection_matches_perfect_model(self):
        cfg = _cfg()
        rep = LiveProgressReporter(cfg, stream=io.StringIO())
        assert rep.projected_total() is None  # nothing appended yet
        expected = rep._expected_step_times(cfg)
        assert len(expected) == cfg.num_blocks
        # feed the model's own times back: projection = model total
        rep.append({"k": 0, "panel": expected[0], "gemm": 0.0, "recv": 0.0})
        assert rep.projected_total() == pytest.approx(sum(expected))

    def test_malformed_record_never_raises(self):
        rep = LiveProgressReporter(_cfg(), stream=io.StringIO())
        rep.append({"k": "garbage", "panel": None})
        assert len(rep) == 1

    def test_warmup_columns_excluded_from_calibration(self):
        cfg = _cfg()
        rep = LiveProgressReporter(cfg, stream=io.StringIO(), warmup=2)
        expected = rep._expected_step_times(cfg)
        # Two pathological warm-up columns (10x the model), then
        # model-perfect columns: once past the warm-up window the
        # projection must calibrate on the clean steps only.
        for k in range(4):
            factor = 10.0 if k < 2 else 1.0
            rep.append({"k": k, "panel": factor * expected[k],
                        "gemm": 0.0, "recv": 0.0})
        measured_so_far = (
            10.0 * (expected[0] + expected[1]) + expected[2] + expected[3]
        )
        # ratio over steps 2..3 is exactly 1.0, so the projection is
        # elapsed + remaining model time — the warm-up spike does not
        # multiply the remaining-time estimate
        assert rep.projected_total() == pytest.approx(
            measured_so_far + sum(expected[4:])
        )

    def test_near_zero_model_divisor_yields_none(self):
        cfg = _cfg()
        rep = LiveProgressReporter(cfg, stream=io.StringIO())
        rep._expected = [0.0] * cfg.num_blocks  # degenerate model
        rep.append({"k": 0, "panel": 0.01, "gemm": 0.0, "recv": 0.0})
        assert rep.projected_total() is None

    def test_first_column_projection_is_stable(self):
        # Regression: the projection on the very first panel column used
        # to divide by a near-zero modelled prefix and swing wildly; it
        # must stay within an order of magnitude of the model total.
        cfg = _cfg()
        rep = LiveProgressReporter(cfg, stream=io.StringIO())
        expected = rep._expected_step_times(cfg)
        rep.append({"k": 0, "panel": 3.0 * expected[0],
                    "gemm": 0.0, "recv": 0.0})
        proj = rep.projected_total()
        assert proj is not None
        assert proj <= 10 * sum(expected)

    def test_step_flops_positive_and_decreasing(self):
        cfg = _cfg()
        series = [
            step_flops(cfg.n, cfg.block, cfg.num_ranks, k)
            for k in range(cfg.num_blocks)
        ]
        assert all(f > 0 for f in series)
        assert series == sorted(series, reverse=True)


class TestFilterSpans:
    def _tracer(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 1.0, 2.0, rank=1)
        tr.add("xfer", "comm", 0.0, 1.0, rank=0, attrs={"dst": 1})
        tr.add("gemm", "executor", 0.0, 1.0, rank=0)
        return tr

    def test_category_and_rank_filters(self):
        tr = self._tracer()
        assert all(
            s.cat == "comm" for s in filter_spans(tr, cats=["comm"])
        )
        assert all(s.rank == 0 for s in filter_spans(tr, ranks=[0]))
        assert len(filter_spans(tr, cats=["executor"], ranks=[0])) == 1

    def test_sort_is_canonical_and_deterministic(self):
        got = filter_spans(self._tracer(), sort=True)
        keys = [(s.start, s.end, s.rank, s.cat, s.name) for s in got]
        assert keys == sorted(keys)


class TestProfileCli:
    @pytest.fixture(scope="class")
    def trace_path(self, observed, tmp_path_factory):
        _cfg_, obs, _res = observed
        path = tmp_path_factory.mktemp("profile") / "trace.json"
        obs.export_chrome_trace(path)
        return path

    def test_text_report(self, trace_path, capsys):
        assert main(["profile", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "comm matrix" in out
        assert "model vs measured" in out

    def test_json_report_lints_clean(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        rc = main(["profile", str(trace_path), "--format", "json",
                   "--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.obs.profile/v1"
        capsys.readouterr()
        assert main(["lint", str(out_path), "--select",
                     "profile-schema"]) == 0

    def test_against_self_passes(self, trace_path, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["profile", str(trace_path), "--format", "json",
                     "--out", str(base)]) == 0
        rc = main(["profile", str(trace_path), "--against", str(base)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all stages within budget" in out

    def test_against_tighter_baseline_fails(self, trace_path, tmp_path,
                                            capsys):
        base = tmp_path / "base.json"
        assert main(["profile", str(trace_path), "--format", "json",
                     "--out", str(base)]) == 0
        doc = json.loads(base.read_text())
        doc["phase_seconds"] = {
            k: v / 100.0 for k, v in doc["phase_seconds"].items()
        }
        doc["elapsed_s"] /= 100.0
        base.write_text(json.dumps(doc))
        rc = main(["profile", str(trace_path), "--against", str(base)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_max_dev_without_model_is_an_error(self, trace_path, capsys):
        rc = main(["profile", str(trace_path), "--no-model",
                   "--max-dev", "0.5"])
        assert rc == 2
        assert "no model comparison" in capsys.readouterr().out

    def test_max_dev_gate_trips_on_tiny_budget(self, trace_path, capsys):
        rc = main(["profile", str(trace_path), "--max-dev", "1e-9"])
        assert rc == 1
        assert "deviates" in capsys.readouterr().out

    def test_csv_format(self, trace_path, capsys):
        assert main(["profile", str(trace_path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("section,name,value")


class TestTraceCliFilters:
    def test_filtered_export_is_sorted_and_narrow(self, tmp_path, capsys):
        out_path = tmp_path / "comm.json"
        rc = main(["trace", "--machine", "frontier", "-p", "2",
                   "--nl", "128", "-b", "32", "--out", str(out_path),
                   "--category", "comm", "--rank", "0", "--rank", "1"])
        assert rc == 0
        assert "after --category/--rank filters" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs
        assert {e["cat"] for e in xs} == {"comm"}
        assert {e["tid"] for e in xs} <= {0, 1}
        ts = [e["ts"] for e in xs]
        assert ts == sorted(ts)
