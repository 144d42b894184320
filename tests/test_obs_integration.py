"""End-to-end observability: instrumented runs, context handle, CLI,
and the trace-schema lint."""

import json

import pytest

from repro.analyze.checkers.trace_schema import check_trace
from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.machine import get_machine
from repro.obs import Observability, current, set_current, use


def _cfg(**kwargs):
    defaults = dict(
        n=512, block=64, machine=get_machine("frontier"), p_rows=2, p_cols=2
    )
    defaults.update(kwargs)
    return BenchmarkConfig(**defaults)


@pytest.fixture()
def observed():
    obs = Observability()
    res = simulate_run(_cfg(), obs=obs)
    return obs, res


class TestContext:
    def test_default_is_disabled_noop(self):
        assert current().enabled is False

    def test_use_restores(self):
        obs = Observability()
        with use(obs):
            assert current() is obs
        assert current().enabled is False

    def test_set_current_none_restores_default(self):
        obs = Observability()
        prev = set_current(obs)
        try:
            assert current() is obs
        finally:
            set_current(prev)
        assert current().enabled is False


class TestInstrumentedRun:
    def test_spans_cover_all_layers(self, observed):
        obs, _res = observed
        cats = obs.tracer.categories()
        for layer in ("engine", "executor", "comm", "driver"):
            assert cats.get(layer, 0) > 0, f"no spans from {layer}"

    def test_span_times_within_run(self, observed):
        obs, res = observed
        for s in obs.tracer:
            assert s.end >= s.start >= 0.0

    def test_metrics_populated(self, observed):
        obs, res = observed
        m = obs.metrics
        assert m.gauge("run.elapsed_s").value == pytest.approx(res.elapsed)
        total_bytes = (
            m.counter("comm.bytes_sent", scope="intra").value
            + m.counter("comm.bytes_sent", scope="inter").value
        )
        assert total_bytes == pytest.approx(
            sum(st.bytes_sent for st in res.stats), rel=0.01
        )
        assert m.histogram("driver.iteration_s").count == len(res.trace)
        assert m.counter("comm.bcast_bytes", algorithm="bcast").value > 0

    def test_provenance_stamped(self, observed):
        obs, res = observed
        assert res.provenance["machine"] == "frontier"
        assert obs.provenance == res.provenance

    def test_disabled_run_records_nothing(self):
        obs = Observability.disabled()
        res = simulate_run(_cfg(), obs=obs)
        assert len(obs.tracer) == 0
        assert len(obs.metrics) == 0
        assert res.provenance is not None  # provenance is always stamped

    def test_engine_waits_match_stats(self, observed):
        """Span stream and legacy RankStats agree on wait accounting."""
        obs, res = observed
        span_wait = sum(
            s.duration for s in obs.tracer
            if s.cat == "engine" and s.name.startswith("wait_")
        )
        stat_wait = sum(st.total_wait for st in res.stats)
        # comm_post/BlockUntil waits are also engine spans; allow slack
        assert span_wait == pytest.approx(stat_wait, rel=0.05)

    def test_gantt_adapter_from_instrumented_run(self, observed):
        from repro.simulate.timeline import render_gantt

        obs, _res = observed
        out = render_gantt(
            obs.tracer.as_timeline(cats=["executor", "engine"]), width=40
        )
        assert "r0" in out and "legend:" in out


class TestChromeTraceSchema:
    def test_exported_trace_validates(self, observed, tmp_path):
        obs, _res = observed
        path = obs.export_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert check_trace(doc, require_layers=True) == []

    def test_lint_catches_missing_layers(self):
        doc = {
            "traceEvents": [
                {"name": "a", "cat": "executor", "ph": "X", "ts": 0,
                 "dur": 1, "pid": 0, "tid": 0},
            ],
            "otherData": {"schema": 1},
        }
        problems = check_trace(doc, require_layers=True)
        assert any("engine" in p and "comm" in p for p in problems)

    def test_lint_catches_bad_events(self):
        doc = {
            "traceEvents": [
                {"name": "a", "cat": "x", "ph": "X", "ts": -5, "dur": 1,
                 "pid": 0, "tid": 0},
                {"name": "b", "ph": "Z", "pid": 0, "tid": 0},
            ],
            "otherData": {"schema": 1},
        }
        problems = check_trace(doc)
        assert any("'ts'" in p for p in problems)
        assert any("'Z'" in p for p in problems)


class TestReportIntegration:
    def test_report_carries_provenance_and_metrics(self, observed, tmp_path):
        from repro.core.report import run_report, save_report

        obs, res = observed
        rep = run_report(res, obs=obs)
        assert rep["provenance"]["config"]["machine"] == "frontier"
        assert "run.elapsed_s" in rep["metrics"]
        path = save_report(res, tmp_path / "r.json", obs=obs)
        loaded = json.loads(
            path.read_text(),
            parse_constant=lambda s: pytest.fail(f"bare {s} token"),
        )
        assert loaded["provenance"]["seed"] == res.config.seed


class TestCli:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "t.json"
        jsonl = tmp_path / "s.jsonl"
        rc = main([
            "trace", "--machine", "frontier", "-p", "2", "--nl", "256",
            "-b", "64", "--out", str(out_json), "--jsonl", str(jsonl),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans" in out and "perfetto" in out
        assert f"span columns -> {out_json}.spans.npz" in out
        doc = json.loads(out_json.read_text())
        assert check_trace(doc, require_layers=True) == []
        assert jsonl.exists()

    def test_metrics_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "--machine", "summit", "-p", "2",
                   "--nl", "128", "-b", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "executor.gemm_gflops" in out
        assert "run.elapsed_s" in out

    def test_metrics_prom_dump(self, capsys):
        from repro.cli import main

        rc = main(["metrics", "--machine", "summit", "-p", "2",
                   "--nl", "128", "-b", "32", "--prom"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE run_elapsed_s gauge" in out

    def test_trace_bounded_spans(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "t.json"
        rc = main([
            "trace", "--machine", "frontier", "-p", "2", "--nl", "256",
            "-b", "64", "--out", str(out_json), "--max-spans", "50",
        ])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 50
        assert doc["otherData"]["dropped_spans"] > 0
