"""Tests for run-report serialization."""

import json

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run, solve_hplai
from repro.core.report import (
    compare_reports,
    load_report,
    load_trace_csv,
    run_report,
    save_report,
    save_trace_csv,
)
from repro.errors import ConfigurationError
from repro.machine import FRONTIER
from repro.model.perf_model import estimate_run


@pytest.fixture(scope="module")
def phantom_result():
    cfg = BenchmarkConfig(
        n=3072 * 8, block=3072, machine=FRONTIER, p_rows=2, p_cols=2
    )
    return simulate_run(cfg)


class TestRunReport:
    def test_event_report_fields(self, phantom_result):
        rep = run_report(phantom_result)
        assert rep["kind"] == "event"
        assert rep["config"]["machine"] == "frontier"
        assert rep["gflops_per_gcd"] > 0
        assert "gemm" in rep["components"]
        assert rep["bytes_sent_total"] > 0
        assert rep["engine_events"] == phantom_result.engine_events
        assert rep["engine_transfers"] == phantom_result.engine_transfers > 0

    def test_exact_report_has_residual(self):
        res = solve_hplai(n=64, block=16, p_rows=2, p_cols=2)
        rep = run_report(res)
        assert rep["kind"] == "exact"
        assert rep["residual_norm"] < 1e-12

    def test_analytic_report(self):
        cfg = BenchmarkConfig(
            n=3072 * 8, block=3072, machine=FRONTIER, p_rows=2, p_cols=2
        )
        rep = run_report(estimate_run(cfg))
        assert rep["kind"] == "analytic"
        assert "breakdown_s" in rep

    def test_json_roundtrip(self, phantom_result, tmp_path):
        path = save_report(phantom_result, tmp_path / "run.json")
        loaded = load_report(path)
        assert loaded == json.loads(path.read_text())
        assert loaded["elapsed_s"] == pytest.approx(phantom_result.elapsed)

    def test_nan_residual_serializes_as_null(self, phantom_result, tmp_path):
        """Phantom runs carry a NaN residual; the report must still be
        strict JSON (NaN is not valid JSON and breaks json.loads in
        strict parsers)."""
        import math

        assert math.isnan(phantom_result.residual_norm)
        path = save_report(phantom_result, tmp_path / "run.json")
        text = path.read_text()
        assert "NaN" not in text
        loaded = json.loads(
            text, parse_constant=lambda s: pytest.fail(f"bare {s} token")
        )
        assert loaded["residual_norm"] is None


class TestTraceCsv:
    def test_roundtrip(self, phantom_result, tmp_path):
        path = save_trace_csv(phantom_result, tmp_path / "trace.csv")
        back = load_trace_csv(path)
        assert len(back) == len(phantom_result.trace)
        assert back[0]["k"] == phantom_result.trace[0]["k"]
        assert back[3]["gemm"] == pytest.approx(phantom_result.trace[3]["gemm"])

    def test_rejects_traceless(self, tmp_path):
        cfg = BenchmarkConfig(
            n=3072 * 4, block=3072, machine=FRONTIER, p_rows=1, p_cols=1
        )
        ana = estimate_run(cfg)
        with pytest.raises(ConfigurationError):
            save_trace_csv(ana, tmp_path / "x.csv")


class TestCompare:
    def test_detects_slowdown(self, phantom_result):
        base = run_report(phantom_result)
        slow = dict(base)
        slow["elapsed_s"] = base["elapsed_s"] * 1.3
        diff = compare_reports(base, slow)
        assert diff["elapsed_change"] == pytest.approx(0.3)

    def test_nan_on_missing(self):
        import math

        diff = compare_reports({}, {"elapsed_s": 1.0})
        assert math.isnan(diff["elapsed_change"])
