"""Tests for the self-contained HTML dashboard and the health report."""

import json

import pytest

from repro.analyze.checkers.schemas import check_health_report
from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.machine import get_machine
from repro.obs import Observability
from repro.obs.analysis import from_observability
from repro.obs.export import dumps_strict
from repro.obs.health import (
    HEALTH_SCHEMA,
    HealthMonitor,
    render_dashboard,
    validate_self_contained,
)


def _cfg(**kwargs):
    defaults = dict(
        n=512, block=64, machine=get_machine("frontier"), p_rows=2, p_cols=2
    )
    defaults.update(kwargs)
    return BenchmarkConfig(**defaults)


def _monitored(slow_rank=None):
    cfg = _cfg()
    obs = Observability(health=HealthMonitor())
    mult = None
    if slow_rank is not None:
        mult = [1.0] * cfg.num_ranks
        mult[slow_rank] = 1.0 / 1.5
    res = simulate_run(cfg, rate_multipliers=mult, obs=obs)
    return cfg, obs, res


class TestHealthReport:
    def test_schema_and_roundtrip(self):
        _cfg_, _obs, res = _monitored(slow_rank=1)
        doc = json.loads(dumps_strict(res.health.to_dict()))
        assert doc["schema"] == HEALTH_SCHEMA
        assert doc["num_ranks"] == 4
        assert doc["degraded_ranks"] == [1]
        assert doc["watchdog"]["tripped"] is False
        assert doc["collectives"] > 0
        assert "busy_s/rank0" in doc["series"]
        # the document validates against its own checker
        assert check_health_report(doc) == []

    def test_render_text_mentions_findings(self):
        _cfg_, _obs, res = _monitored(slow_rank=1)
        text = res.health.render_text()
        assert "straggler_drift" in text
        assert "rank" in text

    def test_clean_report_is_healthy(self):
        _cfg_, _obs, res = _monitored()
        assert res.health.healthy
        assert "healthy" in res.health.render_text()

    def test_checker_rejects_malformed_docs(self):
        assert check_health_report([]) != []
        assert check_health_report({"schema": "nope"}) != []
        _cfg_, _obs, res = _monitored(slow_rank=1)
        doc = res.health.to_dict()
        doc["degraded_ranks"] = [3]  # inconsistent with findings
        assert any("degraded_ranks" in p for p in check_health_report(doc))


class TestDashboard:
    def test_renders_all_panels_self_contained(self):
        _cfg_, obs, res = _monitored(slow_rank=1)
        html = render_dashboard(
            from_observability(obs), res.health.to_dict(), title="t"
        )
        assert validate_self_contained(html) == []
        for marker in (
            "<!DOCTYPE html>", "Per-rank timeline",
            "Communication heatmap", "Health time series", "Findings",
            "straggler_drift", "<svg", "polyline",
        ):
            assert marker in html, marker
        # every rank got a timeline row
        for r in range(4):
            assert f"rank {r}" in html

    def test_renders_without_health_doc(self):
        _cfg_, obs, _res = _monitored()
        html = render_dashboard(from_observability(obs), None)
        assert validate_self_contained(html) == []
        assert "no health findings" in html

    def test_validator_catches_external_references(self):
        bad = '<html><script src="https://cdn.example.com/x.js"></script>'
        problems = validate_self_contained(bad)
        assert len(problems) >= 2  # https:// and <script src
        assert validate_self_contained("<html>clean</html>") == []

    def test_titles_are_escaped(self):
        _cfg_, obs, _res = _monitored()
        html = render_dashboard(
            from_observability(obs), None, title="<img onerror=x>"
        )
        assert "<img onerror" not in html
        assert "&lt;img" in html
