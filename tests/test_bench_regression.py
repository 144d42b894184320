"""Tests for the hotpaths regression gate (repro.bench.regression) and
the bench record's relocated default path."""

import json

import pytest

from repro.bench.hotpaths import DEFAULT_OUT, LEGACY_OUT, SCHEMA, load_record
from repro.bench.regression import (
    MIN_GATE_SECONDS,
    compare_records,
    render_regressions,
    stage_seconds,
)
from repro.errors import ConfigurationError


def _record(stage_times, **config):
    cfg = dict(n=256, block=32, grid=2, machine="summit", seed=42)
    cfg.update(config)
    return {
        "schema": SCHEMA,
        "config": cfg,
        "results": [
            {"stage": stage, "reps": 2, "min_s": t, "mean_s": t, "max_s": t}
            for stage, t in stage_times.items()
        ],
    }


class TestStageSeconds:
    def test_extracts_min_s(self):
        rec = _record({"panel_factor": 0.5, "trailing_update": 1.5})
        assert stage_seconds(rec) == {
            "panel_factor": 0.5, "trailing_update": 1.5,
        }

    def test_rejects_non_record(self):
        with pytest.raises(ConfigurationError):
            stage_seconds({"schema": SCHEMA})

    def test_truncated_record_rejected(self):
        # A crash mid-write used to leave rows without 'min_s'; the old
        # coercion to 0.0 made every stage look infinitely faster and the
        # gate silently passed.  Malformed rows must be an error instead.
        rec = _record({"panel_factor": 0.5})
        del rec["results"][0]["min_s"]
        with pytest.raises(ConfigurationError, match="min_s"):
            stage_seconds(rec)

    def test_non_numeric_min_s_rejected(self):
        rec = _record({"panel_factor": 0.5})
        rec["results"][0]["min_s"] = "fast"
        with pytest.raises(ConfigurationError, match="min_s"):
            stage_seconds(rec)


class TestCompareRecords:
    def test_within_budget_passes(self):
        cur = _record({"panel_factor": 0.55})
        base = _record({"panel_factor": 0.5})
        deltas = compare_records(cur, base, max_regress=0.25)
        assert not any(d.regressed for d in deltas)

    def test_regression_detected(self):
        cur = _record({"panel_factor": 1.0})
        base = _record({"panel_factor": 0.5})
        (d,) = compare_records(cur, base, max_regress=0.25)
        assert d.regressed and d.delta == pytest.approx(1.0)

    def test_sub_millisecond_stages_are_noise_exempt(self):
        cur = _record({"tiny": MIN_GATE_SECONDS / 10})
        base = _record({"tiny": MIN_GATE_SECONDS / 100})
        (d,) = compare_records(cur, base, max_regress=0.25)
        assert not d.regressed

    def test_different_shapes_refused(self):
        cur = _record({"panel_factor": 1.0}, n=512)
        base = _record({"panel_factor": 1.0}, n=256)
        with pytest.raises(ConfigurationError):
            compare_records(cur, base)


class TestRenderRegressions:
    def test_verdict_column(self):
        deltas = compare_records(
            _record({"slow": 1.0, "ok": 0.5}),
            _record({"slow": 0.5, "ok": 0.5}),
            max_regress=0.25,
        )
        text = render_regressions(deltas, 0.25)
        assert "1 stage(s) FAILED" in text
        assert "FAIL" in text

    def test_clean_gate_summary(self):
        deltas = compare_records(
            _record({"ok": 0.5}), _record({"ok": 0.5})
        )
        assert "all stages within budget" in render_regressions(deltas, 0.25)


class TestLoadRecord:
    def test_reads_default_location(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / DEFAULT_OUT
        p.parent.mkdir(parents=True)
        p.write_text(json.dumps(_record({"a": 1.0})))
        rec = load_record()
        assert rec is not None and rec["schema"] == SCHEMA

    def test_falls_back_to_legacy_root_record(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / LEGACY_OUT).write_text(json.dumps(_record({"a": 1.0})))
        rec = load_record()
        assert rec is not None and rec["schema"] == SCHEMA

    def test_explicit_path_has_no_fallback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / LEGACY_OUT).write_text(json.dumps(_record({"a": 1.0})))
        assert load_record(str(tmp_path / "elsewhere.json")) is None

    def test_wrong_schema_ignored(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / DEFAULT_OUT
        p.parent.mkdir(parents=True)
        p.write_text(json.dumps({"schema": "something/else"}))
        assert load_record() is None

    def test_missing_record_is_none(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert load_record() is None

    def test_cli_help_names_the_default_record(self, capsys):
        # the parser states the default without importing the harness
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "hotpaths", "--help"])
        assert DEFAULT_OUT in capsys.readouterr().out
