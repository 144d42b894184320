"""Tests for the declarative scenario DSL and its JSON round-trip."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    SCENARIO_SCHEMA,
    ContentionWindow,
    GlobalSpeed,
    Limplock,
    LinkJitter,
    RankCrash,
    RateMultipliers,
    Scenario,
    SlowGcds,
    SlowRank,
    ThermalThrottle,
    Warmup,
    injection_from_dict,
)


def _kitchen_sink() -> Scenario:
    """One scenario exercising every injection kind."""
    return Scenario(
        name="kitchen-sink",
        description="every kind once",
        injections=(
            SlowGcds(seed=7, sigma=0.01, slow_fraction=0.05,
                     slow_penalty=0.04),
            SlowRank(rank=2, factor=1.5),
            Limplock(rank=3, factor=4.0, onset_frac=0.25),
            RankCrash(rank=1, at_s=0.5, restart_delay_s=0.1, regen_s=0.05),
            LinkJitter(amplitude_s=2e-5, seed=11),
            ContentionWindow(t0_s=0.1, t1_s=0.3, bw_factor=2.5),
            ThermalThrottle(floor=0.9, tau_s=5.0, onset_frac=0.5),
            Warmup(style="summit", run_index=0),
            GlobalSpeed(factor=0.95),
            RateMultipliers(values=(1.0, 0.9, 1.0, 1.0)),
        ),
    )


class TestRoundTrip:
    def test_json_round_trip_lossless(self):
        sc = _kitchen_sink()
        assert Scenario.from_json(sc.to_json()) == sc

    def test_dict_round_trip_lossless(self):
        sc = _kitchen_sink()
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_document_carries_schema_tag(self):
        doc = _kitchen_sink().to_dict()
        assert doc["schema"] == SCENARIO_SCHEMA
        assert len(doc["injections"]) == 10
        assert all("kind" in inj for inj in doc["injections"])

    def test_save_load_file(self, tmp_path):
        sc = _kitchen_sink()
        path = tmp_path / "sc.json"
        sc.save(path)
        assert Scenario.load(path) == sc
        # the on-disk document is strict, indented JSON
        doc = json.loads(path.read_text())
        assert doc["name"] == "kitchen-sink"

    def test_shipped_examples_parse(self):
        from pathlib import Path

        folder = Path(__file__).parent.parent / "examples" / "scenarios"
        files = sorted(folder.glob("*.json"))
        assert len(files) >= 3
        for f in files:
            sc = Scenario.load(f)
            assert sc.injections
            assert Scenario.from_json(sc.to_json()) == sc


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown injection kind"):
            injection_from_dict({"kind": "meteor_strike"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            injection_from_dict({"kind": "slow_rank", "rank": 0, "speed": 2})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            Scenario.from_dict({"schema": "repro.scenario/v99",
                                "injections": []})

    def test_bad_json_text_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            Scenario.from_json("{nope")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            Scenario.load(tmp_path / "absent.json")

    def test_factor_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            SlowRank(rank=0, factor=0.0).validate()

    def test_negative_rank_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            SlowRank(rank=-1).validate()

    def test_scenario_constructor_validates_injections(self):
        with pytest.raises(ConfigurationError, match="positive"):
            Scenario(injections=(SlowRank(rank=0, factor=-1.0),))

    def test_time_pair_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            Limplock(rank=0, onset_s=1.0, onset_frac=0.5).validate()

    def test_frac_bounds(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            Limplock(rank=0, onset_frac=1.5).validate()

    def test_crash_requires_a_time(self):
        with pytest.raises(ConfigurationError, match="required"):
            RankCrash(rank=0).validate()

    def test_contention_window_ordering(self):
        with pytest.raises(ConfigurationError, match="t1 > t0"):
            ContentionWindow(t0_s=0.5, t1_s=0.2, bw_factor=2.0).validate()

    def test_contention_must_slow_not_speed(self):
        with pytest.raises(ConfigurationError, match="bw_factor"):
            ContentionWindow(t0_s=0.0, t1_s=1.0, bw_factor=0.5).validate()

    def test_rate_multipliers_positivity(self):
        with pytest.raises(ConfigurationError, match="positive"):
            RateMultipliers(values=(1.0, 0.0)).validate()

    def test_rank_bounds_checked_against_world(self):
        sc = Scenario(injections=(SlowRank(rank=7, factor=2.0),))
        with pytest.raises(ConfigurationError, match="outside"):
            sc.validate_for(4)

    def test_rate_multiplier_shape_checked_against_world(self):
        sc = Scenario(injections=(RateMultipliers(values=(1.0, 1.0)),))
        with pytest.raises(ConfigurationError, match="2 entries"):
            sc.validate_for(4)

    def test_warmup_style_checked(self):
        with pytest.raises(ConfigurationError, match="style"):
            Warmup(style="aurora").validate()


class TestSugarAndIntrospection:
    def test_single_slow_rank_sugar(self):
        sc = Scenario.single_slow_rank(3, 2.0)
        assert len(sc.injections) == 1
        inj = sc.injections[0]
        assert isinstance(inj, SlowRank)
        assert inj.rank == 3 and inj.factor == 2.0

    def test_from_legacy_builds_adapter_injections(self):
        sc = Scenario.from_legacy(rate_multipliers=[1.0, 0.5],
                                  global_speed=0.8)
        kinds = sorted(i.kind for i in sc.injections)
        assert kinds == ["global_speed", "rate_multipliers"]

    def test_from_legacy_empty_is_clean(self):
        assert Scenario.from_legacy().injections == ()

    def test_from_legacy_rejects_nonpositive_rates(self):
        with pytest.raises(ConfigurationError, match="positive"):
            Scenario.from_legacy(rate_multipliers=[1.0, -0.5])

    def test_degraded_ranks(self):
        sc = _kitchen_sink()
        assert sc.degraded_ranks == [1, 2, 3]

    def test_of_kind(self):
        sc = _kitchen_sink()
        assert len(sc.of_kind("limplock")) == 1
        assert sc.of_kind("nonexistent") == []

    def test_describe_names_faults(self):
        text = _kitchen_sink().describe()
        assert "limplock rank 3" in text
        assert "crash rank 1" in text


class TestScenarioChecker:
    def test_valid_document_clean(self):
        from repro.analyze.checkers.schemas import check_scenario

        assert check_scenario(_kitchen_sink().to_dict()) == []

    def test_problems_reported_per_injection(self):
        from repro.analyze.checkers.schemas import check_scenario

        doc = {
            "schema": SCENARIO_SCHEMA,
            "injections": [
                {"kind": "bogus"},
                {"kind": "slow_rank", "rank": 0, "factor": -1.0},
            ],
        }
        problems = check_scenario(doc)
        assert len(problems) == 2
        assert "injections[0]" in problems[0]
        assert "injections[1]" in problems[1]

    def test_empty_injections_flagged(self):
        from repro.analyze.checkers.schemas import check_scenario

        problems = check_scenario({"schema": SCENARIO_SCHEMA,
                                   "injections": []})
        assert any("does nothing" in p for p in problems)

    def test_checker_registered_in_suite(self):
        from repro.analyze.checkers import all_checkers
        from repro.analyze.framework import members

        ids = {m.id for c in all_checkers() for m in members(c)}
        assert "scenario-schema" in ids

    def test_lint_cli_validates_scenario_file(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.json"
        good.write_text(_kitchen_sink().to_json())
        assert main(["lint", str(good), "--select", "scenario-schema",
                     "--no-baseline"]) == 0

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": SCENARIO_SCHEMA,
            "injections": [{"kind": "bogus"}],
        }))
        assert main(["lint", str(bad), "--select", "scenario-schema",
                     "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "scenario-schema" in out

    def test_trace_schema_skips_scenario_documents(self, tmp_path):
        """A scenario file must not be flagged as a malformed trace."""
        from repro.cli import main

        path = tmp_path / "sc.json"
        path.write_text(_kitchen_sink().to_json())
        assert main(["lint", str(path), "--select", "trace-schema",
                     "--no-baseline"]) == 0
