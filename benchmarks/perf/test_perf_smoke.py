"""Smoke test of the benchmark itself.

Run with ``pytest benchmarks/perf -q`` (about two minutes; tier-1's
``testpaths`` does not collect it).  It runs the real command in
``--quick`` mode — one launch of one round per workload, same op sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as perf  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*argv):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    document = json.loads((perf.RESULTS / "latest.json").read_text()) if proc.returncode < 2 else {}
    return proc, document


@pytest.fixture(scope="module")
def quick():
    proc, document = run_benchmark("--quick", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, document


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(perf.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in perf.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER]
    assert BENCHMARK["paths"] == [str(HERE.relative_to(ROOT))]


def test_every_workload_reports_every_end_to_end_metric(quick):
    proc, document = quick
    assert set(document["workloads"]) == set(perf.WORKLOADS)
    for name, entry in document["workloads"].items():
        for metric, unit, _better in perf.END_TO_END:
            assert entry["metrics"][metric]["unit"] == unit
            assert entry["metrics"][metric]["value"] > 0
            assert metric in proc.stdout
        assert entry["failed_frac"] == 0 and entry["attempted"] > 0, entry["failures"]
        assert len(entry["sim_digest"]) == len(entry["inputs_sha256"]) == 64
    assert document["provenance"]["nproc"] and document["provenance"]["code_version"]


def test_seed_generates_the_inputs(quick):
    _proc, document = quick
    proc, other = run_benchmark("--workload", "exact_solve", "--quick", "--trace", "0",
                                "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    entry = other["workloads"]["exact_solve"]
    assert entry["failed_frac"] == 0
    assert entry["inputs_sha256"] != document["workloads"]["exact_solve"]["inputs_sha256"]
    # The contract line: the last line of stdout is one JSON object.
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m[0] for m in perf.END_TO_END}


def test_broken_output_check_exits_non_zero(quick):
    _proc, document = quick
    proc, broken = run_benchmark("--workload", "des_phantom", "--quick", "--trace", "0",
                                 "--inject-failure")
    assert proc.returncode == 1
    entry = broken["workloads"]["des_phantom"]
    assert entry["failed"] > 0 and "FAILED" in proc.stdout
    # Same seed, same inputs: the injected failure corrupts a check, not an input.
    assert entry["inputs_sha256"] == document["workloads"]["des_phantom"]["inputs_sha256"]


def test_traced_pass_reports_every_per_layer_metric():
    proc, document = run_benchmark("--workload", "des_phantom", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    traced = document["workloads"]["des_phantom"]["per_layer"]
    assert list(traced["metrics"]) == [m[0] for m in layers.PER_LAYER]
    assert traced["metrics"]["simulate.engine_run.count"]["value"] == 2
    assert traced["metrics"]["bench.span_coverage_frac"]["value"] >= 0.9
    assert traced["metrics"]["obs.spans"]["value"] == 0
    assert traced["missing"] == []
    assert (perf.RESULTS / "trace_des_phantom.json").exists()


def test_unresolved_entry_point_is_missing_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "TABLE", layers.TABLE + (("repro.no_such:thing", "x.y", None),))
    sys.path.insert(0, str(ROOT / "src"))
    recorder = layers.install()
    try:
        assert recorder.missing == ["repro.no_such:thing"]
    finally:
        recorder.uninstall()


def test_compare_verdicts(quick, tmp_path):
    _proc, document = quick
    a = tmp_path / "a.json"
    a.write_text(json.dumps(document))
    assert perf.compare(str(a), str(a)) == 0
    document["workloads"]["des_phantom"]["metrics"]["wall_s"]["value"] *= 1.5
    b = tmp_path / "b.json"
    b.write_text(json.dumps(document))
    assert perf.compare(str(a), str(b)) == 1
    assert perf.compare(str(b), str(a)) == 0
