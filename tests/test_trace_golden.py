"""Golden pins of the span pipeline's three artefacts.

The digests in ``fixtures/trace_golden.json`` were generated on the
commit *before* the tracer became a columnar store (run this file as a
script against that commit's ``src``), when every span was a
:class:`~repro.obs.tracer.Span` object in a deque, the Chrome exporter
built and sanitised a whole document tree, and the profile walked span
objects.  They are sha256 of the canonically sorted Chrome trace, the
sorted JSONL span log and the ``repro.obs.profile/v1`` document (built
from the exported file and from the live tracer), so one reordered
event, one float formatted differently or one reassociated sum fails
here.  The profile of the exported file is built twice — from its
``.spans.npz`` companion, then from the view's parse once the
companion is deleted — and both must equal the one digest.

Both runs export with a fixed ``provenance=`` block: the automatic one
carries hostname, timestamp and argv.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.machine import get_machine
from repro.obs import Observability
from repro.obs.analysis import build_profile, from_observability, load_profile_input, loaders
from repro.obs.export import spans_companion
from repro.obs.health import HealthMonitor
from repro.scenario import Scenario

GOLDEN = Path(__file__).parent / "fixtures" / "trace_golden.json"

#: provenance keys that do not vary with host, clock or command line
_STABLE_PROVENANCE = (
    "schema", "package", "config", "machine", "seed", "panel_precision",
    "refinement_solver",
)

SCENARIO = {
    "schema": "repro.scenario/v1",
    "name": "golden-limplock-jitter",
    "injections": [
        {"kind": "limplock", "rank": 5, "factor": 6.0, "onset_frac": 0.2},
        {"kind": "link_jitter", "amplitude_s": 2e-05, "seed": 20221113},
    ],
}

CASES = {
    "static-3x3-bcast": dict(p=3, n=1536, block=128, bcast="bcast"),
    "scenario-4x4-ring2m": dict(p=4, n=4096, block=512, bcast="ring2m"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _profile_digest(pi) -> str:
    return _sha256(json.dumps(build_profile(pi).to_dict(), sort_keys=True))


def record(case: str) -> dict:
    """Run one case and digest everything the span pipeline produces."""
    spec = CASES[case]
    cfg = BenchmarkConfig(
        n=spec["n"], block=spec["block"], machine=get_machine("summit"),
        p_rows=spec["p"], p_cols=spec["p"], bcast_algorithm=spec["bcast"],
        seed=2022,
    )
    if case.startswith("scenario"):
        obs = Observability(health=HealthMonitor())
        simulate_run(cfg, scenario=Scenario.from_dict(SCENARIO), obs=obs)
    else:
        obs = Observability()
        simulate_run(cfg, obs=obs)
    provenance = {
        k: obs.provenance[k] for k in _STABLE_PROVENANCE if k in obs.provenance
    }
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths: the profile document records its source path
        os.chdir(tmp)
        try:
            obs.export_chrome_trace("trace.json", sort=True, provenance=provenance)
            obs.export_jsonl("spans.jsonl", sort=True)
            # the first load must come from the span-columns companion ...
            with mock.patch.object(loaders, "_fill_from_chrome",
                                   side_effect=AssertionError("the view was parsed")):
                from_columns = _profile_digest(load_profile_input("trace.json"))
            # ... and the parse of the view must agree with it
            spans_companion("trace.json").unlink()
            out = {
                "chrome_trace": _sha256(Path("trace.json").read_text()),
                "jsonl": _sha256(Path("spans.jsonl").read_text()),
                "profile_from_file": _profile_digest(load_profile_input("trace.json")),
                "profile_from_jsonl": _profile_digest(load_profile_input("spans.jsonl")),
            }
            assert from_columns == out["profile_from_file"]
        finally:
            os.chdir(cwd)
    obs.provenance = provenance
    out["profile_live"] = _profile_digest(from_observability(obs))
    out["num_spans"] = len(obs.tracer)
    out["dropped"] = obs.tracer.dropped
    out["categories"] = obs.tracer.categories()
    out["metrics"] = _sha256(json.dumps(obs.metrics.snapshot(), sort_keys=True))
    return out


def generate() -> dict:
    return {case: record(case) for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_span_pipeline_matches_golden(case, golden):
    assert record(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
