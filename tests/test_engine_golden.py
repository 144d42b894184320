"""Golden pins of the engine's simulated statistics.

The digests in ``fixtures/engine_golden.json`` were generated on the
commit *before* routed broadcasts were charged per edge (run this file
as a script against that commit's ``src``), so a change to the engine's
transfer arithmetic — an operand reordered, a NIC free time written
late, a jitter draw consumed out of order — fails here even when every
tolerance-based test still passes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.machine import get_machine
from repro.obs import Observability
from repro.scenario import Scenario

GOLDEN = Path(__file__).parent / "fixtures" / "engine_golden.json"

N_LOCAL, BLOCK = 2048, 512
MATRIX = [
    (machine, p, bcast)
    for machine in ("summit", "frontier")
    for p, bcast in (
        (4, "bcast"), (4, "ibcast"), (6, "ring1"), (6, "ring1m"),
        (8, "ring2m"), (8, "bcast"), (12, "ring2m"),
    )
]
#: one tree and one ring, each run obs-enabled and under link jitter
OBSERVED = [("summit", 4, "bcast"), ("frontier", 6, "ring2m")]
JITTER = {
    "schema": "repro.scenario/v1",
    "name": "golden-jitter",
    "injections": [
        {"kind": "link_jitter", "amplitude_s": 2e-05, "seed": 2022},
        {"kind": "contention", "bw_factor": 3.0, "t0_frac": 0.3, "t1_frac": 0.6},
    ],
}


def _label(machine, p, bcast) -> str:
    return f"{machine}-{p}x{p}-{bcast}"


def _config(machine, p, bcast) -> BenchmarkConfig:
    return BenchmarkConfig(
        n=N_LOCAL * p, block=BLOCK, machine=get_machine(machine),
        p_rows=p, p_cols=p, bcast_algorithm=bcast,
    )


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def stats_digest(res) -> str:
    """sha256 over elapsed, its splits and every rank's accounting.

    Floats go through ``float.hex`` so the digest is of the bits, not of
    a rounded rendering.
    """
    return _sha256({
        "elapsed": res.elapsed.hex(),
        "factorization": res.elapsed_factorization.hex(),
        "refinement": res.elapsed_refinement.hex(),
        "ranks": [
            {
                "times": {k: float(v).hex() for k, v in st.times.items()},
                "bytes_sent": st.bytes_sent,
                "messages_sent": st.messages_sent,
            }
            for st in res.stats
        ],
    })


def observed_facts(machine, p, bcast) -> dict:
    """Span count, comm-span digest and elapsed of the obs-enabled and
    the link-perturbed run of one configuration."""
    cfg = _config(machine, p, bcast)
    obs = Observability()
    traced = simulate_run(cfg, obs=obs)
    comm = [
        [s.name, s.rank, s.start.hex(), s.end.hex(), sorted(s.attrs.items())]
        for s in obs.tracer if s.cat == "comm"
    ]
    jittered = simulate_run(cfg, scenario=Scenario.from_dict(JITTER))
    return {
        "spans": len(obs.tracer),
        "comm_spans_sha256": _sha256(comm),
        "traced_elapsed": traced.elapsed.hex(),
        "jitter_elapsed": jittered.elapsed.hex(),
        "jitter_sha256": stats_digest(jittered),
    }


def generate() -> dict:
    return {
        "stats": {
            _label(*c): stats_digest(simulate_run(_config(*c))) for c in MATRIX
        },
        "observed": {_label(*c): observed_facts(*c) for c in OBSERVED},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", MATRIX, ids=lambda c: _label(*c))
def test_simulated_statistics_match_golden(case, golden):
    assert stats_digest(simulate_run(_config(*case))) == golden["stats"][_label(*case)]


@pytest.mark.parametrize("case", OBSERVED, ids=lambda c: _label(*c))
def test_traced_and_perturbed_runs_match_golden(case, golden):
    assert observed_facts(*case) == golden["observed"][_label(*case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
