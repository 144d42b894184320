"""Golden pins of the analytic model's bits (eqs. 1-5).

``fixtures/model_golden.json`` was generated on the commit *before*
``estimate_run`` became an array program (run this file as a script
against that commit's ``src``), when every step still went through the
scalar :func:`repro.model.perf_model.estimate_iteration` loop.  Totals
are stored as ``float.hex()`` and the per-step costs as one sha256 over
the hex of every ``IterationCosts`` field, so a reordered operand, a
pairwise ``np.sum`` or one step priced with the wrong extent fails here.
Regenerate only in a PR that means to change the model's numbers.
"""

import hashlib
import json
from dataclasses import astuple
from math import lcm
from pathlib import Path

import pytest

from repro.core.config import BenchmarkConfig
from repro.machine import FRONTIER, SUMMIT
from repro.model import estimate_run

GOLDEN = Path(__file__).parent / "fixtures" / "model_golden.json"

MACHINES = {"summit": SUMMIT, "frontier": FRONTIER}
BCASTS = ("bcast", "ibcast", "ring1", "ring1m", "ring2m")
#: (pipeline_multiplier, global_speed)
SPEEDS = ((1.0, 1.0), (0.947, 1.031))

#: (machine, p_rows, p_cols, block, blocks per lcm(p_rows, p_cols), config kwargs)
SHAPES = [
    ("summit", 6, 6, 768, 6, {"bcast_algorithm": alg}) for alg in BCASTS
] + [
    ("frontier", 6, 6, 3072, 3, {"bcast_algorithm": alg}) for alg in BCASTS
] + [
    # nb = 1, nb = 2 and the smallest grids
    ("summit", 1, 1, 768, 1, {}),
    ("frontier", 1, 1, 3072, 2, {}),
    ("frontier", 2, 2, 1024, 1, {"bcast_algorithm": "ring1"}),
    ("summit", 1, 2, 512, 1, {"bcast_algorithm": "ibcast"}),
    ("summit", 3, 3, 768, 5, {"bcast_algorithm": "ring2m"}),
    # non-square grids: ceil(remaining / p) differs per dimension
    ("summit", 2, 3, 768, 3, {"bcast_algorithm": "ring1m"}),
    ("frontier", 3, 2, 2048, 2, {}),
    ("frontier", 6, 24, 3072, 2, {"bcast_algorithm": "ring2m"}),
    ("summit", 24, 6, 768, 3, {}),
    ("frontier", 24, 24, 3072, 2, {"bcast_algorithm": "ring1m"}),
    # switches off, mixed diag algorithm, explicit node-local grid, odd block
    ("summit", 6, 6, 768, 6, {"lookahead": False}),
    ("frontier", 6, 6, 3072, 3, {"bcast_algorithm": "ring2m", "gpu_aware": False}),
    ("summit", 6, 6, 768, 6, {"gpu_aware": False, "port_binding": False}),
    ("frontier", 24, 24, 3072, 1, {"port_binding": False, "lookahead": False}),
    ("frontier", 6, 6, 3072, 3, {"bcast_algorithm": "ring1", "diag_algorithm": "bcast"}),
    ("frontier", 24, 24, 3072, 2, {"q_rows": 2, "q_cols": 4, "bcast_algorithm": "ring2m"}),
    ("frontier", 6, 6, 1000, 4, {"bcast_algorithm": "ring1m"}),
    # the paper's achievement shapes
    ("summit", 162, 162, 768, 80, {}),
    ("frontier", 172, 172, 3072, 39, {"bcast_algorithm": "ring2m"}),
]

CASES = [shape + (speed,) for shape in SHAPES for speed in SPEEDS]


def _label(case) -> str:
    machine, p_rows, p_cols, block, mult, kw, (pm, gs) = case
    flags = "-".join(f"{k}={v}" for k, v in sorted(kw.items()))
    return f"{machine}-{p_rows}x{p_cols}-b{block}-m{mult}-{flags or 'default'}-pm{pm}-gs{gs}"


def _config(case) -> BenchmarkConfig:
    machine, p_rows, p_cols, block, mult, kw, _ = case
    return BenchmarkConfig(
        n=mult * lcm(p_rows, p_cols) * block, block=block,
        machine=MACHINES[machine], p_rows=p_rows, p_cols=p_cols, **kw,
    )


def digests(case) -> dict:
    cfg = _config(case)
    pm, gs = case[-1]
    res = estimate_run(cfg, pipeline_multiplier=pm, global_speed=gs)
    assert res.iterations == []
    kept = estimate_run(
        cfg, pipeline_multiplier=pm, global_speed=gs, keep_iterations=True
    )
    assert [it.k for it in kept.iterations] == list(range(cfg.num_blocks))
    assert kept.elapsed == res.elapsed and kept.breakdown == res.breakdown
    h = hashlib.sha256()
    for it in kept.iterations:
        for value in astuple(it)[1:]:
            h.update(float(value).hex().encode())
    return {
        "num_blocks": cfg.num_blocks,
        "elapsed": res.elapsed.hex(),
        "elapsed_factorization": res.elapsed_factorization.hex(),
        "elapsed_refinement": res.elapsed_refinement.hex(),
        "gflops_per_gcd": res.gflops_per_gcd.hex(),
        "breakdown": {k: float(v).hex() for k, v in res.breakdown.items()},
        "iterations_sha256": h.hexdigest(),
    }


def generate() -> dict:
    return {_label(c): digests(c) for c in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_label(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_model_bits_match_golden(case, golden):
    assert digests(case) == golden[_label(case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
