"""Golden pins of the generated HPL-AI matrix bits.

The digests in ``fixtures/lcg_golden.json`` were generated on the commit
*before* contiguous runs were produced by doubling (run this file as a
script against that commit's ``src``), when every element still went
through the per-bit :func:`repro.lcg.generator.states_at` jump.  They are
sha256 of the raw FP64 bytes, so one wrong state, one entry scaled twice
or a diagonal written one column off fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.lcg import HplAiMatrix

GOLDEN = Path(__file__).parent / "fixtures" / "lcg_golden.json"

CASES = [(96, 42), (1000, 7), (2048, 2022)]


def _label(n, seed) -> str:
    return f"n{n}-seed{seed}"


def rectangles(n) -> dict:
    """Four off-origin ranges ``(row_start, row_stop, col_start, col_stop)``."""
    return {
        "odd_width": (n // 8, n // 8 + 13, n // 2 + 1, n // 2 + 1 + 37),
        "crosses_diagonal": (n // 3, n // 3 + 29, n // 3 - 7, n // 3 + 12),
        "single_column": (5, n - 3, n - 2, n - 1),
        "row_tail": (n - 11, n, 3, n),
    }


def _sha256(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def digests(n, seed) -> dict:
    m = HplAiMatrix(n, seed=seed, use_cache=False)
    out = {
        "dense": _sha256(m.dense()),
        "rhs": _sha256(m.rhs()),
        "diagonal": _sha256(m.diagonal()),
    }
    for name, rng in rectangles(n).items():
        out[name] = _sha256(m.block(*rng))
    return out


def generate() -> dict:
    return {_label(*c): digests(*c) for c in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: _label(*c))
def test_generated_bytes_match_golden(case, golden):
    assert digests(*case) == golden[_label(*case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
