"""Golden pins of the panel loops: FP64 HPL and HPL-AI, bit for bit.

``fixtures/panel_golden.json`` was generated on the commit *before* FP64
HPL and in-band HPL-AI were folded into ``hplai.factorization_phase``
(run this file as a script against that commit's ``src``) and is never
edited afterwards.  Each case pins the solution bytes, the pivots, the
simulated times (``float.hex``), every rank's accounting (``times``
keys included, so a new zero-second op kind fails) and a digest of the
exact op sequence every rank yielded to the engine — a reordered
broadcast, an extra ``Now`` or a dropped zero-second ``Compute`` fails
here even when the numbers still agree.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analyze.schedule.extract import ScheduleCase, extract_case
from repro.core.config import BenchmarkConfig
from repro.core.driver import run_benchmark
from repro.core.hpl_dist import solve_hpl_distributed
from repro.machine import SUMMIT
from repro.obs import Observability, use
from repro.simulate.engine import Engine

from tests.test_hpl_distributed import DenseMatrix, _random_general

GOLDEN = Path(__file__).parent / "fixtures" / "panel_golden.json"

#: (label, p_rows, p_cols, n, block, dense-matrix seed or None for the LCG)
HPL_CASES = [
    ("lcg-2x2", 2, 2, 512, 64, None),
    ("lcg-1x1", 1, 1, 512, 64, None),
    ("dense-2x3", 2, 3, 96, 8, 5),
    ("dense-3x2", 3, 2, 96, 8, 7),
]
#: (label, exact, p_rows, p_cols, n, block, bcast, progression, lookahead)
HPLAI_CASES = [
    (f"exact-2x2-{bcast}-{mode}-{'la' if la else 'sync'}",
     True, 2, 2, 256, 32, bcast, mode, la)
    for bcast in ("bcast", "ring2m")
    for mode, la in (("routed", True), ("routed", False), ("inband", False))
] + [
    (f"phantom-2x3-{bcast}-inband-sync", False, 2, 3, 384, 32, bcast,
     "inband", False)
    for bcast in ("bcast", "ring1")
]
SCHEDULE_CASES = [
    ScheduleCase(program="hpl", p_rows=2, p_cols=2, n=64, block=8),
    ScheduleCase(program="hplai", p_rows=2, p_cols=3, n=192, block=32,
                 bcast="ring1m", progression="inband", lookahead=False),
]


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _describe(op) -> list:
    """An engine op without its payload: type, kind, peers, tags."""
    out = [type(op).__name__]
    for name in ("kind", "dst", "src", "tag", "members", "root", "key"):
        if hasattr(op, name):
            out.append([name, getattr(op, name)])
    spec = getattr(op, "spec", None)
    if spec is not None:
        out.append([spec.root, spec.edges, spec.segments])
    return out


def relay(gen, on_op):
    """Drive ``gen`` unchanged, handing every op it yields to ``on_op``."""
    value = None
    try:
        while True:
            op = gen.send(value)
            on_op(op)
            value = yield op
    except StopIteration as stop:
        return stop.value


class _OpLog:
    """Record, per rank, every op the next ``Engine.run`` is handed."""

    def __init__(self, monkeypatch):
        self.ranks: dict = {}
        run = Engine.run

        def logged_run(engine, factory):
            def logged(rank):
                log = self.ranks.setdefault(rank, [])
                return relay(factory(rank),
                             lambda op: log.append(_describe(op)))
            return run(engine, logged)

        monkeypatch.setattr(Engine, "run", logged_run)

    def digest(self) -> str:
        return _sha256([self.ranks[r] for r in sorted(self.ranks)])


def _stats(stats) -> list:
    return [
        {
            "times": {k: float(v).hex() for k, v in st.times.items()},
            "bytes_sent": st.bytes_sent,
            "messages_sent": st.messages_sent,
        }
        for st in stats
    ]


def _cfg(pr, pc, n, block, **kw) -> BenchmarkConfig:
    return BenchmarkConfig(
        n=n, block=block, machine=SUMMIT, p_rows=pr, p_cols=pc, **kw
    )


def hpl_facts(case, monkeypatch) -> dict:
    _label, pr, pc, n, block, seed = case
    matrix = None if seed is None else DenseMatrix(*_random_general(n, seed))
    ops = _OpLog(monkeypatch)
    obs = Observability()
    with use(obs):
        res = solve_hpl_distributed(_cfg(pr, pc, n, block), matrix=matrix)
    spans: dict = {}
    for s in obs.tracer:
        key = f"{s.cat}/{s.name}"
        spans[key] = spans.get(key, 0) + 1
    return {
        "x_sha256": hashlib.sha256(res["x"].tobytes()).hexdigest(),
        "ipiv": [int(p) for p in res["ipiv"]],
        "residual_norm": float(res["residual_norm"]).hex(),
        "elapsed": float(res["elapsed"]).hex(),
        "t_factorization": float(res["t_factorization"]).hex(),
        "t_total": float(res["t_total"]).hex(),
        "stats_sha256": _sha256(_stats(res["stats"])),
        "time_kinds": sorted({k for st in res["stats"] for k in st.times}),
        "ops_sha256": ops.digest(),
        "ops": sum(len(v) for v in ops.ranks.values()),
        "spans": spans,
    }


def hplai_facts(case, monkeypatch) -> dict:
    _label, exact, pr, pc, n, block, bcast, mode, lookahead = case
    cfg = _cfg(pr, pc, n, block, bcast_algorithm=bcast, progression=mode,
               lookahead=lookahead)
    ops = _OpLog(monkeypatch)
    res = run_benchmark(cfg, exact=exact)
    facts = {
        "elapsed": res.elapsed.hex(),
        "t_factorization": res.elapsed_factorization.hex(),
        "t_refinement": res.elapsed_refinement.hex(),
        "ir_iterations": res.ir_iterations,
        "engine_events": res.engine_events,
        "engine_transfers": res.engine_transfers,
        "stats_sha256": _sha256(_stats(res.stats)),
        "time_kinds": sorted({k for st in res.stats for k in st.times}),
        "trace_sha256": _sha256([
            {k: float(v).hex() for k, v in entry.items()}
            for entry in res.trace
        ]),
        "ops_sha256": ops.digest(),
        "ops": sum(len(v) for v in ops.ranks.values()),
    }
    if exact:
        facts["x_sha256"] = hashlib.sha256(res.x.tobytes()).hexdigest()
        facts["residual_norm"] = float(res.residual_norm).hex()
    return facts


def schedule_facts(case: ScheduleCase) -> dict:
    """Per-rank comm-op sequence as the schedule verifier extracts it
    (yield sites and frame-local context excluded: they name source
    lines, which a refactor is free to move)."""
    result = extract_case(case)
    assert result.completed, result.error
    ranks = []
    for rank_ops in result.schedule.ops:
        seq = []
        for op in rank_ops:
            doc = op.to_dict()
            doc.pop("sites", None)
            doc.pop("context", None)
            seq.append(doc)
        ranks.append(_sha256(seq))
    return {
        "ops": result.schedule.num_ops,
        "matches": len(result.schedule.matches),
        "collectives": len(result.schedule.collectives),
        "ranks_sha256": ranks,
    }


def generate() -> dict:
    mp = pytest.MonkeyPatch()
    try:
        return {
            "hpl": {c[0]: hpl_facts(c, mp) for c in HPL_CASES},
            "hplai": {c[0]: hplai_facts(c, mp) for c in HPLAI_CASES},
            "schedule": {c.label(): schedule_facts(c) for c in SCHEDULE_CASES},
        }
    finally:
        mp.undo()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", HPL_CASES, ids=lambda c: c[0])
def test_fp64_hpl_matches_golden(case, golden, monkeypatch):
    assert hpl_facts(case, monkeypatch) == golden["hpl"][case[0]]


@pytest.mark.parametrize("case", HPLAI_CASES, ids=lambda c: c[0])
def test_hplai_matches_golden(case, golden, monkeypatch):
    assert hplai_facts(case, monkeypatch) == golden["hplai"][case[0]]


@pytest.mark.parametrize("case", SCHEDULE_CASES, ids=lambda c: c.label())
def test_extracted_schedule_matches_golden(case, golden):
    assert schedule_facts(case) == golden["schedule"][case.label()]


def test_dense_cases_pivot(golden):
    """The dense cases genuinely exercise LASWP; the LCG ones never do."""
    for label, _pr, _pc, _n, _block, seed in HPL_CASES:
        ipiv = np.asarray(golden["hpl"][label]["ipiv"])
        swaps = int(np.count_nonzero(ipiv != np.arange(ipiv.size)))
        assert (swaps > 10) if seed is not None else (swaps == 0)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
