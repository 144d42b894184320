"""Hot-path micro/macro benchmark harness (``bench hotpaths``).

Times the exact-path regions this repo optimizes — LCG fill (cold and
tile-cache-warm), panel factorization, trailing update, IR residual and
column sweep — plus two end-to-end anchors (distributed FP64 HPL and the
exact mixed-precision HPL-AI run) and one event-engine stage (a phantom
routed-broadcast run), and writes a ``BENCH_hotpaths.json`` record so
perf trajectory is tracked across PRs.

The end-to-end HPL stage also records solution/ipiv checksums and the
residual, and the engine stage a checksum of its simulated statistics,
pinning the optimization contract: faster, bitwise-identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import BenchmarkConfig
from repro.lcg.cache import clear_tile_cache, tile_cache
from repro.lcg.matrix import HplAiMatrix
from repro.machine import get_machine
from repro.obs import context as obs_context
from repro.util.atomicio import atomic_write_text

SCHEMA = "repro.bench.hotpaths/v1"
#: records live under the (gitignored) results directory; the bare
#: filename at the repo root is the pre-PR-5 legacy location still
#: honoured by :func:`load_record` / :func:`_previous_record`
DEFAULT_OUT = "benchmarks/results/BENCH_hotpaths.json"
LEGACY_OUT = "BENCH_hotpaths.json"


@dataclass
class StageResult:
    """Timing summary of one benchmark stage."""

    name: str
    reps: int
    times_s: List[float] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def mean_s(self) -> float:
        return float(np.mean(self.times_s)) if self.times_s else 0.0

    @property
    def min_s(self) -> float:
        return float(np.min(self.times_s)) if self.times_s else 0.0

    def to_record(self) -> Dict[str, object]:
        """Flatten to a JSON/table row (stage extras merged in)."""
        rec: Dict[str, object] = {
            "stage": self.name,
            "reps": self.reps,
            "mean_s": round(self.mean_s, 6),
            "min_s": round(self.min_s, 6),
            "max_s": round(float(np.max(self.times_s)), 6)
            if self.times_s else 0.0,
        }
        rec.update(self.extra)
        return rec


def _sha16(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _sim_sha16(res) -> str:
    """Checksum of a simulated run's statistics (the bits, via
    ``float.hex``): elapsed, its split and every rank's accounting."""
    doc = [res.elapsed.hex(), res.elapsed_factorization.hex(),
           res.elapsed_refinement.hex()]
    for st in res.stats:
        doc.append([st.bytes_sent, st.messages_sent,
                    sorted((k, float(v).hex()) for k, v in st.times.items())])
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _timed(fn: Callable[[], object], reps: int, name: str) -> StageResult:
    """Run ``fn`` ``reps`` times under an obs span, collecting wall times."""
    obs = obs_context.current()
    result = StageResult(name=name, reps=reps)
    for _ in range(reps):
        span = (
            obs.tracer.span(f"bench.{name}", "hotpath", 0, clock="wall")
            if obs.enabled else None
        )
        t0 = time.perf_counter()
        if span is not None:
            with span:
                out = fn()
        else:
            out = fn()
        result.times_s.append(time.perf_counter() - t0)
        if isinstance(out, dict):
            result.extra.update(out)
    return result


def _bands(m: HplAiMatrix, b: int):
    """Read every full-width row band (the canonical cache unit) the way
    the exact path does: in place, through ``band``."""
    for g in range(m.n // b):
        m.band(g * b, (g + 1) * b)


def run_hotpaths(
    n: int = 1024,
    block: int = 64,
    grid: int = 2,
    reps: int = 3,
    seed: int = 42,
    machine: str = "summit",
    out: Optional[str] = DEFAULT_OUT,
) -> Dict[str, object]:
    """Run all stages; returns (and optionally writes) the JSON record."""
    from repro.core.driver import run_benchmark, simulate_run
    from repro.core.hpl_dist import HplExecutor, solve_hpl_distributed

    mach = get_machine(machine)
    cfg = BenchmarkConfig(
        n=n, block=block, machine=mach, p_rows=grid, p_cols=grid, seed=seed
    )
    m = HplAiMatrix(n, seed)
    b = block
    stages: List[StageResult] = []

    # -- LCG fill: cold (generator) vs warm (tile cache) -------------------
    def fill_cold():
        clear_tile_cache()
        _bands(m, b)

    def fill_warm():
        _bands(m, b)

    stages.append(_timed(fill_cold, reps, "lcg_fill_cold"))
    _bands(m, b)  # ensure warm
    stages.append(_timed(fill_warm, reps, "lcg_fill_warm"))

    # -- panel factorization + trailing update on a 1x1 grid ---------------
    cfg1 = BenchmarkConfig(
        n=n, block=block, machine=mach, p_rows=1, p_cols=1, seed=seed
    )
    ex = HplExecutor(cfg1, 0, 0, 0)
    ex.fill_local()
    pristine = ex.local.copy()

    def panel_factor():
        # The HPL-AI matrix is diagonally dominant, so the pivot row is
        # the diagonal: the stage exercises pivot search + rank-1 update
        # without the comm machinery.
        ex.local[:] = pristine
        lo, hi = 0, b  # panel block-column 0 in local storage
        for col in range(b):
            val, row = ex.local_pivot_candidate(col, col)
            seg = ex.gather_row(row, [(lo, hi)])
            ex.scale_and_update_panel(col, col + 1, seg, val, lo, hi)

    stages.append(_timed(panel_factor, reps, "panel_factor"))

    # Trailing update with real panels from step 0.
    panel_factor()
    diag = ex.extract_diag(0)
    ex.trsm_row_panel(0, diag)
    l_panel = ex.extract_l_panel(0)
    u_panel = ex.extract_u_panel(0)
    after_panel = ex.local.copy()

    def trailing_update():
        ex.local[:] = after_panel
        ex.gemm_trailing(0, l16=l_panel, u16t=u_panel)

    stages.append(_timed(trailing_update, reps, "trailing_update"))

    # -- IR residual sweep (band-wise r = b - A x, warm cache) --------------
    rhs = m.rhs()
    x_guess = rhs.copy()  # any vector exercises the same data path

    def ir_residual():
        r = rhs.copy()
        for g in range(n // b):
            r[g * b:(g + 1) * b] -= m.band(g * b, (g + 1) * b) @ x_guess
        return {"residual_inf": float(np.max(np.abs(r)))}

    stages.append(_timed(ir_residual, reps, "ir_sweep"))

    # -- end to end ---------------------------------------------------------
    def end_to_end_hpl():
        clear_tile_cache()
        res = solve_hpl_distributed(cfg)
        ipiv = np.asarray(res["ipiv"], dtype=np.int64)
        return {
            "x_sha256": _sha16(res["x"]),
            "ipiv_sha256": _sha16(ipiv),
            "residual_norm": res["residual_norm"],
            "t_virtual_s": round(res["t_total"], 6),
        }

    stages.append(_timed(end_to_end_hpl, max(1, reps - 1), "end_to_end_hpl"))

    def end_to_end_hplai():
        clear_tile_cache()
        res = run_benchmark(cfg, exact=True)
        return {
            "x_sha256": _sha16(res.x),
            "ir_converged": bool(res.ir_converged),
            "t_virtual_s": round(res.elapsed, 6),
        }

    stages.append(
        _timed(end_to_end_hplai, max(1, reps - 1), "end_to_end_hplai")
    )

    # -- event engine: routed tree broadcast, phantom payloads --------------
    # Fixed size (independent of n/block/grid): 64 ranks, 64 steps, every
    # panel broadcast a multi-segment pipeline along the library tree.
    des_cfg = BenchmarkConfig(
        n=8 * 8192, block=1024, machine=mach, p_rows=8, p_cols=8,
        bcast_algorithm="bcast", seed=seed,
    )

    def des_route():
        res = simulate_run(des_cfg)
        return {
            "t_virtual_s": round(res.elapsed, 6),
            "engine_events": res.engine_events,
            "engine_transfers": res.engine_transfers,
            "sim_sha256": _sim_sha16(res),
        }

    des_stage = _timed(des_route, max(1, reps - 1), "des_route")
    stages.append(des_stage)

    hpl_stage = next(s for s in stages if s.name == "end_to_end_hpl")
    record: Dict[str, object] = {
        "schema": SCHEMA,
        "config": {
            "n": n, "block": block, "grid": grid, "reps": reps,
            "seed": seed, "machine": mach.name,
        },
        "results": [s.to_record() for s in stages],
        "reference": {
            "x_sha256": hpl_stage.extra.get("x_sha256"),
            "ipiv_sha256": hpl_stage.extra.get("ipiv_sha256"),
            "residual_norm": hpl_stage.extra.get("residual_norm"),
            "sim_sha256": des_stage.extra.get("sim_sha256"),
        },
        "tile_cache": tile_cache().stats(),
    }
    if out:
        write_record(record, out)
    return record


def write_record(record: Dict[str, object], out: str) -> str:
    """Write a hotpaths record, folding in one step of history.

    The write is atomic (temp file in the same directory + rename): the
    record is the ``--against`` CI gate's baseline, so a crash mid-write
    must leave the previous baseline intact rather than a truncated
    file.  Returns the path written.
    """
    prev = _previous_record(out)
    if prev is not None:
        record["previous"] = prev
    return atomic_write_text(out, json.dumps(record, indent=2) + "\n")


def load_record(path: str = DEFAULT_OUT) -> Optional[Dict[str, object]]:
    """Load a hotpaths record, honouring the legacy root-level location.

    Asking for the default path falls back to :data:`LEGACY_OUT` when
    the results directory has no record yet, so baselines written by
    older checkouts keep working as ``--against`` targets.
    """
    candidates = [Path(path)]
    if path == DEFAULT_OUT:
        candidates.append(Path(LEGACY_OUT))
    for p in candidates:
        if not p.exists():
            continue
        try:
            rec = json.loads(p.read_text())
        except (OSError, ValueError):
            continue
        if rec.get("schema") == SCHEMA:
            return rec
    return None


def _previous_record(out: str) -> Optional[Dict[str, object]]:
    """Summarize an existing record so the file keeps one step of history."""
    old = load_record(out)
    if old is None:
        return None
    return {
        "config": old.get("config"),
        "results": old.get("results"),
        "reference": old.get("reference"),
    }


def render_hotpaths(record: Dict[str, object]) -> str:
    """ASCII table of a hotpaths record."""
    from repro.bench.reporting import render_records

    cfg = record["config"]
    title = (
        f"hot-path benchmark (n={cfg['n']}, b={cfg['block']}, "
        f"grid={cfg['grid']}x{cfg['grid']}, {cfg['machine']})"
    )
    rows = [
        {k: r.get(k, "") for k in ("stage", "reps", "mean_s", "min_s", "max_s")}
        for r in record["results"]
    ]
    return render_records(rows, title=title, float_fmt="{:.4f}")
