"""Per-layer tracing from the benchmark's own files.

Two instruments, both used only in the traced pass:

- **span wrappers** around the layers' public entry points (``TABLE``:
  ``module:qualname -> span name``; the span name's first component is
  the layer, i.e. the ``src/repro/`` package).  Spans are kept in
  memory with name, start, end and parent.  An entry that no longer
  resolves is reported ``missing``, never fatal.
- a **cProfile roll-up** by package into self-time and call counts.

``busy_ms`` of a span name is the time inside the entry point,
``self_ms`` is busy minus the part child spans cover, ``count`` the
number of calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time
from pathlib import Path


def _text_len(args, _kw) -> int:
    return len(args[1])


def _gemm_flops(args, _kw) -> int:
    _shim, _c, a, b = args[:4]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _getrf_flops(args, _kw) -> int:
    n = args[1].shape[0]
    return 2 * n ** 3 // 3


def _trsm_flops(args, _kw) -> int:
    t, b = args[3], args[4]
    return t.shape[0] * b.size


def _gemv_flops(args, _kw) -> int:
    return 2 * args[2].size


#: (module:qualname, span name, size function or None).  The size
#: function maps the call's arguments to a number summed per span name
#: (flops, computed from shapes, for blas; bytes for util).
TABLE = (
    ("repro.simulate.engine:Engine.run", "simulate.engine_run", None),
    ("repro.core.driver:run_benchmark", "core.run_benchmark", None),
    ("repro.core.hpl_dist:solve_hpl_distributed", "core.solve_hpl_distributed", None),
    ("repro.lcg.matrix:HplAiMatrix.block", "lcg.block", None),
    ("repro.blas.shim:BlasShim.gemm_update", "blas.gemm_update", _gemm_flops),
    ("repro.blas.shim:BlasShim.getrf", "blas.getrf", _getrf_flops),
    ("repro.blas.shim:BlasShim.trsm", "blas.trsm", _trsm_flops),
    ("repro.blas.shim:BlasShim.gemv_update", "blas.gemv_update", _gemv_flops),
    ("repro.precision.bfloat:cast_panel", "precision.cast_panel", None),
    ("repro.scenario.compile:compile_scenario", "scenario.compile", None),
    ("repro.machine.topology:CommCosts.__init__", "machine.comm_costs", None),
    ("repro.machine.variability:GcdFleet.__init__", "machine.fleet", None),
    ("repro.model.perf_model:estimate_run", "model.estimate_run", None),
    ("repro.model.tuner:sweep_block_sizes", "model.sweep_block_sizes", None),
    ("repro.tools.campaign:run_campaign", "tools.run_campaign", None),
    ("repro.tools.slownode:scan_fleet", "tools.scan_fleet", None),
    ("repro.campaign.runner:execute_job", "campaign.execute_job", None),
    ("repro.campaign.cache:RunCache.get", "campaign.cache_get", None),
    ("repro.campaign.cache:RunCache.put", "campaign.cache_put", None),
    ("repro.campaign.store:ResultStore.put", "campaign.store_put", None),
    ("repro.campaign.queue:JobQueue.checkpoint", "campaign.queue_checkpoint", None),
    ("repro.util.atomicio:atomic_write_text", "util.atomic_write", _text_len),
    ("repro.obs.context:Observability.export_chrome_trace", "obs.export_chrome_trace", None),
    ("repro.obs.analysis.loaders:load_profile_input", "obs.load_profile_input", None),
    ("repro.obs.analysis.report:build_profile", "obs.build_profile", None),
)


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, size: float = 0):
        stack = self._stack()
        record = {"name": name, "parent": stack[-1] if stack else None,
                  "tid": threading.get_ident(), "size": size}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, size_of):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                size = size_of(args, kw) if size_of else 0
            except (IndexError, AttributeError, TypeError):
                size = 0  # the entry point's signature moved; the span still counts
            with self.span(name, size):
                return fn(*args, **kw)

        return wrapper

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _active = None


#: the recorder :func:`span` writes to; None outside a traced round
_active: Recorder | None = None


def install() -> Recorder:
    """Wrap every resolvable ``TABLE`` entry; returns the live recorder.

    A function imported by name elsewhere (``from m import f``) is
    replaced in every loaded ``repro`` module that holds it, so call
    after the warm-up round, when lazy imports are done.
    """
    global _active
    rec = Recorder()
    for target, name, size_of in TABLE:
        module_name, qualname = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            rec.missing.append(target)
            continue
        wrapped = rec.wrap(original, name, size_of)
        holders = [owner]
        if not path:
            holders += [m for n, m in list(sys.modules.items())
                        if n.startswith("repro") and m is not owner
                        and getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, wrapped)
            rec._undo.append((holder, attr, original))
    _active = rec
    return rec


def span(name: str):
    """A span in the active recorder, or a no-op outside a traced round."""
    return _active.span(name) if _active is not None else contextlib.nullcontext()


def child_of(parent, fn):
    """``fn`` for a new thread whose spans hang under ``parent``."""
    if parent is None or _active is None:
        return fn
    rec = _active

    def run(*args):
        rec._stack().append(parent["id"])
        return fn(*args)

    return run


# -- cProfile roll-up ------------------------------------------------------


def profile_rollup(stats: dict, root: Path) -> dict:
    """``{layer: {"self_ms", "calls"}}`` from ``pstats`` entries.

    A function belongs to the ``src/repro/<package>`` its file lives in,
    to ``bench`` when the file is the benchmark's, else to ``ext``
    (NumPy, the standard library, built-ins).
    """
    src = str(root / "src" / "repro") + "/"
    bench = str(Path(__file__).resolve().parent) + "/"
    out: dict = {}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if filename.startswith(src):
            rest = filename[len(src):]
            layer = rest.split("/")[0] if "/" in rest else "repro"
        elif filename.startswith(bench):
            layer = "bench"
        else:
            layer = "ext"
        slot = out.setdefault(layer, {"self_ms": 0.0, "calls": 0})
        slot["self_ms"] += tottime * 1e3
        slot["calls"] += ncalls
    return out


# -- span arithmetic -------------------------------------------------------


def span_table(spans: list) -> dict:
    """``{name: {"count", "busy_ms", "self_ms", "size"}}`` over closed spans."""
    by_id = {s["id"]: s for s in spans}
    child_ms: dict = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        # A child on another thread (a client under the serve phase)
        # overlaps its siblings, so it does not reduce the parent's self time.
        if parent is not None and parent["tid"] == s["tid"]:
            child_ms[parent["id"]] = child_ms.get(parent["id"], 0.0) + (s["end"] - s["start"])
    out: dict = {}
    for s in spans:
        busy = (s["end"] - s["start"]) * 1e3
        slot = out.setdefault(s["name"], {"count": 0, "busy_ms": 0.0, "self_ms": 0.0, "size": 0})
        slot["count"] += 1
        slot["busy_ms"] += busy
        slot["self_ms"] += busy - child_ms.get(s["id"], 0.0) * 1e3
        slot["size"] += s["size"]
    return out


def coverage(spans: list, wall_s: float, main_tid: int) -> float:
    """Share of the round the launch's main thread spent inside top-level spans."""
    top = sum(s["end"] - s["start"] for s in spans
              if s["parent"] is None and s["tid"] == main_tid)
    return top / wall_s if wall_s > 0 else 0.0


# -- the per-layer metric catalogue ------------------------------------------


def _catalogue() -> list:
    span_units = {"count": "count", "busy_ms": "ms", "self_ms": "ms"}
    profile_units = {"self_ms": "ms", "calls": "count"}

    def span(name, *fields):
        return [(f"{name}.{f}", span_units[f], "lower", ("span", name, f)) for f in fields]

    def profile(layer, *fields):
        return [(f"{layer}.{f}", profile_units[f], "lower", ("profile", layer, f))
                for f in fields]

    def counter(name, unit, better="lower"):
        return [(name, unit, better, ("counter",))]

    def derived(name, unit, better="lower"):
        return [(name, unit, better, ("derived",))]

    return [
        *span("simulate.engine_run", "count", "busy_ms"),
        *counter("simulate.events", "count"),
        *derived("simulate.events_per_s", "1/s", "higher"),
        *derived("simulate.us_per_rank_step", "us"),
        *profile("simulate", "self_ms", "calls"),
        *counter("comm.messages", "count"),
        *counter("comm.bytes", "bytes"),
        *profile("comm", "self_ms", "calls"),
        *span("core.run_benchmark", "count", "busy_ms", "self_ms"),
        *span("core.solve_hpl_distributed", "busy_ms"),
        *profile("core", "self_ms", "calls"),
        *profile("grid", "self_ms", "calls"),
        *span("lcg.block", "count", "busy_ms"),
        *counter("lcg.tile_cache.misses", "count"),
        *counter("lcg.tile_cache.hit_ratio", "ratio", "higher"),
        *profile("lcg", "self_ms"),
        *span("blas.gemm_update", "count", "busy_ms"),
        *span("blas.getrf", "busy_ms"),
        *span("blas.trsm", "busy_ms"),
        *span("blas.gemv_update", "busy_ms"),
        *derived("blas.flops", "flop"),
        *profile("blas", "self_ms"),
        *span("precision.cast_panel", "count", "busy_ms"),
        *profile("precision", "self_ms"),
        *span("scenario.compile", "count", "busy_ms"),
        *span("machine.comm_costs", "busy_ms"),
        *span("machine.fleet", "busy_ms"),
        *profile("machine", "self_ms"),
        *span("model.estimate_run", "count", "busy_ms"),
        *span("model.sweep_block_sizes", "busy_ms"),
        *profile("model", "self_ms"),
        *span("tools.run_campaign", "busy_ms"),
        *span("tools.scan_fleet", "busy_ms"),
        *profile("tools", "self_ms"),
        *counter("campaign.sweep_cold.jobs_per_s", "1/s", "higher"),
        *counter("campaign.sweep_hit.jobs_per_s", "1/s", "higher"),
        *span("campaign.execute_job", "count", "busy_ms"),
        *span("campaign.cache_get", "count", "busy_ms"),
        *span("campaign.cache_put", "busy_ms"),
        *span("campaign.store_put", "count", "busy_ms"),
        *span("campaign.queue_checkpoint", "count", "busy_ms"),
        *counter("campaign.cache_hit_ratio", "ratio", "higher"),
        *counter("campaign.serve.req_per_s", "1/s", "higher"),
        *counter("campaign.serve.run_hit_ms_p50", "ms"),
        *counter("campaign.serve.run_hit_ms_p99", "ms"),
        *counter("campaign.serve.run_miss_ms_p50", "ms"),
        *counter("campaign.serve.results_ms_p50", "ms"),
        *counter("campaign.serve.tune_ms_p50", "ms"),
        *counter("campaign.serve.errors", "count"),
        *profile("campaign", "self_ms"),
        *span("util.atomic_write", "count", "busy_ms"),
        *derived("util.atomic_write.bytes", "bytes"),
        *counter("obs.spans", "count"),
        *counter("obs.trace_bytes", "bytes"),
        *span("obs.export_chrome_trace", "busy_ms"),
        *span("obs.load_profile_input", "busy_ms"),
        *span("obs.build_profile", "busy_ms"),
        *counter("obs.tracing_overhead_frac", "ratio"),
        *profile("obs", "self_ms", "calls"),
        *derived("bench.trace_overhead_frac", "ratio"),
        *derived("bench.span_coverage_frac", "ratio", "higher"),
        *derived("bench.cpu_s", "s"),
        *derived("bench.round_p50_s", "s"),
        *derived("bench.round_p75_s", "s"),
        *derived("bench.steal_frac", "ratio"),
        *derived("bench.ext_self_ms", "ms"),
    ]


#: (name, unit, better, source).  Sources: ``span`` (span name, field)
#: from the span round; ``profile`` (layer, field) from the cProfile
#: round; ``counter`` — the workload counter of that name in the span
#: round; ``derived`` — computed in :func:`per_layer_metrics`.
#: ``BENCHMARK.json`` lists exactly these names; a workload that does
#: not exercise a layer reports 0 for it.
PER_LAYER = _catalogue()


def per_layer_metrics(traced: dict, rounds: list, work_per_round: float,
                      work_unit: str, steal_frac: float) -> dict:
    """``{name: {"value", "unit"}}`` for every ``PER_LAYER`` entry.

    ``rounds`` are untraced rounds of the same workload: their median
    is what the span round is compared with for the tracing overhead,
    and their spread is the ``bench.round_*`` diagnostics.
    """
    spans = [s for s in traced["spans"] if "end" in s]
    table = span_table(spans)
    counters = traced["span_round"]["counters"]
    profile = traced["profile"]
    walls = [r["wall_s"] for r in rounds]
    quartiles = (statistics.quantiles(walls, n=4, method="inclusive")
                 if len(walls) > 1 else walls * 3)
    engine_s = table.get("simulate.engine_run", {}).get("busy_ms", 0.0) / 1e3
    derived = {
        "simulate.events_per_s":
            counters.get("simulate.events", 0) / engine_s if engine_s else 0.0,
        "simulate.us_per_rank_step":
            engine_s * 1e6 / work_per_round if work_unit == "rank-steps" else 0.0,
        "blas.flops": sum(v["size"] for k, v in table.items() if k.startswith("blas.")),
        "util.atomic_write.bytes": table.get("util.atomic_write", {}).get("size", 0),
        "bench.trace_overhead_frac": traced["span_round"]["wall_s"] / quartiles[1] - 1.0,
        "bench.span_coverage_frac": coverage(
            [s for s in spans if "process" not in s], traced["span_round"]["wall_s"],
            traced["main_tid"]),
        "bench.cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "bench.round_p50_s": quartiles[1],
        "bench.round_p75_s": quartiles[2],
        "bench.steal_frac": steal_frac,
        "bench.ext_self_ms": profile.get("ext", {}).get("self_ms", 0.0),
    }
    out = {}
    for name, unit, _better, src in PER_LAYER:
        if src[0] == "span":
            value = table.get(src[1], {}).get(src[2], 0)
        elif src[0] == "profile":
            value = profile.get(src[1], {}).get(src[2], 0)
        elif src[0] == "counter":
            value = counters.get(name, 0)
        else:
            value = derived[name]
        out[name] = {"value": value, "unit": unit}
    return out
