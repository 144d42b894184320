"""One launch: a fresh process that sets one workload up and runs its rounds.

``python launch.py '<spec json>'`` — started by ``run.py`` only.  The
launch sets the workload up (imports, inputs, program-side state: what
``setup_s`` times), runs one untimed warm-up round (fills the LCG tile
cache, route memoization and lazy imports), then the timed rounds; a
traced launch adds one round under span wrappers and one under
``cProfile``.  A set-up-only launch stops once the workload is ready.
The last line of standard output is the launch's result document.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _timed_rounds(workload, rounds, seconds, first_index: int) -> list:
    """Run ``rounds`` rounds, or as many as fit ``seconds`` (the launch
    stops once another round would overrun by more than it underruns)."""
    out: list = []
    t0 = time.perf_counter()
    while True:
        out.append(workload.round(first_index + len(out)))
        if rounds is not None:
            if len(out) >= rounds:
                return out
        else:
            spent = time.perf_counter() - t0
            if spent + 0.5 * spent / len(out) >= seconds:
                return out


def main(spec: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], Path(spec["scratch"]),
        inject_failure=spec["inject_failure"], trace=spec["trace"],
    )
    close_tally = workloads.Tally()
    verified = dict(spec["verified"])
    result = {"workload": workload.name, "rounds": [], "traced": None}
    try:
        workload.setup()
        result["t_ready"] = time.monotonic()
        if spec["setup_only"]:
            return result
        result["warmup_s"] = workload.round(0)["wall_s"]
        result["rounds"] = plain = _timed_rounds(
            workload, spec["rounds"], spec["seconds"], first_index=1)
        if spec["trace"]:
            recorder = layers.install()
            try:
                window = [time.perf_counter()]
                span_round = workload.round(len(plain) + 1)
                window.append(time.perf_counter())
            finally:
                recorder.uninstall()
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                profile_round = workload.round(len(plain) + 2)
            finally:
                profiler.disable()
            result["traced"] = {
                "span_round": span_round,
                "profile_round": profile_round,
                "profile": layers.profile_rollup(pstats.Stats(profiler).stats, ROOT),
                "missing": recorder.missing,
                "window": window,
                "main_tid": threading.get_ident(),
                "spans": recorder.spans,
            }
    finally:
        workload.close(close_tally, verified)
    if result["traced"]:
        lo, hi = result["traced"]["window"]
        base = len(result["traced"]["spans"])
        for s in workload.server_report.get("spans", []):
            if "end" in s and lo <= s["start"] <= hi:
                s["id"] += base
                s["parent"] = s["parent"] + base if s["parent"] is not None else None
                s["process"] = "serve"
                result["traced"]["spans"].append(s)

    from repro.obs.provenance import code_version
    import numpy

    result.update(
        inputs_sha256=workloads.sha256(workload.inputs),
        round_digests=[workloads.sha256(r.pop("sim")) for r in plain],
        work_per_round=workload.work_per_round,
        work_unit=workload.work_unit,
        close={"attempted": close_tally.attempted, "failed": close_tally.failed,
               "failures": close_tally.failures},
        verified=verified,
        peak_rss_kb=max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        workload.server_report.get("rss_kb", 0)),
        code_version=code_version(),
        numpy=numpy.__version__,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
