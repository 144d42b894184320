#!/usr/bin/env python3
"""The repo's performance benchmark: four workloads, lower-quartile
timing, and a per-layer traced pass.

    python benchmarks/perf/run.py                  full suite, ~6 min
    python benchmarks/perf/run.py --quick          one launch, one round each
    python benchmarks/perf/run.py --workload des_phantom --seed 7 --seconds 18 --trace 0
    python benchmarks/perf/run.py --compare A.json B.json

Every workload runs in fresh child processes (*launches*), interleaved
round-robin across workloads so each workload's samples span the whole
measurement window; timing metrics are the lower quartile over all
timed rounds.  See README.md beside this file for the definitions and
the noise evidence behind them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = HERE / ".scratch"
RESULTS = HERE / "results"
RESULT_SCHEMA = "repro.perfbench.result/v1"

WORKLOADS = ("des_phantom", "des_observed", "exact_solve", "campaign_serve")
#: (name, unit, better) — the names BENCHMARK.json bounds
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("fast_op_ms", "ms", "lower"),
    ("slow_op_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: one busy thread per process, hash order fixed: the same work every launch
PIN_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
LAUNCH_TIMEOUT_S = 170


class LaunchError(RuntimeError):
    """A launch crashed, timed out, or printed no result."""


def quartiles(values) -> tuple:
    """(p25, p50, p75), linear interpolation between order statistics."""
    values = sorted(values)
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def launch(workload: str, args, *, rounds=None, seconds=None, setup_only=False,
           trace=False, verified=None) -> dict:
    """Run one launch in a fresh process with its own scratch directory.

    The directory is removed and the launch's whole process group is
    killed on every path out, so neither a crash nor a timeout leaves a
    serve process or a file behind.
    """
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    spec = {
        "workload": workload, "seed": args.seed, "scratch": str(scratch),
        "rounds": rounds, "seconds": seconds, "setup_only": setup_only, "trace": trace,
        "inject_failure": args.inject_failure, "verified": verified or {},
    }
    started_unix, t_spawn = time.time(), time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env={**os.environ, **PIN_ENV}, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LaunchError(f"{workload}: launch exceeded {LAUNCH_TIMEOUT_S} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise LaunchError(f"{workload}: launch exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["started_unix"] = started_unix
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def summarize(setups: list, launches: list) -> dict:
    """End-to-end metrics, counts and digests of one workload.

    ``launches`` ran rounds; ``setups`` are the set-up times of those
    launches and of the set-up-only ones.
    """
    rounds = [r for launch_ in launches for r in launch_["rounds"]]
    closes = [launch_["close"] for launch_ in launches]
    failures = [f for part in rounds + closes for f in part["failures"]]
    attempted = sum(part["attempted"] for part in rounds + closes)
    failed = sum(part["failed"] for part in rounds + closes)
    # The simulator is deterministic for a fixed seed: round i of every
    # launch must hash to the same simulated statistics.
    first = launches[0]
    for other in launches[1:]:
        shared = min(len(first["round_digests"]), len(other["round_digests"]))
        if (other["round_digests"][:shared] != first["round_digests"][:shared]
                or other["inputs_sha256"] != first["inputs_sha256"]):
            attempted, failed = attempted + 1, failed + 1
            failures.append("launches disagree on inputs or simulated statistics")
    work = first["work_per_round"]
    wall = quartiles(r["wall_s"] for r in rounds)
    samples = {
        "setup_s": (quartiles(setups), len(setups)),
        "wall_s": (wall, len(rounds)),
        "work_per_s": (tuple(work / w for w in wall), len(rounds)),
        "fast_op_ms": (quartiles(r["fast_ms"] for r in rounds), len(rounds)),
        "slow_op_ms": (quartiles(r["slow_ms"] for r in rounds), len(rounds)),
        "peak_rss_mb": ((max(launch_["peak_rss_kb"] for launch_ in launches) / 1024.0,) * 3,
                        len(launches)),
    }
    metrics = {}
    for name, unit, _better in END_TO_END:
        (p25, p50, p75), n = samples[name]
        # The value is the median of the samples (rounds; launches for
        # set-up): on this host the median drifts least — see README.
        metrics[name] = {"value": p50, "unit": unit, "p25": p25, "p50": p50, "p75": p75, "n": n}
    return {
        "metrics": metrics,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "work_per_round": work, "work_unit": first["work_unit"],
        "warmup_round_s": statistics.median(launch_["warmup_s"] for launch_ in launches),
        "versions": {k: first[k] for k in ("numpy", "code_version")},
        "sim_digest": first["round_digests"][0],
        "inputs_sha256": first["inputs_sha256"],
        "rounds": len(rounds), "launches": len(launches),
        "launch_started_unix": [launch_["started_unix"] for launch_ in launches],
        "round_samples": [{k: r[k] for k in ("wall_s", "cpu_s", "fast_ms", "slow_ms")}
                          for r in rounds],
    }


def measured_pass(names, args, setup_only, launches_per_workload, rounds, seconds) -> dict:
    """Set-up-only launches first (they also compile ``.pyc`` files and
    warm the page cache), then the measuring launches round-robin across
    workloads, so each workload's samples span the whole window."""
    setups: dict = {name: [] for name in names}
    results: dict = {name: [] for name in names}
    verified: dict = {name: {} for name in names}
    for _ in range(setup_only):
        for name in names:
            setups[name].append(launch(name, args, setup_only=True)["setup_s"])
    for _ in range(launches_per_workload):
        for name in names:
            result = launch(name, args, rounds=rounds, seconds=seconds,
                            verified=verified[name])
            verified[name] = result["verified"]
            setups[name].append(result["setup_s"])
            results[name].append(result)
    return {name: summarize(setups[name], results[name]) for name in names}


def traced_pass(names, args, measured, seconds) -> dict:
    """One extra launch per workload: a span round and a cProfile round."""
    sys.path.insert(0, str(HERE))
    import layers

    out = {}
    for name in names:
        jiffies = _cpu_jiffies()
        result = launch(name, args, rounds=None if seconds else 1, seconds=seconds, trace=True)
        steal_frac = _steal_frac(jiffies)
        traced = result["traced"]
        rounds = measured[name]["round_samples"] if measured else result["rounds"]
        out[name] = {
            "metrics": layers.per_layer_metrics(
                traced, rounds, result["work_per_round"], result["work_unit"], steal_frac),
            "missing": traced["missing"],
            "versions": {k: result[k] for k in ("numpy", "code_version")},
            "calls": {layer: slot["calls"] for layer, slot in traced["profile"].items()},
        }
        parts = result["rounds"] + [traced["span_round"], traced["profile_round"],
                                    result["close"]]
        for count in ("attempted", "failed"):
            out[name][count] = sum(part[count] for part in parts)
        out[name]["failures"] = [f for part in parts for f in part["failures"]][:20]
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{name}.json").write_text(json.dumps({
            "workload": name, "seed": args.seed, "missing": traced["missing"],
            "span_round_wall_s": traced["span_round"]["wall_s"],
            "profile": traced["profile"], "spans": traced["spans"],
        }))
    return out


# -- provenance --------------------------------------------------------------


def _cpu_jiffies() -> list:
    """The aggregate ``cpu`` line of /proc/stat (index 7 is steal)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return [0] * 10


def _steal_frac(before: list) -> float:
    """Share of all CPU time since ``before`` that the hypervisor stole."""
    now = _cpu_jiffies()
    total = sum(now) - sum(before)
    return (now[7] - before[7]) / total if total else 0.0


def _calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: neither load average nor
    steal shows the host-speed regimes that move every timing together."""
    times = []
    for _ in range(5):
        t0, x = time.perf_counter(), 0
        for i in range(300_000):
            x += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _filesystem_type(path: Path) -> str:
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return best[1]


def provenance(start: dict, versions: dict) -> dict:
    """Enough about the host and the run to recognise a disturbed one."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "code_version": versions["code_version"],
        "pin_env": PIN_ENV,
        "scratch_dir": str(SCRATCH.relative_to(ROOT)),
        "scratch_fs": _filesystem_type(HERE),
        "loadavg_start": start["loadavg"],
        "loadavg_end": list(os.getloadavg()),
        "calibration_ms_start": start["calibration_ms"],
        "calibration_ms_end": _calibration_ms(),
        "steal_frac": _steal_frac(start["jiffies"]),
        "started_unix": start["unix"],
        "duration_s": time.time() - start["unix"],
    }


# -- output ------------------------------------------------------------------


def print_end_to_end(name: str, summary: dict) -> None:
    print(f"\n== {name}: {summary['rounds']} rounds from {summary['launches']} launches, "
          f"work {summary['work_per_round']:.6g} {summary['work_unit']}/round")
    print(f"   {'metric':<14}{'value':>14} {'unit':<5}{'p25':>14}{'p50':>14}{'p75':>14}{'n':>5}")
    for metric, m in summary["metrics"].items():
        print(f"   {metric:<14}{m['value']:>14.6g} {m['unit']:<5}{m['p25']:>14.6g}"
              f"{m['p50']:>14.6g}{m['p75']:>14.6g}{m['n']:>5}")
    print(f"   {'failed_frac':<14}{summary['failed_frac']:>14.6g} ratio  "
          f"({summary['failed']} failed of {summary['attempted']} attempted)")
    print(f"   warm-up round {summary['warmup_round_s']:.6g} s (untimed)")
    print(f"   sim_digest    {summary['sim_digest']}")
    print(f"   inputs_sha256 {summary['inputs_sha256']}")
    for failure in summary["failures"]:
        print(f"   FAILED {failure}")


def print_per_layer(name: str, traced: dict) -> None:
    print(f"\n== {name}: per-layer metrics (traced pass)")
    for metric, m in traced["metrics"].items():
        if m["value"]:
            print(f"   {metric:<40}{m['value']:>16.6g} {m['unit']}")
    zero = [metric for metric, m in traced["metrics"].items() if not m["value"]]
    print(f"   zero on this workload: {len(zero)} metrics")
    for target in traced["missing"]:
        print(f"   missing {target}")
    for failure in traced["failures"]:
        print(f"   FAILED {failure}")


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both values, the relative
    difference, the bound and a verdict.  Exit 1 on any ``worse``."""
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    worse = 0
    print(f"{'workload':<16}{'metric':<14}{'A':>13}{'B':>13}{'diff':>9}{'bound':>7}  verdict")
    for name in sorted(set(a) & set(b)):
        for metric, _unit, better in END_TO_END:
            va, vb = (w[name]["metrics"][metric]["value"] for w in (a, b))
            diff = (vb - va) / va
            worsening = diff if better == "lower" else -diff
            bound = bounds[metric]
            verdict = ("worse" if worsening > bound else
                       "better" if worsening < -bound else "agree")
            worse += verdict == "worse"
            print(f"{name:<16}{metric:<14}{va:>13.6g}{vb:>13.6g}{diff:>+9.1%}{bound:>7.0%}  {verdict}")
        fa, fb = a[name]["failed_frac"], b[name]["failed_frac"]
        verdict = "worse" if fb > fa else "better" if fb < fa else "agree"
        worse += verdict == "worse"
        print(f"{name:<16}{'failed_frac':<14}{fa:>13.6g}{fb:>13.6g}{'':>9}{'0':>7}  {verdict}")
        same = a[name]["sim_digest"] == b[name]["sim_digest"]
        print(f"{name:<16}sim_digest {'identical' if same else 'DIFFERENT'}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="generates every input of every workload")
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long in one launch "
                             "(default: 5 launches of 4 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: measured pass only; 1: traced pass only (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="one launch of one round per workload, same op sizes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result documents and exit")
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt one expected value per round: the run must exit non-zero")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.quick:
        setup_only, n_launches, rounds = 0, 1, 1
    elif args.seconds:
        # One launch measures for the whole budget: a longer window
        # steadies the quartile more than a second warm-up would.
        setup_only, n_launches, rounds = 3, 1, None
    else:
        setup_only, n_launches, rounds = 1, 5, 4
    start = {"unix": time.time(), "loadavg": list(os.getloadavg()), "jiffies": _cpu_jiffies(),
             "calibration_ms": _calibration_ms()}
    measured, traced = {}, {}
    try:
        if args.trace != 1:
            measured = measured_pass(names, args, setup_only, n_launches, rounds, args.seconds)
        if args.trace != 0:
            traced = traced_pass(names, args, measured, args.seconds and args.seconds / 4)
    except LaunchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    document = {
        "schema": RESULT_SCHEMA, "seed": args.seed,
        "provenance": provenance(start, next(iter({**traced, **measured}.values()))["versions"]),
        "workloads": {},
    }
    for name in names:
        entry = measured.get(name, {})
        if measured:
            print_end_to_end(name, entry)
        if traced:
            entry["per_layer"] = traced[name]
            print_per_layer(name, traced[name])
        document["workloads"][name] = entry
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(document, indent=1))
    print(f"\nresult document -> {(RESULTS / 'latest.json').relative_to(ROOT)}")

    passes = list(measured.values()) + list(traced.values())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.workload and args.trace is not None:
        entry = document["workloads"][args.workload]
        metrics = entry["per_layer"]["metrics"] if args.trace else entry["metrics"]
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
