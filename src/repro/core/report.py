"""Run reports: serializable records of benchmark runs.

The paper's progress-monitoring practice depends on *recorded* per-
component data from previous runs ("We compare each component's
performance to our previously recorded data").  This module turns a
:class:`~repro.core.driver.RunResult` (or an analytic estimate) into a
JSON-serializable report, and writes per-iteration traces as CSV so
they can be diffed/plotted outside Python.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.driver import RunResult
from repro.errors import ConfigurationError
from repro.obs.export import dumps_strict

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> model cycle
    from repro.model.perf_model import AnalyticResult


def _stats_summary(stats) -> Dict[str, Dict[str, float]]:
    """Aggregate per-rank category times: mean / max across ranks."""
    categories = sorted({k for st in stats for k in st.times})
    out: Dict[str, Dict[str, float]] = {}
    n = max(len(stats), 1)
    for cat in categories:
        values = [st.times.get(cat, 0.0) for st in stats]
        out[cat] = {
            "mean_s": sum(values) / n,
            "max_s": max(values),
        }
    return out


def run_report(
    result: "Union[RunResult, AnalyticResult]", obs=None
) -> Dict[str, object]:
    """A JSON-serializable record of one run.

    ``obs``, when given and enabled, contributes its metrics snapshot
    under ``"metrics"`` — the cross-campaign comparable numbers from the
    unified telemetry stream.
    """
    report: Dict[str, object] = {
        "kind": "exact" if getattr(result, "exact", False) else (
            "event" if isinstance(result, RunResult) else "analytic"
        ),
        "config": result.config.describe(),
        "elapsed_s": result.elapsed,
        "elapsed_factorization_s": result.elapsed_factorization,
        "elapsed_refinement_s": result.elapsed_refinement,
        "gflops_per_gcd": result.gflops_per_gcd,
        "total_flops_per_s": result.total_flops_per_s,
    }
    if isinstance(result, RunResult):
        report["ir_iterations"] = result.ir_iterations
        report["ir_converged"] = result.ir_converged
        report["engine_events"] = result.engine_events
        report["engine_transfers"] = result.engine_transfers
        # Always recorded: NaN (simulated runs have no meaningful
        # residual) serializes as null via save_report's strict dump.
        report["residual_norm"] = result.residual_norm
        report["components"] = _stats_summary(result.stats)
        report["bytes_sent_total"] = sum(st.bytes_sent for st in result.stats)
        report["messages_total"] = sum(
            st.messages_sent for st in result.stats
        )
    else:
        report["breakdown_s"] = dict(result.breakdown)
    provenance = getattr(result, "provenance", None)
    if provenance is not None:
        report["provenance"] = provenance
    if obs is not None and obs.enabled and len(obs.metrics):
        report["metrics"] = obs.metrics.snapshot()
    return report


def save_report(result, path, obs=None) -> Path:
    """Write the JSON report; returns the path.

    The output is *strict* JSON: non-finite floats (e.g. the NaN
    ``residual_norm`` of simulated runs) are serialized as ``null``
    rather than Python's bare ``NaN`` token, which standard parsers
    reject.
    """
    path = Path(path)
    path.write_text(
        dumps_strict(run_report(result, obs=obs), indent=2, sort_keys=True)
    )
    return path


def load_report(path) -> Dict[str, object]:
    """Read a report written by :func:`save_report`."""
    return json.loads(Path(path).read_text())


def save_trace_csv(result: RunResult, path) -> Path:
    """Write the per-iteration trace (rank 0's Fig-10 data) as CSV."""
    if not isinstance(result, RunResult) or not result.trace:
        raise ConfigurationError(
            "no per-iteration trace on this result (analytic results and "
            "runs with collect_trace=False have none)"
        )
    path = Path(path)
    fields: List[str] = list(result.trace[0].keys())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(result.trace)
    return path


def load_trace_csv(path) -> List[Dict[str, float]]:
    """Read a trace CSV back into records (floats where possible)."""
    out: List[Dict[str, float]] = []
    with Path(path).open() as fh:
        for row in csv.DictReader(fh):
            rec: Dict[str, float] = {}
            for key, val in row.items():
                try:
                    rec[key] = int(val)
                except ValueError:
                    rec[key] = float(val)
            out.append(rec)
    return out


def compare_reports(
    baseline: Dict[str, object], current: Dict[str, object]
) -> Dict[str, float]:
    """Relative change of the headline metrics (current vs baseline).

    Positive ``elapsed_change`` means the current run is slower — the
    signal the early-termination watchdog keys on across whole runs.
    """
    def rel(key: str) -> float:
        b, c = baseline.get(key), current.get(key)
        if not isinstance(b, (int, float)) or not b:
            return float("nan")
        return (c - b) / b

    return {
        "elapsed_change": rel("elapsed_s"),
        "throughput_change": rel("gflops_per_gcd"),
        "refinement_change": rel("elapsed_refinement_s"),
    }
