"""The ``repro.obs.fleet/v1`` campaign-analytics document.

One document summarizes one :class:`~repro.campaign.store.ResultStore`
the way a profile report summarizes one run: a per-axis GF/s heatmap
over grid × bcast × scenario, best/worst-cell identification (with
critical-path phase attribution when per-job profile artifacts are
available), health-findings and cache rollups, per-worker utilization
derived from each row's ``meta`` block, and store-over-store trend
series.  :func:`check_fleet_document` is the validation the
``fleet-schema`` row of :mod:`repro.analyze.checkers.schemas` delegates
to, and
:func:`render_fleet_text` / :func:`render_fleet_csv` are the terminal
surfaces of ``repro fleet``.
"""

from __future__ import annotations

from typing import List

#: schema tag stamped into every fleet analytics document
FLEET_SCHEMA = "repro.obs.fleet/v1"

#: the heatmap cell fields every cell must carry
_CELL_FIELDS = ("grid", "bcast", "scenario", "key", "label", "elapsed_s",
                "gflops_per_gcd", "total_flops_per_s")


def check_fleet_document(doc) -> List[str]:
    """Problem strings for one fleet document (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"fleet document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != FLEET_SCHEMA:
        problems.append(
            f"schema must be {FLEET_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    heatmap = doc.get("heatmap")
    if not isinstance(heatmap, dict):
        problems.append("'heatmap' section is missing")
    else:
        for axis in ("grids", "bcasts", "scenarios"):
            if not isinstance(heatmap.get(axis), list):
                problems.append(f"heatmap.{axis} must be a list")
        cells = heatmap.get("cells")
        if not isinstance(cells, list):
            problems.append("heatmap.cells must be a list")
        else:
            for i, cell in enumerate(cells):
                if not isinstance(cell, dict):
                    problems.append(f"heatmap.cells[{i}] must be an object")
                    continue
                missing = [f for f in _CELL_FIELDS if f not in cell]
                if missing:
                    problems.append(
                        f"heatmap.cells[{i}] missing field(s): "
                        + ", ".join(missing)
                    )
        if not isinstance(heatmap.get("missing"), list):
            problems.append("heatmap.missing must be a list")
    for section in ("best", "worst"):
        sec = doc.get(section)
        if sec is not None and not isinstance(sec, dict):
            problems.append(f"'{section}' must be an object or null")
    rollup = doc.get("rollup")
    if not isinstance(rollup, dict):
        problems.append("'rollup' section is missing")
    elif not isinstance(rollup.get("health"), dict):
        problems.append("rollup.health must be an object")
    workers = doc.get("workers")
    if not isinstance(workers, dict):
        problems.append("'workers' section is missing")
    elif not isinstance(workers.get("per_worker"), list):
        problems.append("workers.per_worker must be a list")
    trend = doc.get("trend")
    if not isinstance(trend, list):
        problems.append("'trend' must be a list")
    else:
        for i, entry in enumerate(trend):
            if not isinstance(entry, dict) or "baseline" not in entry:
                problems.append(f"trend[{i}] must name its 'baseline'")
    if not isinstance(doc.get("regressed"), bool):
        problems.append("'regressed' must be a boolean")
    return problems


def render_fleet_text(doc: dict) -> str:
    """Terminal report: heatmaps, extremes, workers, rollups, trend."""
    from repro.util.format import format_flops, render_table

    blocks: List[str] = []
    store = doc.get("store", {})
    blocks.append(
        "fleet report\n"
        f"  source       : {doc.get('source', '<store>')}\n"
        f"  rows         : {store.get('rows', 0)}\n"
        f"  machines     : {', '.join(store.get('machines', [])) or '-'}\n"
        f"  code         : {', '.join(store.get('code_versions', [])) or '-'}"
    )
    heatmap = doc.get("heatmap", {})
    cells = {
        (c["grid"], c["bcast"], c["scenario"]): c
        for c in heatmap.get("cells", [])
    }
    for scenario in heatmap.get("scenarios", []):
        rows = []
        for grid in heatmap.get("grids", []):
            row = [grid]
            for bcast in heatmap.get("bcasts", []):
                cell = cells.get((grid, bcast, scenario))
                row.append(
                    f"{cell['gflops_per_gcd']:.1f}" if cell else "-"
                )
            rows.append(row)
        blocks.append(render_table(
            ["grid"] + list(heatmap.get("bcasts", [])), rows,
            title=f"GF/s per GCD — scenario: {scenario}",
        ))
    for name in ("best", "worst"):
        sec = doc.get(name)
        if not sec or not sec.get("cell"):
            continue
        cell = sec["cell"]
        line = (
            f"{name:5s} cell    : {cell.get('label', '?')} "
            f"({cell.get('gflops_per_gcd', 0.0):.1f} GF/s per GCD, "
            f"{format_flops(cell.get('total_flops_per_s', 0.0))})"
        )
        if sec.get("bounding_phase"):
            line += f"\n  bound by     : {sec['bounding_phase']}"
        phases = sec.get("phase_seconds") or {}
        if phases:
            top = sorted(phases.items(), key=lambda kv: -kv[1])[:3]
            line += "\n  top phases   : " + ", ".join(
                f"{p} {s:.4f}s" for p, s in top
            )
        blocks.append(line)
    workers = doc.get("workers", {})
    per_worker = workers.get("per_worker", [])
    if per_worker:
        rows = [
            [w["worker"], w["jobs"],
             f"{w['queue_wait_s']['mean']:.4f}",
             f"{w['queue_wait_s']['max']:.4f}",
             f"{w['run_s']['mean']:.4f}",
             f"{w['run_s']['total']:.4f}"]
            for w in per_worker
        ]
        blocks.append(render_table(
            ["worker", "jobs", "wait mean (s)", "wait max (s)",
             "run mean (s)", "run total (s)"],
            rows, title="worker utilization",
        ))
    rollup = doc.get("rollup", {})
    health = rollup.get("health", {})
    sev = health.get("by_severity", {})
    blocks.append(
        "health rollup\n"
        f"  documents    : {health.get('documents', 0)}\n"
        f"  findings     : {health.get('findings', 0)}"
        + (
            " (" + ", ".join(f"{k}: {v}" for k, v in sorted(sev.items()))
            + ")" if sev else ""
        )
    )
    cache = rollup.get("cache")
    if cache:
        blocks.append(
            "cache rollup\n"
            f"  hit ratio    : {cache.get('cache_hit_ratio', 0.0):.2%}\n"
            f"  computed     : {cache.get('computed', 0)}\n"
            f"  cached       : {cache.get('cached', 0)}"
        )
    for entry in doc.get("trend", []):
        regressed = [c for c in entry.get("cells", []) if c.get("regressed")]
        blocks.append(
            f"trend vs {entry.get('baseline')}: "
            f"{len(entry.get('cells', []))} cell(s), "
            f"{len(regressed)} regressed"
            + (
                "\n" + "\n".join(
                    f"  REGRESSED {c['name']}: {c['baseline_s']:.4f}s → "
                    f"{c['current_s']:.4f}s (+{c['delta']:.1%})"
                    for c in regressed
                ) if regressed else ""
            )
        )
    missing = heatmap.get("missing", [])
    if missing:
        blocks.append(
            f"note: {len(missing)} axis combination(s) have no stored row"
        )
    return "\n\n".join(blocks)


def render_fleet_csv(doc: dict) -> str:
    """One CSV row per heatmap cell (spreadsheet surface)."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "grid", "bcast", "scenario", "key", "label", "elapsed_s",
        "gflops_per_gcd", "total_flops_per_s", "variability",
    ])
    for cell in doc.get("heatmap", {}).get("cells", []):
        writer.writerow([
            cell.get("grid"), cell.get("bcast"), cell.get("scenario"),
            cell.get("key"), cell.get("label"), cell.get("elapsed_s"),
            cell.get("gflops_per_gcd"), cell.get("total_flops_per_s"),
            cell.get("variability"),
        ])
    return buf.getvalue()
