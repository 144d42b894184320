"""Self-contained HTML dashboard for a monitored run.

:func:`render_dashboard` turns a trace (:class:`ProfileInput`) plus an
optional health document into **one** HTML file with zero external
references — inline CSS and inline SVG only, so the artifact can be
attached to a CI run or mailed around and will render identically on
an air-gapped machine (the paper's runs live on closed systems; so do
their dashboards).  :func:`validate_self_contained` is the guard CI
uses to keep it that way.

Panels:

- run header (machine, ranks, elapsed, findings count);
- per-rank timeline — a Gantt strip per rank, spans colored by phase,
  health findings drawn as vertical markers at their onset time;
- communication heatmap — src x dst bytes from the transfer spans;
- time-series small multiples from the health document (GF/s, queue
  depth, bytes in flight, cache hit ratio, per-rank busy seconds);
- findings table.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis.comm_matrix import comm_matrix
from repro.obs.analysis.loaders import ProfileInput, phase_of_span

#: timelines render at most this many rank rows (matches the profile
#: report's matrix cap)
MAX_TIMELINE_RANKS = 64

#: spans shorter than elapsed / this are dropped from the timeline SVG
SPAN_DETAIL = 2000

#: substrings that would make the document reach off-host; the
#: validator greps for these and CI fails the build on any hit
_EXTERNAL_MARKERS = ("http://", "https://", "<script src", "@import", "url(")

_PHASE_COLORS = {
    "panel": "#4e79a7",
    "panel_bcast": "#76b7b2",
    "diag_bcast": "#59a14f",
    "gemm": "#f28e2b",
    "trsm": "#edc948",
    "ir": "#b07aa1",
    "collective": "#9c755f",
    "comm": "#bab0ac",
    "health": "#e15759",
}
_FALLBACK_COLOR = "#79706e"
_SEVERITY_COLORS = {"critical": "#e15759", "warning": "#f1a204"}

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 1.2em 2em;
       color: #222; background: #fafafa; }
h1 { font-size: 1.25em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: left; }
th { background: #eee; }
.meta span { margin-right: 1.6em; color: #555; }
.meta b { color: #111; }
svg { background: #fff; border: 1px solid #ddd; }
.legend span { display: inline-block; margin-right: 1em; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; border-radius: 2px; }
.sev-critical { color: #c0392b; font-weight: 600; }
.sev-warning { color: #b9770e; font-weight: 600; }
.healthy { color: #1e8449; font-weight: 600; }
"""


def render_dashboard(
    pi: ProfileInput,
    health: Optional[dict] = None,
    title: str = "repro run dashboard",
) -> str:
    """Render the full dashboard as one self-contained HTML string."""
    health = health or {}
    findings = health.get("findings") or []
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
        _header_html(pi, health, findings),
    ]
    parts.append("<h2>Per-rank timeline</h2>")
    parts.append(_legend_html(pi))
    parts.append(_timeline_svg(pi, findings))
    parts.append("<h2>Communication heatmap (bytes)</h2>")
    parts.append(_heatmap_svg(pi))
    series = health.get("series") or {}
    if series:
        parts.append("<h2>Health time series</h2>")
        parts.append(_series_html(series))
    parts.append("<h2>Findings</h2>")
    parts.append(_findings_html(findings, health))
    parts.append("</body></html>")
    return "\n".join(parts)


def validate_self_contained(html: str) -> List[str]:
    """Problem strings for every external reference found (empty = ok)."""
    problems = []
    for marker in _EXTERNAL_MARKERS:
        count = html.count(marker)
        if count:
            problems.append(
                f"document references external resources: "
                f"{count} occurrence(s) of {marker!r}"
            )
    return problems


# -- building blocks -------------------------------------------------------


def _esc(s) -> str:
    return _html.escape(str(s), quote=True)


def _header_html(pi: ProfileInput, health: dict, findings: list) -> str:
    cells = [
        f"<span>ranks <b>{pi.num_ranks}</b></span>",
        f"<span>elapsed <b>{pi.elapsed:.4f}s</b></span>",
        f"<span>spans <b>{len(pi.spans)}</b></span>",
    ]
    if health:
        cells.append(
            f"<span>samples <b>{health.get('num_samples', 0)}</b></span>"
        )
        wd = health.get("watchdog") or {}
        if wd.get("tripped"):
            cells.append('<span class="sev-critical">watchdog TRIPPED</span>')
    if findings:
        worst = (
            "critical"
            if any(f.get("severity") == "critical" for f in findings)
            else "warning"
        )
        cells.append(
            f'<span class="sev-{worst}">{len(findings)} finding(s)</span>'
        )
    else:
        cells.append('<span class="healthy">no health findings</span>')
    source = _esc(pi.source)
    cells.append(f"<span>source <b>{source}</b></span>")
    return f'<p class="meta">{" ".join(cells)}</p>'


def _color_of(phase: str) -> str:
    return _PHASE_COLORS.get(phase, _FALLBACK_COLOR)


def _legend_html(pi: ProfileInput) -> str:
    phases = sorted({phase_of_span(s) for s in pi.spans})
    items = "".join(
        f'<span><i style="background:{_color_of(p)}"></i>{_esc(p)}</span>'
        for p in phases
    )
    return f'<p class="legend">{items}</p>'


def _timeline_svg(pi: ProfileInput, findings: list) -> str:
    elapsed = pi.elapsed if pi.elapsed > 0 else 1.0
    ranks = sorted({s.rank for s in pi.spans if s.rank >= 0})
    shown = ranks[:MAX_TIMELINE_RANKS]
    if not shown:
        return "<p>no rank-attributed spans in the trace</p>"
    row_h, gap, left, width = 16, 4, 58, 940
    height = len(shown) * (row_h + gap) + 26
    sx = width / elapsed
    min_dur = elapsed / SPAN_DETAIL
    rows: List[str] = []
    row_of = {r: i for i, r in enumerate(shown)}
    for r in shown:
        y = row_of[r] * (row_h + gap) + 4
        rows.append(
            f'<text x="4" y="{y + row_h - 4}" font-size="11" '
            f'fill="#555">rank {r}</text>'
        )
    dropped = 0
    for s in pi.spans:
        if s.rank not in row_of:
            continue
        dur = s.end - s.start
        if 0 < dur < min_dur:
            dropped += 1
            continue
        y = row_of[s.rank] * (row_h + gap) + 4
        x = left + s.start * sx
        w = max(dur * sx, 0.5)
        phase = phase_of_span(s)
        rows.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_h}" '
            f'fill="{_color_of(phase)}">'
            f"<title>{_esc(s.name)} [{_esc(phase)}] rank {s.rank} "
            f"{s.start:.5f}-{s.end:.5f}s</title></rect>"
        )
    for f in findings:
        t = f.get("t_s")
        if t is None:
            continue
        x = left + min(float(t), elapsed) * sx
        color = _SEVERITY_COLORS.get(f.get("severity"), "#e15759")
        rows.append(
            f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" '
            f'y2="{height - 20}" stroke="{color}" stroke-width="1.5" '
            f'stroke-dasharray="4,3">'
            f"<title>{_esc(f.get('kind'))} @ {float(t):.4f}s: "
            f"{_esc(f.get('message', ''))}</title></line>"
        )
    axis_y = height - 14
    rows.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{left + width}" '
        f'y2="{axis_y}" stroke="#999"/>'
    )
    for i in range(5):
        t = elapsed * i / 4
        x = left + t * sx
        rows.append(
            f'<text x="{x:.1f}" y="{height - 2}" font-size="10" '
            f'fill="#777" text-anchor="middle">{t:.3g}s</text>'
        )
    note = (
        f"<p>{dropped} span(s) shorter than {min_dur:.2e}s not drawn; "
        f"{len(ranks) - len(shown)} rank(s) beyond the first "
        f"{MAX_TIMELINE_RANKS} omitted.</p>"
        if (dropped or len(ranks) > len(shown))
        else ""
    )
    svg = (
        f'<svg width="{left + width + 8}" height="{height}" '
        f'viewBox="0 0 {left + width + 8} {height}">'
        + "".join(rows)
        + "</svg>"
    )
    return svg + note


def _heatmap_svg(pi: ProfileInput) -> str:
    cm = comm_matrix(pi, pi.num_ranks)
    m = cm.matrix()
    n = min(len(m), MAX_TIMELINE_RANKS)
    if n == 0 or not cm.bytes_by_pair:
        return "<p>no point-to-point transfers in the trace</p>"
    peak = max(max(row[:n]) for row in m[:n]) or 1
    cell = max(6, min(22, 620 // n))
    left, top = 40, 20
    size_w = left + n * cell + 8
    size_h = top + n * cell + 26
    rows: List[str] = []
    for src in range(n):
        for dst in range(n):
            v = m[src][dst]
            shade = (v / peak) ** 0.5 if v else 0.0
            rows.append(
                f'<rect x="{left + dst * cell}" y="{top + src * cell}" '
                f'width="{cell - 1}" height="{cell - 1}" '
                f'fill="rgb({int(255 - 205 * shade)},'
                f"{int(255 - 155 * shade)},255)\">"
                f"<title>rank {src} → rank {dst}: {int(v)} bytes</title>"
                f"</rect>"
            )
    step = max(1, n // 8)
    for r in range(0, n, step):
        rows.append(
            f'<text x="{left - 6}" y="{top + r * cell + cell * 0.7:.1f}" '
            f'font-size="9" fill="#777" text-anchor="end">{r}</text>'
        )
        rows.append(
            f'<text x="{left + r * cell + cell / 2:.1f}" y="{top - 6}" '
            f'font-size="9" fill="#777" text-anchor="middle">{r}</text>'
        )
    rows.append(
        f'<text x="{left}" y="{size_h - 8}" font-size="10" fill="#555">'
        f"rows: source rank, columns: destination rank "
        f"(peak {int(peak)} bytes)</text>"
    )
    return (
        f'<svg width="{size_w}" height="{size_h}" '
        f'viewBox="0 0 {size_w} {size_h}">' + "".join(rows) + "</svg>"
    )


def _series_html(series: Dict[str, dict]) -> str:
    """Small-multiple polyline charts from a health-report series dump."""
    global_keys = [k for k in series if "/" not in k]
    rank_groups: Dict[str, List[Tuple[str, dict]]] = {}
    for k in series:
        if "/" in k:
            base = k.split("/", 1)[0]
            rank_groups.setdefault(base, []).append((k, series[k]))
    charts = []
    for name in sorted(global_keys):
        charts.append(_chart_svg(name, [(name, series[name])]))
    # Per-rank overlays on one chart per base name so a drifting rank is
    # visible as the diverging line.
    for base in sorted(rank_groups):
        charts.append(_chart_svg(base + " (per rank)", rank_groups[base]))
    return "\n".join(c for c in charts if c)


def _chart_svg(title: str, lines: List[Tuple[str, dict]]) -> str:
    w, h, left, top = 300, 90, 8, 16
    all_t: List[float] = []
    all_v: List[float] = []
    for _name, doc in lines:
        all_t.extend(doc.get("t") or [])
        all_v.extend(doc.get("v") or [])
    if len(all_t) < 2:
        return ""
    t0, t1 = min(all_t), max(all_t)
    v0, v1 = min(all_v), max(all_v)
    if t1 <= t0:
        return ""
    if v1 <= v0:
        v1 = v0 + 1.0
    sx = (w - left - 4) / (t1 - t0)
    sy = (h - top - 8) / (v1 - v0)
    polys = []
    palette = list(_PHASE_COLORS.values())
    for i, (_name, doc) in enumerate(sorted(lines)):
        ts, vs = doc.get("t") or [], doc.get("v") or []
        pts = " ".join(
            f"{left + (t - t0) * sx:.1f},{h - 8 - (v - v0) * sy:.1f}"
            for t, v in zip(ts, vs)
        )
        color = palette[i % len(palette)]
        polys.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.3"/>'
        )
    label = (
        f'<text x="{left}" y="11" font-size="10" fill="#333">'
        f"{_esc(title)} [{v0:.3g} … {v1:.3g}]</text>"
    )
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" '
        f'style="margin:0 8px 8px 0">' + label + "".join(polys) + "</svg>"
    )


def _findings_html(findings: list, health: dict) -> str:
    if not findings:
        return '<p class="healthy">none — the run looks healthy.</p>'
    rows = [
        "<table><tr><th>t (s)</th><th>kind</th><th>severity</th>"
        "<th>ranks</th><th>message</th></tr>"
    ]
    for f in findings:
        sev = f.get("severity", "?")
        ranks = ", ".join(str(r) for r in (f.get("ranks") or [])) or "global"
        rows.append(
            f"<tr><td>{float(f.get('t_s', 0)):.4f}</td>"
            f"<td>{_esc(f.get('kind', '?'))}</td>"
            f'<td class="sev-{_esc(sev)}">{_esc(sev)}</td>'
            f"<td>{_esc(ranks)}</td>"
            f"<td>{_esc(f.get('message', ''))}</td></tr>"
        )
    rows.append("</table>")
    degraded = health.get("degraded_ranks") or []
    if degraded:
        rows.append(
            "<p>degraded rank(s): <b>"
            + ", ".join(str(r) for r in degraded)
            + "</b></p>"
        )
    return "".join(rows)
