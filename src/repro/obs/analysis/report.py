"""The combined profile report: build, serialize, render, compare.

:func:`build_profile` runs every analysis in this package over one
:class:`~repro.obs.analysis.loaders.ProfileInput` and returns a
:class:`ProfileReport` that can render as an ASCII report (``repro
profile``), serialize to a schema-versioned JSON document
(:data:`PROFILE_SCHEMA`, checked by ``repro lint``'s profile-schema
checker), flatten to CSV rows, or diff against a previously saved
report for regression gating (:func:`compare_profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.analysis.comm_matrix import CommMatrix, comm_matrix
from repro.obs.analysis.critical_path import CriticalPathResult, critical_path
from repro.obs.analysis.deviation import (
    DeviationReport,
    Regression,
    measured_phase_seconds,
    model_vs_measured,
    regression_deltas,
)
from repro.obs.analysis.imbalance import ImbalanceReport, load_imbalance
from repro.obs.analysis.loaders import ProfileInput, config_from_provenance
from repro.util.format import render_table

#: schema tag of serialized profile reports (bump on breaking change)
PROFILE_SCHEMA = "repro.obs.profile/v1"

#: dense comm matrices beyond this world size are omitted from JSON
_MATRIX_RANK_CAP = 64


@dataclass
class ProfileReport:
    """Everything ``repro profile`` knows about one run."""

    source: str
    elapsed: float
    num_ranks: int
    num_spans: int
    path: CriticalPathResult
    imbalance: ImbalanceReport
    comm: CommMatrix
    #: busiest-rank measured seconds per phase (regression-gate basis)
    phase_seconds: Dict[str, float]
    deviation: Optional[DeviationReport] = None
    provenance: Optional[dict] = None

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Schema-versioned JSON document (:data:`PROFILE_SCHEMA`)."""
        doc = {
            "schema": PROFILE_SCHEMA,
            "source": self.source,
            "elapsed_s": self.elapsed,
            "num_ranks": self.num_ranks,
            "num_spans": self.num_spans,
            "critical_path": {
                "bounding_phase": self.path.bounding_phase,
                "coverage": round(self.path.coverage, 6),
                "num_segments": len(self.path.index),
                "phase_seconds": {
                    p: s for p, s in self.path.phase_seconds.items()
                },
                "step_bound": {
                    str(k): p for k, p in self.path.step_bound.items()
                },
            },
            "imbalance": {
                "threshold": self.imbalance.threshold,
                "mean_busy_fraction": round(
                    self.imbalance.mean_busy_fraction, 6
                ),
                "stragglers": list(self.imbalance.stragglers),
                "ranks": [
                    {
                        "rank": r.rank,
                        "busy_s": r.busy_s,
                        "wait_s": r.wait_s,
                        "busy_fraction": round(r.busy_fraction, 6),
                        "idle_fraction": round(r.idle_fraction, 6),
                    }
                    for r in self.imbalance.ranks
                ],
                "phases": [
                    {
                        "phase": p.phase,
                        "mean_s": p.mean_s,
                        "max_s": p.max_s,
                        "max_rank": p.max_rank,
                        "imbalance": round(p.imbalance, 6),
                    }
                    for p in self.imbalance.phases
                ],
            },
            "comm": {
                "total_bytes": self.comm.total_bytes,
                "total_messages": self.comm.total_messages,
                "intra_bytes": self.comm.intra_bytes,
                "inter_bytes": self.comm.inter_bytes,
                "bytes_by_phase": dict(self.comm.bytes_by_phase),
                "top_pairs": [
                    list(t) for t in self.comm.top_pairs(10)
                ],
            },
            "phase_seconds": dict(self.phase_seconds),
            "provenance": self.provenance,
        }
        if self.num_ranks <= _MATRIX_RANK_CAP:
            doc["comm"]["matrix"] = self.comm.matrix()
        if self.deviation is not None:
            dev = self.deviation
            doc["deviation"] = {
                "measured_total_s": dev.measured_total,
                "model_total_s": dev.model_total,
                "total_deviation": dev.total_deviation,
                "phases": [
                    {
                        "phase": p.phase,
                        "measured_s": p.measured_s,
                        "model_s": p.model_s,
                        "deviation": p.deviation,
                    }
                    for p in dev.phases
                ],
            }
        return doc

    # -- rendering --------------------------------------------------------

    def render_text(self) -> str:
        """The four-section ASCII report ``repro profile`` prints."""
        blocks = [self._render_header(), self._render_path(),
                  self._render_imbalance(), self._render_comm()]
        if self.deviation is not None:
            blocks.append(self._render_deviation())
        return "\n\n".join(blocks)

    def _render_header(self) -> str:
        lines = [
            f"profile: {self.source}",
            f"  elapsed {self.elapsed:.4f}s over {self.num_ranks} rank(s), "
            f"{self.num_spans} spans",
        ]
        if self.provenance and isinstance(self.provenance.get("config"), dict):
            c = self.provenance["config"]
            lines.append(
                f"  run: {c.get('machine')} N={c.get('N')} B={c.get('B')} "
                f"grid={c.get('grid')} bcast={c.get('bcast')}"
            )
        return "\n".join(lines)

    def _render_path(self) -> str:
        rows = [
            [phase, f"{secs:.4f}",
             f"{secs / self.elapsed:.1%}" if self.elapsed > 0 else "-"]
            for phase, secs in self.path.phase_seconds.items()
        ]
        title = (
            f"critical path: bounded by {self.path.bounding_phase or '-'} "
            f"({len(self.path.index)} segments, "
            f"{self.path.coverage:.1%} of wall time attributed)"
        )
        return render_table(["phase", "path_s", "of wall"], rows, title=title)

    def _render_imbalance(self) -> str:
        rows = [
            [p.phase, f"{p.mean_s:.4f}", f"{p.max_s:.4f}",
             p.max_rank, f"{p.imbalance:.3f}"]
            for p in self.imbalance.phases
        ]
        extra = (
            f"stragglers: ranks {self.imbalance.stragglers}"
            if self.imbalance.stragglers else "no stragglers flagged"
        )
        title = (
            f"load balance: mean busy "
            f"{self.imbalance.mean_busy_fraction:.1%}, {extra} "
            f"(threshold {self.imbalance.threshold:.0%} over median)"
        )
        return render_table(
            ["phase", "mean_s", "max_s", "max_rank", "max/mean"],
            rows, title=title,
        )

    def _render_comm(self) -> str:
        rows = [
            [src, dst, _fmt_bytes(b), m]
            for src, dst, b, m in self.comm.top_pairs(10)
        ]
        total = self.comm.total_bytes
        intra = (
            self.comm.intra_bytes / total if total else 0.0
        )
        by_phase = ", ".join(
            f"{p} {_fmt_bytes(b)}"
            for p, b in sorted(
                self.comm.bytes_by_phase.items(), key=lambda kv: -kv[1]
            )
        )
        title = (
            f"comm matrix: {_fmt_bytes(total)} in "
            f"{self.comm.total_messages} msgs, {intra:.0%} intra-node"
            + (f" | {by_phase}" if by_phase else "")
        )
        return render_table(
            ["src", "dst", "bytes", "msgs"], rows, title=title
        )

    def _render_deviation(self) -> str:
        dev = self.deviation
        rows = [
            [p.phase, f"{p.measured_s:.4f}", f"{p.model_s:.4f}",
             f"{p.deviation:+.1%}" if p.deviation is not None else "-"]
            for p in dev.phases
        ]
        total = dev.total_deviation
        title = (
            f"model vs measured: total {dev.measured_total:.4f}s vs "
            f"{dev.model_total:.4f}s modelled"
            + (f" ({total:+.1%})" if total is not None else "")
        )
        return render_table(
            ["phase", "measured_s", "model_s", "deviation"], rows, title=title
        )

    def csv_rows(self) -> List[List[object]]:
        """Flat ``section,name,value`` rows (spreadsheet-friendly)."""
        rows: List[List[object]] = [["section", "name", "value"]]
        rows.append(["run", "elapsed_s", self.elapsed])
        rows.append(["run", "num_ranks", self.num_ranks])
        rows.append(["run", "num_spans", self.num_spans])
        rows.append(
            ["critical_path", "bounding_phase", self.path.bounding_phase]
        )
        for phase, secs in self.path.phase_seconds.items():
            rows.append(["critical_path", phase, secs])
        for p in self.imbalance.phases:
            rows.append(["imbalance", p.phase, p.imbalance])
        for r in self.imbalance.ranks:
            rows.append(["busy_fraction", f"rank{r.rank}", r.busy_fraction])
        for phase, b in sorted(self.comm.bytes_by_phase.items()):
            rows.append(["comm_bytes", phase, b])
        for phase, secs in self.phase_seconds.items():
            rows.append(["phase_seconds", phase, secs])
        if self.deviation is not None:
            for p in self.deviation.phases:
                if p.deviation is not None:
                    rows.append(["deviation", p.phase, p.deviation])
        return rows


def _fmt_bytes(b: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(b) < 1024 or unit == "GiB":
            return f"{b:.1f}{unit}" if unit != "B" else f"{b}B"
        b /= 1024.0
    return f"{b}B"  # pragma: no cover


def build_profile(
    pi: ProfileInput,
    cfg=None,
    threshold: float = 0.02,
    with_model: bool = True,
) -> ProfileReport:
    """Run every analysis over one input.

    ``cfg`` enables the model-vs-measured section; when None it is
    rebuilt from the input's provenance when possible (``with_model=
    False`` skips the section entirely).
    """
    if not len(pi):
        raise ConfigurationError(
            f"{pi.source}: no spans to analyze (was the run traced?)"
        )
    path = critical_path(pi, pi.elapsed)
    imb = load_imbalance(pi, pi.elapsed, pi.num_ranks, threshold)
    comm = comm_matrix(pi, pi.num_ranks)
    phase_seconds = measured_phase_seconds(pi, pi.num_ranks)
    deviation = None
    if with_model:
        if cfg is None and pi.provenance:
            try:
                cfg = config_from_provenance(pi.provenance)
            except ConfigurationError:
                cfg = None
        if cfg is not None:
            deviation = model_vs_measured(
                pi, cfg, pi.elapsed, pi.num_ranks
            )
    return ProfileReport(
        source=pi.source,
        elapsed=pi.elapsed,
        num_ranks=pi.num_ranks,
        num_spans=len(pi),
        path=path,
        imbalance=imb,
        comm=comm,
        phase_seconds=phase_seconds,
        deviation=deviation,
        provenance=pi.provenance,
    )


def compare_profiles(
    current: dict,
    baseline: dict,
    threshold: float,
    min_seconds: float = 1e-6,
) -> List[Regression]:
    """Per-phase regression deltas between two serialized reports.

    Both documents must be :data:`PROFILE_SCHEMA` dicts (e.g. from
    ``repro profile --format json``); the comparison basis is their
    busiest-rank ``phase_seconds`` maps plus total elapsed.
    """
    for name, doc in (("current", current), ("baseline", baseline)):
        if not isinstance(doc, dict) or "phase_seconds" not in doc:
            raise ConfigurationError(
                f"{name} document is not a profile report "
                f"(missing 'phase_seconds'; expected schema {PROFILE_SCHEMA})"
            )
    cur = dict(current["phase_seconds"])
    base = dict(baseline["phase_seconds"])
    cur["total_elapsed"] = float(current.get("elapsed_s", 0.0))
    base["total_elapsed"] = float(baseline.get("elapsed_s", 0.0))
    return regression_deltas(cur, base, threshold, min_seconds=min_seconds)
