"""Lint surface of the communication-schedule verifier.

Three checkers expose :mod:`repro.analyze.schedule` through
``repro lint``:

- ``comm-schedule`` (:class:`CommScheduleChecker`) — extracts the
  schedule for a small default configuration matrix and reports
  deadlocks, orphan messages, and collective asymmetry;
- ``comm-race`` (:class:`CommRaceChecker`) — same extraction, reports
  the race findings (tag aliasing, unserialized channel reuse);
- ``trace-conformance`` (:class:`TraceConformanceChecker`) — an
  artifact checker claiming exported Chrome traces with provenance and
  replaying them against the extracted static schedule.

Extraction actually runs the rank programs, so the two program
checkers only fire when explicitly ``--select``-ed or when comm/core/
simulate sources are part of the analyzed set (editing those layers is
what can break the schedule).  The default matrix is deliberately
tiny — the full grid sweep lives in ``repro verify-comm`` and CI.
One extraction pass is shared between both checkers via a module-level
memo keyed by the case matrix.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import ArtifactChecker, ProgramChecker

#: editing any of these layers can change the communication schedule
_TRIGGER_PARTS = (
    ("repro", "comm"),
    ("repro", "core"),
    ("repro", "simulate"),
)

#: the default lint-time proof matrix: smallest interesting grids, the
#: tree broadcast plus one ring variant, routed and inband progression
_DEFAULT_CASES: Tuple[dict, ...] = (
    {"program": "hplai", "p_rows": 2, "p_cols": 2, "bcast": "bcast",
     "progression": "routed", "lookahead": True, "n": 128, "block": 32},
    {"program": "hplai", "p_rows": 2, "p_cols": 3, "bcast": "ring2m",
     "progression": "inband", "lookahead": False, "n": 192, "block": 32},
    {"program": "hpl", "p_rows": 2, "p_cols": 2, "n": 64, "block": 8},
)

#: one extraction+analysis pass per process, shared by both checkers
_memo: Dict[Tuple, List] = {}


def _default_reports():
    """Extract and analyze the default case matrix (memoized)."""
    key = tuple(sorted(str(sorted(c.items())) for c in _DEFAULT_CASES))
    if key not in _memo:
        from repro.analyze.schedule.extract import ScheduleCase, extract_case
        from repro.analyze.schedule.hb import analyze_schedule

        reports = []
        for desc in _DEFAULT_CASES:
            case = ScheduleCase(**desc)
            result = extract_case(case)
            if not result.completed:
                reports.append((case, result, None))
            else:
                report = analyze_schedule(result.schedule, matching=result.matching)
                reports.append((case, result, report))
        _memo[key] = reports
    return _memo[key]


def _triggered(py_files: Sequence[str]) -> bool:
    for path in py_files:
        parts = Path(path).parts
        for layer in _TRIGGER_PARTS:
            for i in range(len(parts) - len(layer) + 1):
                if tuple(parts[i:i + len(layer)]) == layer:
                    return True
    return False


def _site_of(finding_text: str, default: str) -> Tuple[str, int]:
    """Best-effort source attribution: the first ``file:line`` yield
    site mentioned in a counterexample, else the default path."""
    for token in finding_text.split():
        if token.count(":") == 1 and token.endswith(tuple("0123456789")):
            file, _, line = token.partition(":")
            if file.endswith(".py"):
                try:
                    return file, int(line)
                except ValueError:
                    continue
    return default, 0


class _ScheduleCheckerBase(ProgramChecker):
    #: which HbFinding rules this lint checker surfaces
    rules: Tuple[str, ...] = ()

    def triggered_by(self, py_files: Sequence[str]) -> bool:
        return _triggered(py_files)

    def check_program(self, py_files: Sequence[str]) -> Iterable[Finding]:
        for case, result, report in _default_reports():
            label = case.label()
            if report is None:
                if "comm-schedule" in self.rules or not self.rules:
                    path, line = "src/repro/core", 0
                    yield Finding(
                        checker=self.id, path=path, line=line,
                        message=(
                            f"schedule extraction failed for {label}: "
                            f"{result.error or 'deadlock'}"
                        ),
                        severity=Severity.ERROR,
                    )
                continue
            for hb in report.findings:
                if hb.rule not in self.rules:
                    continue
                path, line = _site_of(
                    hb.counterexample or hb.message, "src/repro/core",
                )
                message = f"[{label}] {hb.message}"
                if hb.counterexample:
                    message += "\n" + hb.counterexample
                yield Finding(
                    checker=self.id, path=path, line=line, message=message,
                    severity=(
                        Severity.ERROR if hb.severity == "error"
                        else Severity.WARNING
                    ),
                )


class CommScheduleChecker(_ScheduleCheckerBase):
    """Deadlock-freedom, matching, and collective symmetry proofs."""

    id = "comm-schedule"
    description = (
        "extract the communication schedule for small grids and prove "
        "deadlock freedom, send/recv matching, collective symmetry"
    )
    rules = ("comm-deadlock", "comm-orphan", "comm-collective")


class CommRaceChecker(_ScheduleCheckerBase):
    """Message-race detection over the same extracted schedules."""

    id = "comm-race"
    description = (
        "detect wire-tag aliasing and unserialized channel reuse in the "
        "extracted communication schedule"
    )
    rules = ("comm-race",)


class TraceConformanceChecker(ArtifactChecker):
    """Replay an exported trace against the static schedule."""

    id = "trace-conformance"
    description = (
        "check a recorded trace (Chrome JSON with provenance) against "
        "the extracted static communication schedule"
    )

    def matches(self, path: str) -> bool:
        # a Chrome trace opens with "traceEvents"; the provenance block
        # rides at the end inside "otherData"
        if not path.endswith(".json"):
            return False
        try:
            with Path(path).open("rb") as fh:
                head = fh.read(4096)
                fh.seek(0, 2)
                size = fh.tell()
                fh.seek(max(0, size - 4096))
                tail = fh.read()
        except OSError:
            return False
        return b'"traceEvents"' in head and b'"provenance"' in (head + tail)

    def check_file(self, path: str) -> Iterable[Finding]:
        from repro.analyze.schedule.conformance import conformance_from_trace
        from repro.errors import ReproError

        try:
            report = conformance_from_trace(path)
        except (ReproError, ValueError, OSError, json.JSONDecodeError) as exc:
            yield Finding(
                checker=self.id, path=path, line=0,
                message=f"conformance replay failed: {exc}",
                severity=Severity.ERROR,
            )
            return
        for issue in report.issues:
            yield Finding(
                checker=self.id, path=path, line=0,
                message=f"[{report.label}] {issue.message}",
                severity=(
                    Severity.ERROR if issue.severity == "error"
                    else Severity.WARNING
                ),
            )
