"""``trace-schema`` / ``profile-schema``: validate exported JSON artifacts.

:func:`check_trace` validates a parsed trace document;
:class:`TraceSchemaChecker` adapts it to the :mod:`repro.analyze`
framework so ``repro lint trace.json`` is the single entry point.
:func:`check_profile_report` / :class:`ProfileReportChecker` do the
same for ``repro profile --format json`` reports
(:data:`~repro.obs.analysis.report.PROFILE_SCHEMA`); each checker
recognizes and skips the other's documents, so both can run in the
default suite over a mixed artifact set.

Checks (see docs/OBSERVABILITY.md):

- the file is *strict* JSON (no bare NaN/Infinity tokens);
- top level is an object with a ``traceEvents`` list and an
  ``otherData`` object carrying the schema version;
- every event has ``name``/``ph``/``pid``/``tid``, phases are ``X``
  (complete span), ``M`` (metadata) or ``C`` (counter), and ``X``
  events carry a category plus non-negative ``ts``/``dur``
  microsecond numbers;
- with ``require_layers``, spans from the ``engine``, ``executor`` and
  ``comm`` layers must all be present (what any instrumented benchmark
  run produces).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List

from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import ArtifactChecker
from repro.obs.analysis.report import PROFILE_SCHEMA

#: layers an instrumented benchmark run must emit spans from
REQUIRED_LAYERS = ("engine", "executor", "comm")

VALID_PHASES = {"X", "M", "C"}


def _is_profile_doc(doc) -> bool:
    return isinstance(doc, dict) and doc.get("schema") == PROFILE_SCHEMA


def _fail_on_constant(token):
    raise ValueError(f"non-strict JSON token {token!r}")


def check_trace(doc: dict, require_layers: bool = False) -> List[str]:
    """Return a list of problem strings (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' list is missing"]
    other = doc.get("otherData")
    if not isinstance(other, dict):
        problems.append("top-level 'otherData' object is missing")
    elif not isinstance(other.get("schema"), int):
        problems.append("otherData.schema version (int) is missing")

    cats = set()
    span_count = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: event must be an object")
            continue
        for key, types in (("name", str), ("ph", str),
                           ("pid", int), ("tid", int)):
            if not isinstance(ev.get(key), types):
                problems.append(f"{where}: missing/invalid {key!r}")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            problems.append(
                f"{where}: phase {ph!r} not in {sorted(VALID_PHASES)}"
            )
        if ph == "X":
            span_count += 1
            if not isinstance(ev.get("cat"), str):
                problems.append(f"{where}: span missing 'cat'")
            else:
                cats.add(ev["cat"])
            for key in ("ts", "dur"):
                val = ev.get(key)
                if not isinstance(val, (int, float)) or val < 0:
                    problems.append(
                        f"{where}: {key!r} must be a non-negative number, "
                        f"got {val!r}"
                    )
            if "args" in ev and not isinstance(ev["args"], dict):
                problems.append(f"{where}: 'args' must be an object")

    if span_count == 0:
        problems.append("trace contains no 'X' (complete span) events")
    if require_layers:
        missing = [c for c in REQUIRED_LAYERS if c not in cats]
        if missing:
            problems.append(
                f"missing spans from required layer(s): {', '.join(missing)} "
                f"(found categories: {sorted(cats) or 'none'})"
            )
    return problems


def load_strict_json(path: str):
    """Parse ``path`` as strict JSON (bare NaN/Infinity are rejected)."""
    return json.loads(
        Path(path).read_text(), parse_constant=_fail_on_constant
    )


class TraceSchemaChecker(ArtifactChecker):
    id = "trace-schema"
    description = "exported Chrome-trace JSON matches the documented schema"

    def __init__(self, require_layers: bool = False):
        self.require_layers = require_layers

    def matches(self, path: str) -> bool:
        return path.endswith(".json")

    def check_file(self, path: str) -> Iterable[Finding]:
        try:
            doc = load_strict_json(path)
        except (ValueError, OSError) as exc:
            yield Finding(
                checker=self.id, path=path, line=0,
                severity=Severity.ERROR,
                message=f"not strict JSON: {exc}",
            )
            return
        if _is_profile_doc(doc):
            # ProfileReportChecker's document, not a trace.
            return
        from repro.analyze.checkers.health_schema import _is_health_doc

        if _is_health_doc(doc):
            # HealthReportChecker's document, not a trace.
            return
        from repro.analyze.checkers.scenario_schema import _is_scenario_doc

        if _is_scenario_doc(doc):
            # ScenarioChecker's document, not a trace.
            return
        from repro.analyze.checkers.fleet_schema import _is_fleet_doc

        if _is_fleet_doc(doc):
            # FleetSchemaChecker's document, not a trace.
            return
        for problem in check_trace(doc, require_layers=self.require_layers):
            yield Finding(
                checker=self.id, path=path, line=0,
                severity=Severity.ERROR, message=problem,
            )


def check_profile_report(doc) -> List[str]:
    """Validate a ``repro profile --format json`` document.

    Returns a list of problem strings (empty = valid).
    """
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    elapsed = doc.get("elapsed_s")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        problems.append("'elapsed_s' must be a non-negative number")
    num_ranks = doc.get("num_ranks")
    if not isinstance(num_ranks, int) or num_ranks < 1:
        problems.append("'num_ranks' must be a positive int")
    if not isinstance(doc.get("num_spans"), int):
        problems.append("'num_spans' must be an int")

    path_sec = doc.get("critical_path")
    if not isinstance(path_sec, dict):
        problems.append("'critical_path' object is missing")
    else:
        cov = path_sec.get("coverage")
        if not isinstance(cov, (int, float)) or not 0 <= cov <= 1:
            problems.append("critical_path.coverage must be in [0, 1]")
        if not isinstance(path_sec.get("phase_seconds"), dict):
            problems.append("critical_path.phase_seconds object is missing")

    imb = doc.get("imbalance")
    if not isinstance(imb, dict):
        problems.append("'imbalance' object is missing")
    else:
        ranks = imb.get("ranks")
        if not isinstance(ranks, list):
            problems.append("imbalance.ranks list is missing")
        elif isinstance(num_ranks, int) and len(ranks) != num_ranks:
            problems.append(
                f"imbalance.ranks has {len(ranks)} entries for "
                f"{num_ranks} ranks"
            )
        if not isinstance(imb.get("phases"), list):
            problems.append("imbalance.phases list is missing")
        if not isinstance(imb.get("stragglers"), list):
            problems.append("imbalance.stragglers list is missing")

    comm = doc.get("comm")
    if not isinstance(comm, dict):
        problems.append("'comm' object is missing")
    else:
        for key in ("total_bytes", "total_messages"):
            val = comm.get(key)
            if not isinstance(val, int) or val < 0:
                problems.append(f"comm.{key} must be a non-negative int")
        if not isinstance(comm.get("bytes_by_phase"), dict):
            problems.append("comm.bytes_by_phase object is missing")
        if not isinstance(comm.get("top_pairs"), list):
            problems.append("comm.top_pairs list is missing")

    phase_seconds = doc.get("phase_seconds")
    if not isinstance(phase_seconds, dict):
        problems.append("'phase_seconds' object is missing")
    elif not all(
        isinstance(v, (int, float)) for v in phase_seconds.values()
    ):
        problems.append("phase_seconds values must be numbers")

    dev = doc.get("deviation")
    if dev is not None:
        if not isinstance(dev, dict) or not isinstance(
            dev.get("phases"), list
        ):
            problems.append("deviation.phases list is missing")
        else:
            for i, p in enumerate(dev["phases"]):
                if not isinstance(p, dict) or not isinstance(
                    p.get("phase"), str
                ):
                    problems.append(f"deviation.phases[{i}] is malformed")
                    break
    return problems


class ProfileReportChecker(ArtifactChecker):
    id = "profile-schema"
    description = (
        "repro profile JSON reports match the documented schema"
    )

    def matches(self, path: str) -> bool:
        return path.endswith(".json")

    def check_file(self, path: str) -> Iterable[Finding]:
        try:
            doc = load_strict_json(path)
        except (ValueError, OSError) as exc:
            yield Finding(
                checker=self.id, path=path, line=0,
                severity=Severity.ERROR,
                message=f"not strict JSON: {exc}",
            )
            return
        # A document is "ours" when it claims the profile schema, or
        # plainly wants to be one (profile sections present) but got the
        # schema tag wrong.  Anything else (Chrome traces, bench
        # records, run reports) belongs to other checkers.
        looks_like_profile = isinstance(doc, dict) and (
            _is_profile_doc(doc)
            or ("phase_seconds" in doc and "critical_path" in doc)
        )
        if not looks_like_profile:
            return
        for problem in check_profile_report(doc):
            yield Finding(
                checker=self.id, path=path, line=0,
                severity=Severity.ERROR, message=problem,
            )
