"""Artifact schemas: the JSON documents a run writes, checked in one pass.

:data:`SCHEMAS` is one table, a row per checker id: the id and
description ``repro lint --list`` prints, the file suffixes the row
reads, the exact ``schema`` tags it owns, a ``looks_like`` test for a
document of its kind whose tag is wrong, and the pure validator that
turns a parsed document into problem strings.  :class:`SchemaChecker`
answers for every row at once: it strict-parses each artifact once,
lets :func:`claim` pick the one row that owns the document, and reports
that row's problems under its id.

A document is claimed by at most one row, in this order:

1. the row whose tags hold the document's ``schema`` value;
2. the first row, in table order, whose ``looks_like`` holds;
3. ``trace-schema``, the catch-all for any other ``.json`` document.

An unparsable file gives exactly one finding, under the first selected
row that reads its suffix.  ``.jsonl`` files are append-only logs: each
line is parsed on its own and a claimed line is validated as one row.

Validators whose rules belong to another layer delegate to it:
:func:`repro.obs.fleet.report.check_fleet_document`,
:func:`repro.campaign.store.check_result_row` and the scenario DSL's own
constructors (so ``scenario-schema`` can never drift from what the
engines accept).  See docs/STATIC_ANALYSIS.md for what each row checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import ArtifactChecker
from repro.campaign.jobs import RESULT_SCHEMA
from repro.campaign.store import STORE_SCHEMA, check_result_row
from repro.obs.analysis.report import PROFILE_SCHEMA
from repro.obs.fleet.report import FLEET_SCHEMA, check_fleet_document
from repro.obs.health.report import HEALTH_SCHEMA
from repro.scenario.spec import SCENARIO_SCHEMA

#: layers an instrumented benchmark run must emit spans from
REQUIRED_LAYERS = ("engine", "executor", "comm")

VALID_PHASES = {"X", "M", "C"}

#: fields every finding entry must carry (mirrors HealthEvent.to_dict)
_FINDING_KEYS = ("kind", "t_s", "severity", "ranks", "message")

_SEVERITIES = {"info", "warning", "critical"}


def _fail_on_constant(token):
    raise ValueError(f"non-strict JSON token {token!r}")


def load_strict_json(path: str):
    """Parse ``path`` as strict JSON (bare NaN/Infinity are rejected)."""
    return json.loads(
        Path(path).read_text(), parse_constant=_fail_on_constant
    )


# -- validators ---------------------------------------------------------------


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


def check_health_report(doc) -> List[str]:
    """Return a list of problem strings (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != HEALTH_SCHEMA:
        problems.append(
            f"schema must be {HEALTH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    num_ranks = doc.get("num_ranks")
    if not isinstance(num_ranks, int) or num_ranks < 0:
        problems.append("'num_ranks' must be a non-negative int")
    if not isinstance(doc.get("num_samples"), int):
        problems.append("'num_samples' must be an int")
    cadence = doc.get("cadence_s")
    if not isinstance(cadence, (int, float)) or cadence <= 0:
        problems.append("'cadence_s' must be a positive number")

    findings = doc.get("findings")
    if not isinstance(findings, list):
        problems.append("'findings' list is missing")
        findings = []
    implicated = set()
    for i, f in enumerate(findings):
        where = f"findings[{i}]"
        if not isinstance(f, dict):
            problems.append(f"{where}: finding must be an object")
            continue
        for key in _FINDING_KEYS:
            if key not in f:
                problems.append(f"{where}: missing {key!r}")
        sev = f.get("severity")
        if sev is not None and sev not in _SEVERITIES:
            problems.append(
                f"{where}: severity {sev!r} not in {sorted(_SEVERITIES)}"
            )
        t = f.get("t_s")
        if t is not None and (
            not isinstance(t, (int, float)) or t < 0
        ):
            problems.append(f"{where}: 't_s' must be a non-negative number")
        ranks = f.get("ranks")
        if ranks is not None:
            if not isinstance(ranks, list) or not all(
                isinstance(r, int) for r in ranks
            ):
                problems.append(f"{where}: 'ranks' must be a list of ints")
            else:
                implicated.update(ranks)
                if isinstance(num_ranks, int) and any(
                    not 0 <= r < max(num_ranks, 1) for r in ranks
                ):
                    problems.append(
                        f"{where}: ranks {ranks} outside the "
                        f"{num_ranks}-rank run"
                    )

    degraded = doc.get("degraded_ranks")
    if not isinstance(degraded, list) or not all(
        isinstance(r, int) for r in degraded or []
    ):
        problems.append("'degraded_ranks' must be a list of ints")
    elif set(degraded) != implicated:
        problems.append(
            f"'degraded_ranks' {sorted(degraded)} does not match the "
            f"ranks implicated by findings {sorted(implicated)}"
        )

    wd = doc.get("watchdog")
    if not isinstance(wd, dict):
        problems.append("'watchdog' object is missing")
    else:
        if not isinstance(wd.get("tripped"), bool):
            problems.append("watchdog.tripped must be a bool")
        if not isinstance(wd.get("deadlines_s"), dict):
            problems.append("watchdog.deadlines_s object is missing")

    series = doc.get("series")
    if not isinstance(series, dict):
        problems.append("'series' object is missing")
    else:
        for name, s in series.items():
            if not isinstance(s, dict) or not isinstance(
                s.get("t"), list
            ) or not isinstance(s.get("v"), list):
                problems.append(f"series[{name!r}] must have 't'/'v' lists")
            elif len(s["t"]) != len(s["v"]):
                problems.append(
                    f"series[{name!r}]: {len(s['t'])} timestamps for "
                    f"{len(s['v'])} values"
                )
    return problems


def check_scenario(doc) -> List[str]:
    """Return a list of problem strings (empty = valid)."""
    from repro.errors import ConfigurationError
    from repro.scenario.spec import Scenario, injection_from_dict

    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCENARIO_SCHEMA:
        problems.append(
            f"schema must be {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        problems.append("'name' must be a string")
    desc = doc.get("description")
    if desc is not None and not isinstance(desc, str):
        problems.append("'description' must be a string")

    injections = doc.get("injections")
    if not isinstance(injections, list):
        problems.append("'injections' list is missing")
        return problems
    if not injections:
        problems.append("'injections' is empty — the scenario does nothing")
    for i, inj in enumerate(injections):
        try:
            injection_from_dict(inj)
        except ConfigurationError as exc:
            problems.append(f"injections[{i}]: {exc}")

    if not problems:
        # The parts validated; confirm the whole document round-trips
        # through the DSL (catches cross-field problems the per-
        # injection pass cannot see).
        try:
            Scenario.from_dict(doc)
        except ConfigurationError as exc:
            problems.append(str(exc))
    return problems


def check_store_document(doc) -> List[str]:
    """Problem strings for a store export or single row (empty = valid)."""
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") == RESULT_SCHEMA:
        return check_result_row(doc)
    if doc.get("schema") == STORE_SCHEMA:
        rows = doc.get("rows")
        if not isinstance(rows, list):
            return ["'rows' list is missing"]
        problems = []
        for i, row in enumerate(rows):
            problems.extend(f"rows[{i}]: {p}" for p in check_result_row(row))
        return problems
    return [
        f"schema must be {RESULT_SCHEMA!r} or {STORE_SCHEMA!r}, "
        f"got {doc.get('schema')!r}"
    ]


# -- the table ----------------------------------------------------------------


class Schema(NamedTuple):
    """One artifact schema: what it reads, owns and checks."""

    id: str
    description: str
    suffixes: Tuple[str, ...]
    #: exact ``schema`` values that make a document this row's
    tags: Tuple[str, ...]
    #: a document of this kind whose tag is wrong (dicts only)
    looks_like: Callable[[dict], bool]
    validate: Callable[[object], List[str]]
    #: validator of one ``.jsonl`` line, for rows that read logs
    validate_line: Optional[Callable[[object], List[str]]] = None


def _never(doc) -> bool:
    return False


def _has(*keys) -> Callable[[dict], bool]:
    return lambda doc: all(k in doc for k in keys)


#: the trace catch-all: claims any ``.json`` document no other row does
TRACE = Schema(
    "trace-schema",
    "exported Chrome-trace JSON matches the documented schema",
    (".json",), (), _never, check_trace,
)

#: every artifact schema, in ``--list`` order; earlier rows win ties
SCHEMAS: Tuple[Schema, ...] = (
    TRACE,
    Schema(
        "profile-schema",
        "repro profile JSON reports match the documented schema",
        (".json",), (PROFILE_SCHEMA,), _has("phase_seconds", "critical_path"),
        check_profile_report,
    ),
    Schema(
        "health-report",
        "repro health JSON reports match the documented schema",
        (".json",), (HEALTH_SCHEMA,), _has("findings", "degraded_ranks"),
        check_health_report,
    ),
    Schema(
        "fleet-schema",
        "repro fleet JSON documents match the documented schema",
        (".json",), (FLEET_SCHEMA,), _has("heatmap", "trend"),
        check_fleet_document,
    ),
    Schema(
        "scenario-schema",
        "scenario JSON documents parse under the repro.scenario DSL",
        (".json",), (SCENARIO_SCHEMA,),
        lambda doc: (isinstance(doc.get("injections"), list)
                     and "traceEvents" not in doc),
        check_scenario,
    ),
    Schema(
        "campaign-store",
        "campaign store rows/exports validate against "
        "repro.campaign.result/v1",
        (".json", ".jsonl"), (RESULT_SCHEMA, STORE_SCHEMA),
        lambda doc: str(doc.get("schema", "")).startswith("repro.campaign."),
        check_store_document, validate_line=check_result_row,
    ),
)


def claim(doc, suffix: str) -> Optional[Schema]:
    """The one row that owns ``doc`` read from a ``suffix`` file.

    Exact tag first, then the look-alike key sets in table order, then
    the trace catch-all for ``.json``; ``None`` leaves it unchecked.
    """
    rows = [row for row in SCHEMAS if suffix in row.suffixes]
    if isinstance(doc, dict):
        tag = doc.get("schema")
        for row in rows:
            if tag in row.tags:
                return row
        for row in rows:
            if row.looks_like(doc):
                return row
    return TRACE if suffix in TRACE.suffixes else None


class SchemaChecker(ArtifactChecker):
    """Every row of :data:`SCHEMAS` (or the selected ones) behind one
    artifact checker; :attr:`rows` are the ids it answers for."""

    def __init__(self, require_layers: bool = False,
                 rows: Sequence[Schema] = SCHEMAS):
        self.require_layers = require_layers
        self.rows = tuple(rows)

    def narrow(self, ids: Iterable[str]) -> "SchemaChecker":
        """The same checker answering only for ``ids``."""
        wanted = set(ids)
        return SchemaChecker(
            self.require_layers, [r for r in self.rows if r.id in wanted]
        )

    def matches(self, path: str) -> bool:
        return self._reader(path) is not None

    def _reader(self, path: str) -> Optional[Schema]:
        """The first selected row reading ``path``'s suffix: it reports
        a file or line that does not parse."""
        for row in self.rows:
            if path.endswith(row.suffixes):
                return row
        return None

    def check_file(self, path: str) -> Iterable[Finding]:
        log = path.endswith(".jsonl")
        suffix = ".jsonl" if log else ".json"
        for line, doc, error in _documents(path, log):
            if error is not None:
                yield _finding(self._reader(path), path, line, error)
                continue
            row = claim(doc, suffix)
            if row not in self.rows:
                continue
            if log:
                problems = row.validate_line(doc)
            elif row is TRACE:
                problems = check_trace(doc, require_layers=self.require_layers)
            else:
                problems = row.validate(doc)
            for problem in problems:
                yield _finding(row, path, line, problem)


def _documents(path: str, log: bool) -> Iterator[tuple]:
    """``(line, document, parse error)`` per document in ``path``: the
    whole file (line 0), or each non-blank line of a ``.jsonl`` log."""
    if not log:
        try:
            yield 0, load_strict_json(path), None
        except (ValueError, OSError) as exc:
            yield 0, None, f"not strict JSON: {exc}"
        return
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        yield 0, None, f"unreadable: {exc}"
        return
    for i, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            yield i, json.loads(text), None
        except ValueError as exc:
            yield i, None, f"row is not valid JSON: {exc}"


def _finding(row: Schema, path: str, line: int, message: str) -> Finding:
    return Finding(
        checker=row.id, path=path, line=line,
        severity=Severity.ERROR, message=message,
    )
