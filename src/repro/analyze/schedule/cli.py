"""Implementation of the ``repro verify-comm`` subcommand.

Proves communication-schedule properties for a matrix of concrete
configurations (grids × broadcast algorithms × progression modes, plus
the explicit allreduce algorithms, the GMRES refiner, and the pivoted
FP64 HPL path), replays recorded traces against the static model
(``--trace``), and re-proves the known-bad fixture schedules
(``--fixture``).  Exit codes follow ``repro lint``:

- 0 — every proof obligation held (warnings allowed);
- 1 — a proof failed (counterexample printed);
- 2 — usage error.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List

from repro.analyze.schedule.extract import ScheduleCase, extract_case
from repro.analyze.schedule.hb import analyze_schedule

#: the FP64 HPL proof shape: small enough to factor exactly, pivoting
_HPL_N, _HPL_BLOCK = 64, 8


def _parse_grids(spec: str) -> List[tuple]:
    grids = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        rows, _, cols = token.partition("x")
        grids.append((int(rows), int(cols)))
    return grids


def _matrix_cases(args) -> List[ScheduleCase]:
    grids = _parse_grids(args.grids)
    bcasts = [b.strip() for b in args.bcasts.split(",") if b.strip()]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    programs = [p.strip() for p in args.programs.split(",") if p.strip()]
    block = args.block
    cases: List[ScheduleCase] = []
    if "hplai" in programs:
        for p_rows, p_cols in grids:
            # enough panels that the look-ahead pipeline and both bcast
            # dimensions are exercised on every grid shape
            n = block * max(4, 2 * max(p_rows, p_cols))
            for bcast in bcasts:
                for mode in modes:
                    cases.append(ScheduleCase(
                        program="hplai", p_rows=p_rows, p_cols=p_cols,
                        bcast=bcast, progression=mode,
                        lookahead=(mode == "routed"), n=n, block=block,
                    ))
        # solver variants: explicit allreduce algorithms and GMRES-IR
        # (orthogonal to the bcast choice; proved once per grid family)
        for p_rows, p_cols in grids:
            if (p_rows, p_cols) not in ((2, 2), (3, 3)):
                continue
            n = block * max(4, 2 * max(p_rows, p_cols))
            for algo in ("ring", "doubling"):
                cases.append(ScheduleCase(
                    program="hplai", p_rows=p_rows, p_cols=p_cols,
                    allreduce=algo, n=n, block=block,
                ))
            cases.append(ScheduleCase(
                program="hplai", p_rows=p_rows, p_cols=p_cols,
                refinement="gmres", n=n, block=block,
            ))
    if "hpl" in programs:
        for p_rows, p_cols in grids:
            if p_rows * p_cols > 8 and (p_rows, p_cols) != (4, 4):
                continue
            if _HPL_N // _HPL_BLOCK < max(p_rows, p_cols):
                continue
            cases.append(ScheduleCase(
                program="hpl", p_rows=p_rows, p_cols=p_cols,
                n=_HPL_N, block=_HPL_BLOCK,
            ))
    return cases


def _run_matrix(cases, doc, verbose_print) -> bool:
    ok = True
    for case in cases:
        t0 = time.perf_counter()
        result = extract_case(case)
        entry = {"case": case.label(), "meta": case.to_meta()}
        if not result.completed:
            ok = False
            entry["ok"] = False
            entry["error"] = result.error or "deadlock"
            verbose_print(f"FAILED  {case.label()}: {entry['error']}")
            if result.deadlock is not None:
                entry["counterexample"] = result.deadlock.describe()
                verbose_print(result.deadlock.describe())
        else:
            report = analyze_schedule(result.schedule, matching=result.matching)
            errors = [f for f in report.findings if f.severity == "error"]
            warnings = [f for f in report.findings if f.severity == "warning"]
            entry.update(report.to_dict())
            entry["seconds"] = round(time.perf_counter() - t0, 3)
            entry["phase_summary"] = result.schedule.phase_summary()
            if errors:
                ok = False
                verbose_print(f"FAILED  {case.label()}")
                for f in errors:
                    verbose_print(f.format())
            else:
                s = report.stats
                line = (
                    f"proved  {case.label()}: {s['ops']} ops, "
                    f"{s['matches']} matches, {s['collectives']} "
                    f"collectives, acyclic"
                )
                if warnings:
                    line += f" ({len(warnings)} warning(s))"
                verbose_print(line)
        doc["cases"].append(entry)
    return ok


def _run_fixtures(names, doc, verbose_print) -> bool:
    from repro.analyze.schedule.fixtures import FIXTURES

    if "all" in names:
        names = sorted(FIXTURES)
    ok = True
    for name in names:
        schedule = FIXTURES[name]()
        report = analyze_schedule(schedule)
        errors = [f for f in report.findings if f.severity == "error"]
        entry = {"fixture": name, "expected_failure": True,
                 "detected": bool(errors),
                 "findings": [f.to_dict() for f in report.findings]}
        doc["fixtures"].append(entry)
        if errors:
            verbose_print(
                f"fixture {name}: defect detected as expected "
                f"({len(errors)} error finding(s))"
            )
            for f in errors:
                verbose_print(f.format())
        else:
            # a fixture is a known-bad schedule: NOT detecting it is
            # the regression
            ok = False
            verbose_print(
                f"FAILED  fixture {name}: known-bad schedule was "
                "proved clean — the verifier regressed"
            )
    return ok


def _run_traces(paths, doc, verbose_print) -> bool:
    from repro.analyze.schedule.conformance import conformance_from_trace

    ok = True
    for path in paths:
        report = conformance_from_trace(path)
        doc["traces"].append(report.to_dict())
        errors = [i for i in report.issues if i.severity == "error"]
        if errors:
            ok = False
            verbose_print(f"FAILED  trace {path} vs {report.label}")
            for issue in errors:
                verbose_print(issue.format())
        else:
            s = report.stats
            verbose_print(
                f"conforms  {path}: {s['observed_transfers']} transfers "
                f"over {s['observed_channels']} channels match the "
                f"static schedule ({report.label})"
            )
    return ok


def cmd_verify_comm(args) -> int:
    """Run the requested proofs; see module docstring for exit codes."""
    from repro.errors import ReproError

    texts: List[str] = []

    def verbose_print(line: str) -> None:
        if args.format == "text":
            print(line)
        texts.append(line)

    doc = {"cases": [], "fixtures": [], "traces": []}
    t0 = time.perf_counter()
    ok = True
    try:
        run_matrix = args.matrix or not (args.trace or args.fixture)
        if run_matrix:
            cases = _matrix_cases(args)
            if not cases:
                print("verify-comm: empty proof matrix", file=sys.stderr)
                return 2
            ok = _run_matrix(cases, doc, verbose_print) and ok
        if args.fixture:
            ok = _run_fixtures(args.fixture, doc, verbose_print) and ok
        if args.trace:
            ok = _run_traces(args.trace, doc, verbose_print) and ok
    except KeyError as exc:
        print(f"verify-comm: unknown fixture {exc}", file=sys.stderr)
        return 2
    except (ReproError, ValueError, OSError) as exc:
        print(f"verify-comm: {exc}", file=sys.stderr)
        return 2

    doc["ok"] = ok
    doc["seconds"] = round(time.perf_counter() - t0, 3)
    summary = (
        f"verify-comm: {len(doc['cases'])} configuration(s), "
        f"{len(doc['fixtures'])} fixture(s), {len(doc['traces'])} "
        f"trace(s) in {doc['seconds']:.1f}s: "
        + ("all proofs held" if ok else "FAILED")
    )
    verbose_print(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    return 0 if ok else 1
