"""The ``repro lint`` subcommand, plus the ``verify-comm`` parser.

Kept out of :mod:`repro.cli` so the top-level CLI module stays a thin
argparse surface; exit codes follow the usual linter convention:

- 0 — clean (possibly via baseline);
- 1 — findings (or unparsable sources);
- 2 — usage error (unknown checker id, unreadable baseline).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analyze.framework import Baseline, members, run_analysis
from repro.broadcasts import BCAST_NAMES

#: baseline used when ``--baseline`` is not given and the file exists
DEFAULT_BASELINE = ".lint-baseline.json"


def add_lint_parser(sub) -> None:
    """Register the ``lint`` subparser on an argparse ``sub``-parsers."""
    p = sub.add_parser(
        "lint",
        help="static analysis: precision-flow, tag-space, collectives...",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to analyze (default: src); .json/.jsonl "
        "artifacts are validated against the schema that owns them "
        "(docs/STATIC_ANALYSIS.md)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to a file")
    p.add_argument("--baseline", default=None,
                   help=f"baseline file (default: {DEFAULT_BASELINE} "
                   "when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--update-baseline", action="store_true",
                   help="write all current findings to the baseline file "
                   "and exit 0")
    p.add_argument("--select", default=None,
                   help="comma-separated checker ids to run")
    p.add_argument("--changed", action="store_true",
                   help="restrict the given paths to files touched in "
                   "the working tree (git diff vs HEAD plus untracked)")
    p.add_argument("--list", action="store_true", dest="list_checkers",
                   help="list available checkers and exit")
    p.add_argument("--require-layers", action="store_true",
                   help="trace-schema: require engine/executor/comm spans")
    p.set_defaults(func=cmd_lint)


def add_verify_comm_parser(sub) -> None:
    """Register the ``verify-comm`` subparser; the proofs live in
    :mod:`repro.analyze.schedule.cli`."""
    p = sub.add_parser(
        "verify-comm",
        help="prove the communication schedule deadlock- and race-free",
    )
    # every process grid up to 16 ranks exercising distinct topology
    # shapes: degenerate rows/columns, square, rectangular, odd
    p.add_argument("--grids", default="1x2,2x1,2x2,2x4,4x2,3x3,4x4",
                   help="comma-separated RxC grids (default %(default)s)")
    p.add_argument("--bcasts", default=",".join(BCAST_NAMES),
                   help="broadcast algorithms to prove (default %(default)s)")
    p.add_argument("--modes", default="routed,inband",
                   help="progression modes: routed (look-ahead) and/or "
                   "inband (default both)")
    p.add_argument("--programs", default="hplai,hpl",
                   help="rank programs: hplai (phantom control flow) "
                   "and/or hpl (exact pivoted LU; default both)")
    p.add_argument("-b", "--block", type=int, default=32,
                   help="panel width for the hplai proofs (default 32)")
    p.add_argument("--trace", action="append", default=None, metavar="FILE",
                   help="check a recorded trace against the static model "
                   "(repeatable; skips the proof matrix unless --matrix)")
    p.add_argument("--fixture", action="append", default=None, metavar="NAME",
                   help="re-prove a known-bad fixture schedule (expects "
                   "failure; 'all' runs every fixture; skips the proof "
                   "matrix unless --matrix)")
    p.add_argument("--matrix", action="store_true",
                   help="run the proof matrix even when --trace/--fixture "
                   "are given")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to a file")
    p.set_defaults(func=_verify_comm)


def _verify_comm(args) -> int:
    from repro.analyze.schedule.cli import cmd_verify_comm

    return cmd_verify_comm(args)


def _changed_files(paths):
    """Files under ``paths`` touched in the working tree, or ``None``
    when git is unavailable (callers fall back to analyzing everything).

    "Touched" = modified/added vs ``HEAD`` plus untracked-but-not-ignored;
    deleted files are skipped (nothing left to analyze)."""
    import os
    import subprocess

    def _git(*argv):
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True
        ).stdout

    try:
        top = Path(_git("rev-parse", "--show-toplevel").strip())
        listed = (
            _git("diff", "--name-only", "HEAD")
            + _git("ls-files", "--others", "--exclude-standard")
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    scopes = [Path(p).resolve() for p in paths]
    keep = []
    for line in sorted(set(listed.splitlines())):
        if not line.strip():
            continue
        full = (top / line).resolve()
        if not full.exists():
            continue
        if any(full == s or s in full.parents for s in scopes):
            keep.append(os.path.relpath(full))
    return keep


def _resolve_baseline(args):
    if args.no_baseline:
        return None, None
    path = args.baseline
    if path is None:
        path = DEFAULT_BASELINE if Path(DEFAULT_BASELINE).exists() else None
        if path is None:
            return None, DEFAULT_BASELINE
    elif not Path(path).exists():
        # An explicit baseline path may not exist yet when updating.
        return None, path
    return Baseline.load(path), path


def cmd_lint(args) -> int:
    """Run the analysis suite; see module docstring for exit codes."""
    from repro.analyze.checkers import all_checkers

    checkers = all_checkers(require_layers=args.require_layers)
    if args.list_checkers:
        for c in checkers:
            for m in members(c):
                print(f"  {m.id:>20}  {m.description}")
        return 0
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select else None
    )
    try:
        baseline, baseline_path = _resolve_baseline(args)
    except (ValueError, OSError) as exc:
        print(f"lint: cannot load baseline: {exc}", file=sys.stderr)
        return 2

    paths = args.paths
    if args.changed:
        changed = _changed_files(paths)
        if changed is None:
            print("lint: --changed needs a git checkout; analyzing all "
                  "given paths", file=sys.stderr)
        elif not changed:
            print("lint: --changed: no modified files under the given paths")
            return 0
        else:
            paths = changed

    try:
        report = run_analysis(
            paths, checkers=checkers, baseline=baseline, select=select
        )
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        from repro.analyze.framework import Baseline as _B

        merged = _B.from_findings(report.findings + report.baselined)
        merged.save(target)
        print(f"lint: wrote {len(merged)} accepted finding(s) to {target}")
        return 0

    doc = report.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for path, err in report.parse_errors:
            print(f"{path}:0:0: error [parse] {err}")
        for finding in report.findings:
            print(finding.format())
        summary = (
            f"lint: {report.files_checked} file(s), "
            f"{len(report.findings)} finding(s)"
        )
        if report.baselined:
            summary += f", {len(report.baselined)} baselined"
        if baseline is not None:
            summary += f" (baseline: {baseline_path})"
        print(summary)
    return 0 if report.ok else 1
