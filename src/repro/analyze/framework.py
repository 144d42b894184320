"""Checker framework: module model, baseline, and the analysis driver.

Checkers come in three kinds:

- :class:`SourceChecker` — receives a parsed :class:`SourceModule`
  (AST + source text) per ``.py`` file and yields findings;
- :class:`ArtifactChecker` — receives non-Python artifact paths it
  claims via :meth:`ArtifactChecker.matches` (e.g. exported trace
  JSON files); one checker may answer for several ids through a
  ``rows`` table (see :func:`members`);
- :class:`ProgramChecker` — sees the whole analyzed file set once and
  runs a global analysis (e.g. the communication-schedule verifier),
  gated on explicit selection or on relevant files being analyzed.

The driver (:func:`run_analysis`) walks the requested paths, dispatches
files to checkers, honours inline suppressions
(``# lint: ignore`` / ``# lint: ignore[checker-id]`` on the flagged
line) and subtracts the checked-in baseline.  Known-accepted findings
belong in the baseline file, never in weakened checkers.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.analyze.findings import Finding, sort_findings

#: suppression marker scanned for on the flagged physical line
_SUPPRESS_MARK = "lint: ignore"

#: directories never descended into when expanding path arguments
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class SourceModule:
    """One parsed Python source file handed to source checkers."""

    def __init__(self, path: str, text: str, tree: ast.AST):
        self.path = path
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @classmethod
    def parse(cls, path: str, text: Optional[str] = None) -> "SourceModule":
        """Parse a file (or the given text) into a module model."""
        if text is None:
            text = Path(path).read_text()
        return cls(path, text, ast.parse(text, filename=path))

    # -- tree helpers -----------------------------------------------------

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (None for the module root)."""
        return self.parents.get(node)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Innermost FunctionDef/AsyncFunctionDef containing ``node``."""
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None

    # -- suppression ------------------------------------------------------

    def suppressed(self, line: int, checker_id: str) -> bool:
        """Whether the physical ``line`` carries a suppression for
        ``checker_id`` (bare ``lint: ignore`` suppresses everything)."""
        if not 1 <= line <= len(self.lines):
            return False
        src = self.lines[line - 1]
        pos = src.find("#")
        if pos < 0:
            return False
        comment = src[pos:]
        mark = comment.find(_SUPPRESS_MARK)
        if mark < 0:
            return False
        rest = comment[mark + len(_SUPPRESS_MARK):].strip()
        if not rest.startswith("["):
            return True  # blanket suppression
        ids = rest[1:rest.find("]")] if "]" in rest else rest[1:]
        return checker_id in {s.strip() for s in ids.split(",")}


class SourceChecker:
    """Base class: one rule family over parsed Python modules."""

    #: stable identifier used in reports, suppressions and baselines
    id: str = ""
    #: one-line description for ``repro lint --list``
    description: str = ""

    def check(self, module: SourceModule) -> Iterable[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError


class ArtifactChecker:
    """Base class: validates non-Python artifacts (JSON traces, ...)."""

    id: str = ""
    description: str = ""

    def matches(self, path: str) -> bool:
        """Whether this checker claims the artifact at ``path``."""
        raise NotImplementedError

    def check_file(self, path: str) -> Iterable[Finding]:
        """Yield findings for one artifact file."""
        raise NotImplementedError


class ProgramChecker:
    """Base class: whole-program checks that are not per-file.

    A program checker sees the full list of analyzed Python files once
    and runs a global analysis (e.g. extracting and model-checking the
    communication schedule, which spans comm/core/simulate).  Because
    such checks execute the rank programs, they only run when
    explicitly ``--select``-ed or when the analyzed set includes files
    they declare relevant via :meth:`triggered_by`."""

    id: str = ""
    description: str = ""

    def triggered_by(self, py_files: Sequence[str]) -> bool:
        """Whether the analyzed file set warrants running this checker."""
        raise NotImplementedError

    def check_program(self, py_files: Sequence[str]) -> Iterable[Finding]:
        """Yield findings for the whole program."""
        raise NotImplementedError


class Baseline:
    """Checked-in set of accepted finding fingerprints.

    The on-disk format is JSON::

        {"version": 1,
         "findings": [{"checker": ..., "path": ..., "message": ...}, ...]}

    Matching ignores line numbers (see
    :attr:`repro.analyze.findings.Finding.fingerprint`).
    """

    VERSION = 1

    def __init__(self, fingerprints: Optional[Iterable[tuple]] = None,
                 path: Optional[str] = None):
        self.fingerprints = set(fingerprints or ())
        self.path = path

    @classmethod
    def load(cls, path: str) -> "Baseline":
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict) or "findings" not in doc:
            raise ValueError(f"{path}: not a lint baseline file")
        prints = {
            (f["checker"], f["path"], f["message"])
            for f in doc["findings"]
        }
        return cls(prints, path=path)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(f.fingerprint for f in findings)

    def save(self, path: str) -> str:
        """Write the baseline JSON (sorted, stable diffs) to ``path``."""
        entries = [
            {"checker": c, "path": p, "message": m}
            for c, p, m in sorted(self.fingerprints)
        ]
        doc = {"version": self.VERSION, "findings": entries}
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")
        return path

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints

    def __len__(self) -> int:
        return len(self.fingerprints)


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    #: findings matched (and hidden) by the baseline
    baselined: List[Finding] = field(default_factory=list)
    #: files that could not be parsed: [(path, error string)]
    parse_errors: List[tuple] = field(default_factory=list)
    files_checked: int = 0
    checkers_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean run: no new findings and every file parsed."""
        return not self.findings and not self.parse_errors

    def to_dict(self) -> dict:
        """JSON-serializable report (the ``--format json`` document)."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "checkers": list(self.checkers_run),
            "findings": [f.to_dict() for f in self.findings],
            "baselined": len(self.baselined),
            "parse_errors": [
                {"path": p, "error": e} for p, e in self.parse_errors
            ],
        }


def members(checker) -> Sequence:
    """What ``checker`` answers for, each with an ``id`` and a
    ``description``: the checker itself, or the rows of its table."""
    return getattr(checker, "rows", (checker,))


def _iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    yield str(sub)
        elif p.suffix == ".py":
            yield str(p)


def _iter_artifact_files(paths: Sequence[str]) -> Iterator[str]:
    for raw in paths:
        p = Path(raw)
        if p.is_file() and p.suffix != ".py":
            yield str(p)


def run_analysis(
    paths: Sequence[str],
    checkers: Optional[Sequence] = None,
    baseline: Optional[Baseline] = None,
    select: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the checker suite over files/directories in ``paths``.

    Directories are walked recursively for ``.py`` files; non-Python
    file arguments are offered to artifact checkers.  ``select`` limits
    the run to the named checker ids.
    """
    if checkers is None:
        from repro.analyze.checkers import all_checkers

        checkers = all_checkers()
    if select:
        wanted = set(select)
        unknown = wanted - {m.id for c in checkers for m in members(c)}
        if unknown:
            raise ValueError(
                f"unknown checker id(s): {', '.join(sorted(unknown))}"
            )
        checkers = [
            c.narrow(wanted) if hasattr(c, "rows") else c
            for c in checkers
            if wanted.intersection(m.id for m in members(c))
        ]
    source_checkers = [c for c in checkers if isinstance(c, SourceChecker)]
    artifact_checkers = [c for c in checkers if isinstance(c, ArtifactChecker)]
    program_checkers = [c for c in checkers if isinstance(c, ProgramChecker)]

    report = AnalysisReport(
        checkers_run=[m.id for c in checkers for m in members(c)]
    )
    raw: List[Finding] = []

    py_files: List[str] = []
    for path in _iter_python_files(paths):
        try:
            module = SourceModule.parse(path)
        except (SyntaxError, ValueError, OSError) as exc:
            report.parse_errors.append((path, str(exc)))
            continue
        py_files.append(path)
        report.files_checked += 1
        for checker in source_checkers:
            for finding in checker.check(module):
                if not module.suppressed(finding.line, finding.checker):
                    raw.append(finding)

    explicit = set(select or ())
    for checker in program_checkers:
        if checker.id in explicit or checker.triggered_by(py_files):
            raw.extend(checker.check_program(py_files))

    for path in _iter_artifact_files(paths):
        claimed = [c for c in artifact_checkers if c.matches(path)]
        if not claimed:
            continue
        report.files_checked += 1
        for checker in claimed:
            raw.extend(checker.check_file(path))

    for finding in sort_findings(raw):
        if baseline is not None and finding in baseline:
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    return report
