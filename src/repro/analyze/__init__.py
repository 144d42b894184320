"""Custom static analysis for the mixed-precision benchmark codebase.

The paper's failure classes at scale — mis-matched communication
schedules and silent low-precision data loss — are exactly the bug
classes a reviewer cannot reliably catch by eye (PR 2 fixed one of
each).  This package turns those contracts into machine-checked rules:

- a small checker framework over Python ASTs with per-file findings
  (``file:line``, severity, checker id), inline suppressions, and a
  checked-in baseline for known-accepted findings;
- four first-class source checkers (:mod:`repro.analyze.checkers`):
  ``precision-flow``, ``tag-space``, ``collective-matching`` and
  ``hygiene``;
- one artifact checker over a table of run-artifact schemas (traces,
  profile/health/fleet reports, scenarios, campaign stores;
  :mod:`repro.analyze.checkers.schemas`) so ``repro lint`` is the
  single analysis entry point;
- an opt-in *runtime* sanitizer (:mod:`repro.analyze.sanitize`,
  ``REPRO_SANITIZE=1``) enforcing the dynamic side of the same
  precision contracts inside the BLAS shim.

Entry points: the ``repro lint`` CLI subcommand, or programmatically
:func:`run_analysis`.
"""

from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import (
    AnalysisReport,
    Baseline,
    SourceModule,
    run_analysis,
)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "Finding",
    "Severity",
    "SourceModule",
    "run_analysis",
]
