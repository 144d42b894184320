"""Whole-program communication-schedule verification.

Pipeline: :mod:`~repro.analyze.schedule.extract` runs the rank
programs on the timed engine and records the op stream it executes as a
:class:`~repro.analyze.schedule.model.Schedule`;
:mod:`~repro.analyze.schedule.hb` builds the happens-before graph over
it and proves matching, race freedom, collective symmetry and deadlock
freedom; :mod:`~repro.analyze.schedule.conformance` replays recorded
traces against the extracted model.  Surfaced via ``repro verify-comm``
and the ``comm-schedule`` / ``comm-race`` / ``trace-conformance`` lint
checkers.
"""

from repro.analyze.schedule.conformance import (
    ConformanceReport,
    check_conformance,
    conformance_from_trace,
)
from repro.analyze.schedule.extract import (
    ExtractionResult,
    ScheduleCase,
    extract_case,
    extract_config,
    extract_factory,
)
from repro.analyze.schedule.hb import HbFinding, HbReport, analyze_schedule
from repro.analyze.schedule.model import Collective, CommOp, Schedule

__all__ = [
    "Collective",
    "CommOp",
    "ConformanceReport",
    "ExtractionResult",
    "HbFinding",
    "HbReport",
    "Schedule",
    "ScheduleCase",
    "analyze_schedule",
    "check_conformance",
    "conformance_from_trace",
    "extract_case",
    "extract_config",
    "extract_factory",
]
