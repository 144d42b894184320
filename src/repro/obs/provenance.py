"""Run-provenance capture: *what* produced a recording, exactly.

The paper's monitoring workflow compares every run against "previously
recorded data" — which only works when a recording says precisely which
configuration, machine model, package version and seeds produced it.
:func:`run_provenance` captures all of that as a plain JSON-able dict;
the driver stamps it onto every :class:`~repro.core.driver.RunResult`
and :func:`repro.core.report.run_report` carries it into the report, so
two campaign records are comparable (or visibly not).
"""

from __future__ import annotations

import platform
import socket
import sys
from datetime import datetime, timezone
from typing import Optional

from repro._version import __version__

#: bump when the provenance block's layout changes
PROVENANCE_SCHEMA = 1


def code_version() -> str:
    """Code-version token mixed into content-addressed run-cache keys.

    A cached campaign result is only reusable while the code that
    produced it still produces the same numbers, so the run cache
    (:mod:`repro.campaign.cache`) keys every entry by config hash *and*
    this token.  It is the package version plus the provenance schema;
    the ``REPRO_CODE_VERSION`` environment variable overrides it, which
    is how tests (and local development on an unreleased version) force
    cache invalidation without bumping ``repro._version``.
    """
    import os

    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    return f"repro-{__version__}+prov{PROVENANCE_SCHEMA}"


def run_provenance(cfg=None, extra: Optional[dict] = None) -> dict:
    """Provenance block for one run.

    Parameters
    ----------
    cfg:
        Optional :class:`~repro.core.config.BenchmarkConfig`; when given
        its ``describe()`` facts, machine name and RNG seed are included.
    extra:
        Caller-supplied facts (campaign id, run index, ...) merged under
        the ``"extra"`` key.
    """
    prov: dict = {
        "schema": PROVENANCE_SCHEMA,
        "package": "repro",
        "version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "argv": list(sys.argv),
    }
    try:
        import numpy

        prov["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        prov["numpy"] = None
    if cfg is not None:
        prov["config"] = cfg.describe()
        prov["machine"] = cfg.machine.name
        prov["seed"] = cfg.seed
        prov["panel_precision"] = cfg.panel_precision
        prov["refinement_solver"] = cfg.refinement_solver
    if extra:
        prov["extra"] = dict(extra)
    return prov


def same_experiment(a: dict, b: dict) -> bool:
    """True when two provenance blocks describe the same experiment.

    "Same experiment" means identical configuration, machine and seed —
    the precondition for the watchdog's recorded-data comparison;
    version/host/timestamp may differ (that is what campaigns vary).
    """
    keys = ("config", "machine", "seed", "panel_precision",
            "refinement_solver")
    return all(a.get(k) == b.get(k) for k in keys)
