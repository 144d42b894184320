"""Sweep matrix: jobs, canonical form, and content-addressed keys.

A :class:`Job` is one point of the campaign matrix — ``(machine, N_L,
B, grid, bcast, scenario, runs-per-campaign)`` — normalized so that the
same configuration always serializes to the same canonical JSON.  The
scenario axis is embedded *by content*: a scenario file path given to a
sweep is loaded and its ``repro.scenario/v1`` document stored inline,
so a job's key reflects what the scenario does, not where it lives on
disk.

:func:`Job.key` is the content address used by the run cache, queue and
store: ``sha256(canonical job JSON + code version)``.  Two processes —
or two PRs, if the code version matches — that build the same job get
the same key, which is what makes cache hits, in-flight dedupe and
resume correct by construction.

:class:`SweepSpec` is the declarative sweep document (schema
``repro.campaign.sweep/v1``): scalar bases plus list-valued axes whose
cartesian product :meth:`SweepSpec.expand`\\ s into jobs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.scenario import Scenario

SWEEP_SCHEMA = "repro.campaign.sweep/v1"
RESULT_SCHEMA = "repro.campaign.result/v1"

#: per-machine (nl, block, bcast) sweep defaults (mirrors the CLI's)
MACHINE_DEFAULTS = {
    "summit": dict(nl=61440, block=768, bcast="bcast"),
    "frontier": dict(nl=119808, block=3072, bcast="ring2m"),
}


def _resolve_scenario(raw) -> Optional[dict]:
    """Normalize a scenario axis entry to an inline document (or None).

    Accepts None (baseline row), a path to a scenario file, or an
    inline ``repro.scenario/v1`` dict; always validates through the
    scenario DSL so malformed axes fail at sweep-build time, not in a
    worker.
    """
    if raw is None or raw in ("", "none", "baseline"):
        return None
    if isinstance(raw, str):
        return Scenario.load(raw).to_dict()
    if isinstance(raw, dict):
        return Scenario.from_dict(raw).to_dict()
    raise ConfigurationError(
        f"scenario axis entries must be null, a file path, or an inline "
        f"document; got {type(raw).__name__}"
    )


@dataclass(frozen=True)
class Job:
    """One campaign of the sweep matrix (canonical, hashable by content)."""

    machine: str
    nl: int
    block: int
    grid: int
    bcast: str
    num_runs: int = 3
    seed: int = 2022
    spare_nodes: int = 4
    scenario: Optional[dict] = None

    def __post_init__(self) -> None:
        for name in ("nl", "block", "grid", "num_runs"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigurationError(
                    f"job {name} must be a positive integer, got {v!r}"
                )
        if self.spare_nodes < 0:
            raise ConfigurationError(
                f"job spare_nodes must be >= 0, got {self.spare_nodes}"
            )

    @property
    def n(self) -> int:
        return self.nl * self.grid

    @property
    def scenario_name(self) -> str:
        """The scenario axis label (``baseline`` for the null scenario)."""
        if self.scenario is None:
            return "baseline"
        return str(self.scenario.get("name") or "scenario")

    @property
    def label(self) -> str:
        """Human-stable row label used by store queries and gates."""
        return (
            f"{self.machine}/N={self.n}/B={self.block}/"
            f"{self.grid}x{self.grid}/{self.bcast}/{self.scenario_name}"
        )

    def to_dict(self) -> dict:
        """The canonical job document (scenario inlined, if any)."""
        d = {
            "machine": self.machine, "nl": self.nl, "block": self.block,
            "grid": self.grid, "bcast": self.bcast,
            "num_runs": self.num_runs, "seed": self.seed,
            "spare_nodes": self.spare_nodes,
        }
        if self.scenario is not None:
            d["scenario"] = self.scenario
        return d

    @classmethod
    def from_dict(cls, doc: dict) -> "Job":
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"job must be an object, got {type(doc).__name__}"
            )
        known = {
            "machine", "nl", "block", "grid", "bcast", "num_runs", "seed",
            "spare_nodes", "scenario",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(
                f"unknown job field(s): {', '.join(sorted(unknown))}"
            )
        machine = doc.get("machine", "frontier")
        defaults = MACHINE_DEFAULTS.get(machine, {})
        missing = [
            k for k in ("nl", "block", "bcast")
            if k not in doc and k not in defaults
        ]
        if missing:
            raise ConfigurationError(
                f"job for machine {machine!r} needs explicit "
                f"{', '.join(missing)} (no preset defaults)"
            )
        return cls(
            machine=machine,
            nl=int(doc.get("nl", defaults.get("nl", 0))),
            block=int(doc.get("block", defaults.get("block", 0))),
            grid=int(doc.get("grid", 2)),
            bcast=str(doc.get("bcast", defaults.get("bcast", ""))),
            num_runs=int(doc.get("num_runs", 3)),
            seed=int(doc.get("seed", 2022)),
            spare_nodes=int(doc.get("spare_nodes", 4)),
            scenario=_resolve_scenario(doc.get("scenario")),
        )

    def canonical(self, code: str) -> str:
        """Canonical serialized form the content address hashes."""
        return json.dumps(
            {"job": self.to_dict(), "code": code},
            sort_keys=True, separators=(",", ":"),
        )

    def key(self, code: Optional[str] = None) -> str:
        """Content address: sha256(canonical job + code version)[:16]."""
        if code is None:
            from repro.obs.provenance import code_version

            code = code_version()
        return hashlib.sha256(
            self.canonical(code).encode()
        ).hexdigest()[:16]

    def to_config(self):
        """The :class:`~repro.core.config.BenchmarkConfig` this job runs."""
        from repro.core.config import BenchmarkConfig
        from repro.machine import get_machine

        return BenchmarkConfig(
            n=self.n, block=self.block, machine=get_machine(self.machine),
            p_rows=self.grid, p_cols=self.grid,
            bcast_algorithm=self.bcast, seed=self.seed,
        )

    def load_scenario(self):
        """The inline scenario as a :class:`~repro.scenario.Scenario`."""
        if self.scenario is None:
            return None
        return Scenario.from_dict(self.scenario)


@dataclass
class SweepSpec:
    """Declarative sweep: scalar bases × list-valued axes.

    ``grids``, ``bcasts`` and ``scenarios`` are the swept axes; the
    scalars apply to every job.  ``scenarios`` entries may be ``None``
    (a baseline row), scenario file paths, or inline documents.
    """

    machine: str = "frontier"
    nl: Optional[int] = None
    block: Optional[int] = None
    num_runs: int = 3
    seed: int = 2022
    spare_nodes: int = 4
    grids: Sequence[int] = (2,)
    bcasts: Sequence[str] = ()
    scenarios: Sequence[Union[None, str, dict]] = (None,)

    def expand(self) -> List[Job]:
        """The cartesian product of the axes, in deterministic order."""
        defaults = MACHINE_DEFAULTS.get(self.machine, {})
        nl = self.nl or defaults.get("nl")
        block = self.block or defaults.get("block")
        if not nl or not block:
            raise ConfigurationError(
                f"sweep on machine {self.machine!r} needs explicit "
                f"nl and block"
            )
        bcasts: Tuple[str, ...] = tuple(self.bcasts) or (
            defaults.get("bcast", "bcast"),
        )
        grids = tuple(self.grids) or (2,)
        scenarios = tuple(self.scenarios) if self.scenarios else (None,)
        jobs = [
            Job(
                machine=self.machine, nl=int(nl), block=int(block),
                grid=int(g), bcast=str(b), num_runs=self.num_runs,
                seed=self.seed, spare_nodes=self.spare_nodes,
                scenario=_resolve_scenario(sc),
            )
            for g, b, sc in product(grids, bcasts, scenarios)
        ]
        seen: Dict[str, Job] = {}
        for job in jobs:
            seen.setdefault(job.label, job)
        return list(seen.values())

    def to_dict(self) -> dict:
        """The ``repro.campaign.sweep/v1`` document."""
        return {
            "schema": SWEEP_SCHEMA,
            "machine": self.machine, "nl": self.nl, "block": self.block,
            "num_runs": self.num_runs, "seed": self.seed,
            "spare_nodes": self.spare_nodes,
            "grids": list(self.grids), "bcasts": list(self.bcasts),
            "scenarios": list(self.scenarios),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"sweep spec must be an object, got {type(doc).__name__}"
            )
        schema = doc.get("schema", SWEEP_SCHEMA)
        if schema != SWEEP_SCHEMA:
            raise ConfigurationError(
                f"unsupported sweep schema {schema!r} "
                f"(expected {SWEEP_SCHEMA!r})"
            )
        known = {
            "schema", "machine", "nl", "block", "num_runs", "seed",
            "spare_nodes", "grids", "bcasts", "scenarios",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = {k: doc[k] for k in known - {"schema"} if k in doc}
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "SweepSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read sweep spec {path}: {exc}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"sweep spec {path} is not valid JSON: {exc}"
            )
        return cls.from_dict(doc)
