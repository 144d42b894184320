"""Queryable campaign result store (append-only JSONL log).

One line per recorded row, indexed in memory by content-address key.
:meth:`ResultStore.put` appends a single ``json.dumps(row,
sort_keys=True)`` line through :func:`repro.util.atomicio.locked_append`
(one ``os.write`` on an ``O_APPEND`` descriptor held under
``fcntl.flock(LOCK_EX)``, fsync'd before the lock is released): one
fsync per put, and recording a sweep costs time linear in the rows it
adds.  A put of a row equal to the one already held under its key
writes nothing, so re-running a sweep leaves the file's bytes
unchanged.

Loading replays the log: the last line per key wins.  A final line
with no terminating newline is a torn append (a writer died mid-put);
it is dropped with a warning naming ``path:line`` and the file is left
as it is — readers never write.  The next put, under the lock, cuts the
torn tail back to the last newline before appending, so a torn line
never becomes a middle line.  Any other bad line raises
:class:`~repro.errors.ConfigurationError` naming ``path:line``.
Writers sharing one path (objects or processes) each keep every row
they append; an object's in-memory view holds what it loaded plus what
it put, so it sees another writer's rows only once reopened.

``snapshot()`` equality is what lets the resume test demand *identical*
store contents from an interrupted-then-resumed sweep and an
uninterrupted one; ``export_document()`` is the sorted view.

The store is queryable by the repo's existing delta machinery:
:func:`compare_stores` joins two stores (or exported documents) on the
job label and feeds the per-config best elapsed seconds to
:func:`repro.obs.analysis.regression_deltas` — the same gate engine
behind ``repro profile --against`` and ``bench hotpaths --against`` —
so a campaign sweep gates against a recorded baseline sweep with the
same semantics and rendering as every other gate in the repo.

Row schema is ``repro.campaign.result/v1`` (see
:mod:`repro.campaign.runner`); :func:`check_result_row` is the
validation the ``campaign-store`` row of
:mod:`repro.analyze.checkers.schemas` delegates to.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.campaign.jobs import RESULT_SCHEMA
from repro.errors import ConfigurationError
from repro.util.atomicio import locked_append

STORE_SCHEMA = "repro.campaign.store/v1"


def check_result_row(row) -> List[str]:
    """Problem strings for one store row (empty = valid)."""
    problems: List[str] = []
    if not isinstance(row, dict):
        return [f"row must be an object, got {type(row).__name__}"]
    if row.get("schema") != RESULT_SCHEMA:
        problems.append(
            f"row schema must be {RESULT_SCHEMA!r}, got {row.get('schema')!r}"
        )
    key = row.get("key")
    if not (isinstance(key, str) and len(key) == 16
            and all(c in "0123456789abcdef" for c in key)):
        problems.append(f"'key' must be a 16-hex content address, got {key!r}")
    if not isinstance(row.get("code"), str) or not row.get("code"):
        problems.append("'code' (code version) must be a non-empty string")
    if not isinstance(row.get("label"), str) or not row.get("label"):
        problems.append("'label' must be a non-empty string")
    job = row.get("job")
    if not isinstance(job, dict):
        problems.append("'job' document is missing")
    else:
        from repro.campaign.jobs import Job

        try:
            Job.from_dict(job)
        except ConfigurationError as exc:
            problems.append(f"job: {exc}")
    best = row.get("best")
    if not isinstance(best, dict):
        problems.append("'best' summary is missing")
    else:
        for k in ("elapsed_s", "total_flops_per_s"):
            if not isinstance(best.get(k), (int, float)):
                problems.append(f"best.{k} must be a number")
    runs = row.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("'runs' must be a non-empty list")
    if not isinstance(row.get("exclusion_applied"), bool):
        problems.append("'exclusion_applied' must be a boolean")
    return problems


class ResultStore:
    """Key-indexed JSONL store of campaign result rows."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._rows: Dict[str, dict] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot load campaign store {self.path}: {exc}"
            )
        lines = text.split("\n")
        if lines[-1]:
            warnings.warn(
                f"{self.path}:{len(lines)}: dropping a torn final store "
                "line (no newline); the next put truncates it",
                stacklevel=3,
            )
        for i, line in enumerate(lines[:-1]):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{self.path}:{i + 1}: store row is not valid "
                    f"JSON: {exc}"
                )
            problems = check_result_row(row)
            if problems:
                raise ConfigurationError(
                    f"{self.path}:{i + 1}: {problems[0]}"
                )
            self._rows[row["key"]] = row

    # -- mutation ---------------------------------------------------------

    def put(self, row: dict) -> None:
        """Insert/replace a row by key (validated): one fsync'd append.

        Nothing is written when an equal row is already held under the
        key.  A torn tail left by a writer that died is cut back to the
        last newline under the lock before the line is appended.
        """
        problems = check_result_row(row)
        if problems:
            raise ConfigurationError(f"invalid store row: {problems[0]}")
        if self._rows.get(row["key"]) == row:
            return
        locked_append(self.path, (json.dumps(row, sort_keys=True) + "\n").encode())
        self._rows[row["key"]] = row

    # -- queries ----------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The full result row for ``key``, or None."""
        return self._rows.get(key)

    def keys(self) -> List[str]:
        """All content-address keys, sorted."""
        return sorted(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def snapshot(self) -> Dict[str, dict]:
        """Deterministic content view: rows minus the volatile ``meta``.

        Two sweeps over the same matrix with the same code version must
        produce equal snapshots — this is the store-equality basis the
        resume/determinism tests assert on.
        """
        return {
            key: {k: v for k, v in row.items() if k != "meta"}
            for key, row in self._rows.items()
        }

    def rows(self, machine: Optional[str] = None,
             scenario: Optional[str] = None) -> List[dict]:
        """Flat summary rows (for tables), optionally filtered."""
        out = []
        for key in sorted(self._rows):
            row = self._rows[key]
            job = row.get("job", {})
            if machine and job.get("machine") != machine:
                continue
            if scenario and _scenario_name(row) != scenario:
                continue
            best = row.get("best", {})
            out.append({
                "key": key,
                "label": row.get("label", ""),
                "grid": f"{job.get('grid')}x{job.get('grid')}",
                "bcast": job.get("bcast", ""),
                "scenario": _scenario_name(row),
                "best_elapsed_s": best.get("elapsed_s"),
                "best_flops": best.get("total_flops_per_s"),
                "variability": row.get("variability"),
            })
        return out

    def all_rows(self) -> List[dict]:
        """Every full result row, in sorted-key order."""
        return [self._rows[k] for k in sorted(self._rows)]

    def elapsed_by_label(self) -> Dict[str, float]:
        """label → best elapsed seconds (the gate comparison basis).

        Raises :class:`ConfigurationError` when two rows share a label:
        a label names the *shape* of a job (machine/N/B/grid/bcast/
        scenario) but not its seed, run count, or spare nodes, so a
        store that accumulated rows from variant sweeps can hold
        distinct keys under one label — a silent overwrite here would
        gate against an arbitrary one of them.
        """
        out: Dict[str, float] = {}
        owners: Dict[str, str] = {}
        for key in sorted(self._rows):
            row = self._rows[key]
            _claim_label(owners, row["label"], key)
            out[row["label"]] = float(row["best"]["elapsed_s"])
        return out

    def export_document(self) -> dict:
        """Self-describing single-JSON export of the whole store."""
        return {
            "schema": STORE_SCHEMA,
            "rows": [self._rows[k] for k in sorted(self._rows)],
        }


def _claim_label(owners: Dict[str, str], label: str, key: str) -> None:
    """Record ``label`` as owned by ``key``; raise on a collision."""
    prior = owners.get(label)
    if prior is not None and prior != key:
        raise ConfigurationError(
            f"duplicate job label {label!r} in campaign store: keys "
            f"{prior} and {key} share it (jobs differing only in seed/"
            "num_runs/spare_nodes collide on label); gate by a store "
            "with one row per configuration"
        )
    owners[label] = key


def _scenario_name(row: dict) -> str:
    sc = row.get("job", {}).get("scenario")
    if not sc:
        return "baseline"
    return str(sc.get("name") or "scenario")


def _elapsed_map(source) -> Dict[str, float]:
    """label → elapsed from a ResultStore, export doc, or store path."""
    if isinstance(source, ResultStore):
        return source.elapsed_by_label()
    if isinstance(source, (str, Path)):
        p = Path(source)
        if p.suffix == ".jsonl":
            return ResultStore(p).elapsed_by_label()
        try:
            source = json.loads(p.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot load store export {p}: {exc}")
    if isinstance(source, dict) and source.get("schema") == STORE_SCHEMA:
        out = {}
        owners: Dict[str, str] = {}
        for row in source.get("rows", []):
            problems = check_result_row(row)
            if problems:
                raise ConfigurationError(f"store export: {problems[0]}")
            _claim_label(owners, row["label"], row["key"])
            out[row["label"]] = float(row["best"]["elapsed_s"])
        return out
    raise ConfigurationError(
        "not a campaign store: expected a .jsonl store, a "
        f"{STORE_SCHEMA!r} export, or a ResultStore"
    )


def compare_stores(current, baseline, max_regress: float = 0.25):
    """Per-config regression deltas between two campaign stores.

    Joins on the job label and compares best elapsed seconds through
    :func:`repro.obs.analysis.regression_deltas` — identical gate
    semantics (and rendering, via
    :func:`repro.bench.regression.render_regressions`) to ``repro
    profile --against``.
    """
    from repro.obs.analysis import regression_deltas

    return regression_deltas(
        _elapsed_map(current), _elapsed_map(baseline), threshold=max_regress,
        min_seconds=0.0,
    )
