"""Tests for the campaign engine: jobs, queue, cache, store, sweeps.

The determinism pair the engine is built around:

- an interrupted-then-resumed sweep completes exactly the pending jobs
  and ends with store contents identical to an uninterrupted sweep;
- re-running an identical sweep is 100% cache hits (verified both via
  the cache's own counters and the mirrored ``campaign.run_cache`` obs
  counters, the ``lcg.tile_cache`` idiom).
"""

import json
import re
import warnings
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignEngine,
    Job,
    JobQueue,
    ResultStore,
    RunCache,
    SweepSpec,
    compare_stores,
    execute_job,
)
from repro.campaign.store import check_result_row
from repro.errors import ConfigurationError

CODE = "test-code-v1"

SCENARIO = {
    "schema": "repro.scenario/v1",
    "name": "limp1",
    "injections": [
        {"kind": "limplock", "rank": 1, "factor": 6.0, "onset_frac": 0.25}
    ],
}


def _job(grid=2, bcast="ring2m", **kw):
    kw.setdefault("machine", "frontier")
    kw.setdefault("nl", 3072)
    kw.setdefault("block", 768)
    kw.setdefault("num_runs", 1)
    return Job(grid=grid, bcast=bcast, **kw)


def _jobs():
    return [
        _job(grid=2, bcast="bcast"),
        _job(grid=2, bcast="ring2m"),
        _job(grid=4, bcast="bcast"),
        _job(grid=4, bcast="ring2m"),
    ]


def _engine(tmp_path, workers=1, sub=""):
    store = ResultStore(tmp_path / f"store{sub}.jsonl")
    cache = RunCache(tmp_path / f"cache{sub}")
    return CampaignEngine(store, cache, workers=workers, log=lambda _m: None)


class TestJobKeys:
    def test_key_is_stable_and_code_sensitive(self):
        assert _job().key(CODE) == _job().key(CODE)
        assert _job().key(CODE) != _job().key("other-code")
        assert _job(grid=4).key(CODE) != _job(grid=2).key(CODE)

    def test_scenario_hashed_by_content_not_path(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(SCENARIO))
        from_path = Job.from_dict(
            {"machine": "frontier", "scenario": str(p)}
        )
        inline = Job.from_dict(
            {"machine": "frontier", "scenario": SCENARIO}
        )
        assert from_path.key(CODE) == inline.key(CODE)

    def test_label_names_the_config(self):
        job = _job(grid=2, bcast="bcast", scenario=SCENARIO)
        assert job.label == "frontier/N=6144/B=768/2x2/bcast/limp1"

    def test_machine_defaults_fill_in(self):
        job = Job.from_dict({"machine": "summit"})
        assert (job.nl, job.block, job.bcast) == (61440, 768, "bcast")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job field"):
            Job.from_dict({"machine": "frontier", "blocksize": 768})

    def test_custom_machine_needs_explicit_shape(self):
        with pytest.raises(ConfigurationError, match="needs explicit"):
            Job.from_dict({"machine": "mystery"})


class TestSweepSpec:
    def test_expand_is_the_cartesian_product(self):
        spec = SweepSpec(
            machine="frontier", nl=3072, block=768,
            grids=(2, 4), bcasts=("bcast", "ring2m"),
            scenarios=(None, SCENARIO), num_runs=1,
        )
        jobs = spec.expand()
        assert len(jobs) == 8
        assert len({j.label for j in jobs}) == 8

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep field"):
            SweepSpec.from_dict({"machine": "frontier", "grid": [2]})

    def test_load_round_trip(self, tmp_path):
        spec = SweepSpec(machine="frontier", nl=3072, block=768,
                         grids=(2,), bcasts=("bcast",))
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.load(p).expand()[0].label == spec.expand()[0].label


class TestJobQueue:
    def test_checkpoint_round_trip(self, tmp_path):
        q = JobQueue(tmp_path / "queue.json")
        q.add("k1", {"machine": "frontier"})
        q.add("k2", {"machine": "frontier", "grid": 4})
        q.mark_done("k1")
        q.checkpoint()
        q2 = JobQueue(tmp_path / "queue.json")
        assert q2.status_of("k1") == "done"
        assert [k for k, _ in q2.pending()] == ["k2"]
        assert q2.counts() == {"pending": 1, "done": 1, "failed": 0}

    def test_failed_jobs_stay_pending_for_retry(self, tmp_path):
        q = JobQueue(tmp_path / "queue.json")
        q.add("k1", {})
        q.mark_failed("k1", "worker died")
        assert [k for k, _ in q.pending()] == ["k1"]

    def test_malformed_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "queue.json"
        p.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ConfigurationError):
            JobQueue(p)

    @pytest.mark.parametrize("jobs, where", [
        (["abc"], "entry 0"),
        ({"k1": {"key": "k1"}}, "'jobs'"),
        ([{"key": "k1", "job": {}}, {"key": "k2", "job": ["grid", 4]}],
         "entry 1"),
    ])
    def test_malformed_entries_name_path_and_index(self, tmp_path, jobs,
                                                   where):
        p = tmp_path / "queue.json"
        p.write_text(json.dumps({"schema": "repro.campaign.queue/v1",
                                 "jobs": jobs}))
        with pytest.raises(ConfigurationError) as err:
            JobQueue(p)
        assert str(p) in str(err.value) and where in str(err.value)


class TestJobQueueLog:
    """The queue checkpoint is an append-only log: one line per checkpoint
    holding what changed, replayed last-entry-wins on load."""

    def _entries(self, jobs, done):
        return [
            {"key": job.key(CODE), "status": "done" if i in done else "pending",
             "job": job.to_dict(), "error": ""}
            for i, job in enumerate(jobs)
        ]

    def test_indented_whole_queue_checkpoint_loads_and_resumes(self, tmp_path):
        jobs = _jobs()
        p = tmp_path / "q.json"
        doc = {"schema": "repro.campaign.queue/v1",
               "jobs": self._entries(jobs, done={0, 1})}
        p.write_text(json.dumps(doc, indent=2) + "\n")
        before = p.read_text()
        q = JobQueue(p)
        assert q.counts() == {"pending": 2, "done": 2, "failed": 0}
        out = _engine(tmp_path).run_sweep(jobs, q, code=CODE)
        assert (out.total, out.computed) == (4, 2)
        assert p.read_text().startswith(before)  # appended, not rewritten
        assert JobQueue(p).counts()["done"] == 4

    def test_cold_sweep_appends_one_line_per_completion(self, tmp_path):
        jobs = _jobs()
        p = tmp_path / "q.json"
        seen = []
        _engine(tmp_path).run_sweep(
            jobs, JobQueue(p), code=CODE,
            on_complete=lambda _key, _row: seen.append(p.read_bytes()),
        )
        final = p.read_bytes()
        for earlier, later in zip(seen, seen[1:] + [final]):
            assert later.startswith(earlier)
        lines = final.decode().splitlines()
        assert len(lines) == 1 + len(jobs)
        registered = json.loads(lines[0])
        assert [e["status"] for e in registered["jobs"]] == ["pending"] * 4
        for line in lines[1:]:
            (entry,) = json.loads(line)["jobs"]
            assert entry["status"] == "done"

    def test_unchanged_checkpoint_writes_nothing(self, tmp_path):
        p = tmp_path / "q.json"
        q = JobQueue(p)
        q.add("k1", {"machine": "frontier"})
        q.add("k2", {"machine": "summit"})
        q.mark_done("k1")
        q.checkpoint()
        before = p.read_bytes()
        q.checkpoint()
        again = JobQueue(p)
        again.add("k1", {"machine": "frontier"})
        again.mark_done("k1")
        again.checkpoint()
        assert p.read_bytes() == before

    def test_unterminated_complete_line_survives_the_next_cut(self, tmp_path):
        p = tmp_path / "q.json"
        entry = {"key": "k1", "status": "done", "job": {}, "error": ""}
        p.write_text(json.dumps({"schema": "repro.campaign.queue/v1",
                                 "jobs": [entry]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = JobQueue(p)
        q.add("k2", {})
        q.checkpoint()
        assert p.read_text().endswith("\n")
        reloaded = JobQueue(p)
        assert reloaded.status_of("k1") == "done"
        assert reloaded.status_of("k2") == "pending"

    def test_torn_final_line_dropped_then_cut(self, tmp_path):
        p = tmp_path / "q.json"
        q = JobQueue(p)
        q.add("k1", {})
        q.add("k2", {})
        q.checkpoint()
        intact = p.read_bytes()
        q.mark_done("k1")
        q.checkpoint()
        p.write_bytes(p.read_bytes()[:-9])  # the second append, cut short
        with pytest.warns(UserWarning,
                          match=re.escape(f"{p}:2: dropping a torn")):
            resumed = JobQueue(p)
        assert p.read_bytes().startswith(intact)
        assert resumed.counts() == {"pending": 2, "done": 0, "failed": 0}
        resumed.mark_failed("k2", "boom")
        resumed.checkpoint()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = JobQueue(p)
        assert len(p.read_text().splitlines()) == 2
        assert reloaded.status_of("k1") == "pending"
        assert reloaded.status_of("k2") == "failed"


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        c = RunCache(tmp_path / "cache")
        assert c.get("deadbeefdeadbeef") is None
        c.put("deadbeefdeadbeef", {"key": "deadbeefdeadbeef", "x": 1})
        assert c.get("deadbeefdeadbeef")["x"] == 1
        assert c.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "stores": 1,
        }

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        c = RunCache(tmp_path / "cache")
        c.put("deadbeefdeadbeef", {"key": "deadbeefdeadbeef"})
        c.path.write_text("deadbeefdeadbeef\t{trunc\n")
        assert c.get("deadbeefdeadbeef") is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        c = RunCache(tmp_path / "cache")
        c.put("deadbeefdeadbeef", {"key": "somethingelse0000"})
        assert c.get("deadbeefdeadbeef") is None


class TestRunCacheLog:
    """The run cache is one append-only log indexed by offset."""

    KEYS = ("a" * 16, "b" * 16, "c" * 16)

    def test_two_caches_on_one_root_see_each_others_puts(self, tmp_path):
        a, b = RunCache(tmp_path / "cache"), RunCache(tmp_path / "cache")
        ka, kb, _ = self.KEYS
        a.put(ka, {"key": ka, "x": 1})
        assert b.get(ka) == {"key": ka, "x": 1}
        b.put(kb, {"key": kb, "x": 2})
        assert a.get(kb) == {"key": kb, "x": 2}
        assert len(a) == len(b) == 2

    def test_corrupted_line_is_a_miss(self, tmp_path):
        c = RunCache(tmp_path / "cache")
        for i, key in enumerate(self.KEYS):
            c.put(key, {"key": key, "x": i})
        lines = c.path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:17] + "{not json" + "\n"
        c.path.write_text("".join(lines))
        fresh = RunCache(tmp_path / "cache")
        ka, kb, kc = self.KEYS
        assert fresh.get(kb) is None
        assert fresh.get(ka)["x"] == 0 and fresh.get(kc)["x"] == 2

    def test_torn_tail_is_a_miss_and_the_next_put_repairs_it(self, tmp_path):
        c = RunCache(tmp_path / "cache")
        ka, kb, kc = self.KEYS
        c.put(ka, {"key": ka})
        intact = c.path.read_bytes()
        with open(c.path, "ab") as fh:
            fh.write(f"{kb}\t{{\"key\": \"{kb}\"".encode())  # no newline
        reader = RunCache(tmp_path / "cache")
        assert reader.get(kb) is None
        assert reader.get(ka) == {"key": ka}
        c.put(kc, {"key": kc})
        assert c.path.read_bytes() == intact + f"{kc}\t{json.dumps({'key': kc})}\n".encode()
        assert reader.get(kc) == {"key": kc}
        assert RunCache(tmp_path / "cache").get(kb) is None

    def test_key_mismatched_line_is_a_miss(self, tmp_path):
        ka, kb, _ = self.KEYS
        c = RunCache(tmp_path / "cache")
        c.put(ka, {"key": ka})
        with open(c.path, "a") as fh:
            fh.write(f"{kb}\t{json.dumps({'key': ka})}\n")
        assert RunCache(tmp_path / "cache").get(kb) is None
        assert RunCache(tmp_path / "cache").get(ka) == {"key": ka}

    def test_per_key_files_of_earlier_versions_are_ignored(self, tmp_path):
        ka = self.KEYS[0]
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / f"{ka}.json").write_text(json.dumps({"key": ka}))
        c = RunCache(tmp_path / "cache")
        assert c.get(ka) is None and len(c) == 0


class TestExecuteJob:
    def test_row_validates_and_carries_the_job(self):
        job = _job()
        row = execute_job(job.to_dict(), code=CODE)
        assert check_result_row(row) == []
        assert row["key"] == job.key(CODE)
        assert row["label"] == job.label
        assert row["best"]["elapsed_s"] > 0
        assert "completed_utc" in row["meta"]

    def test_scenario_degrades_the_run(self):
        clean = execute_job(_job().to_dict(), code=CODE)
        limped = execute_job(
            _job(scenario=SCENARIO).to_dict(), code=CODE
        )
        assert limped["best"]["elapsed_s"] > clean["best"]["elapsed_s"]


class TestSweepDeterminism:
    def test_sweep_computes_everything_once(self, tmp_path):
        eng = _engine(tmp_path)
        out = eng.run_sweep(_jobs(), JobQueue(tmp_path / "q.json"), code=CODE)
        assert (out.total, out.computed, out.cached, out.failed) == (
            4, 4, 0, 0,
        )
        assert len(eng.store) == 4
        assert JobQueue(tmp_path / "q.json").counts()["done"] == 4

    def test_resume_completes_exactly_the_pending_jobs(self, tmp_path):
        jobs = _jobs()
        # Reference: one uninterrupted sweep.
        ref = _engine(tmp_path, sub="_ref")
        ref.run_sweep(jobs, JobQueue(tmp_path / "q_ref.json"), code=CODE)

        # Interrupted sweep: die after 2 completions (post-checkpoint,
        # exactly where a kill -9 would leave a consistent queue).
        class Killed(RuntimeError):
            pass

        eng = _engine(tmp_path)
        done = []

        def killer(key, _row):
            done.append(key)
            if len(done) == 2:
                raise Killed(key)

        with pytest.raises(Killed):
            eng.run_sweep(jobs, JobQueue(tmp_path / "q.json"), code=CODE,
                          on_complete=killer)
        counts = JobQueue(tmp_path / "q.json").counts()
        assert counts["done"] == 2 and counts["pending"] == 2

        # Resume with fresh objects (a new process would reload all
        # three files from disk exactly like this).
        eng2 = _engine(tmp_path)
        out = eng2.run_sweep(jobs, JobQueue(tmp_path / "q.json"), code=CODE)
        assert out.total == 4
        assert out.computed + out.cached == 2  # exactly the pending two
        assert JobQueue(tmp_path / "q.json").counts()["done"] == 4

        # Store contents identical to the uninterrupted sweep.
        final = ResultStore(tmp_path / "store.jsonl").snapshot()
        assert final == ResultStore(tmp_path / "store_ref.jsonl").snapshot()

    def test_rerun_is_all_cache_hits(self, tmp_path):
        from repro.obs import Observability, use

        jobs = _jobs()
        first = _engine(tmp_path)
        first.run_sweep(jobs, JobQueue(tmp_path / "q1.json"), code=CODE)

        obs = Observability()
        with use(obs):
            again = CampaignEngine(
                ResultStore(tmp_path / "store2.jsonl"),
                RunCache(tmp_path / "cache"),  # same cache dir
                log=lambda _m: None,
            )
            out = again.run_sweep(
                jobs, JobQueue(tmp_path / "q2.json"), code=CODE
            )
        assert (out.computed, out.cached) == (0, 4)
        assert out.cache_hit_ratio == 1.0
        assert again.cache.stats()["hits"] == 4

        def val(event):
            return obs.metrics.counter(
                "campaign.run_cache", event=event
            ).value

        assert val("hit") == 4 and val("miss") == 0

        # ...and the rebuilt store matches the computed one exactly.
        assert again.store.snapshot() == first.store.snapshot()

    def test_code_version_bump_invalidates_the_cache(self, tmp_path):
        jobs = _jobs()[:1]
        _engine(tmp_path).run_sweep(
            jobs, JobQueue(tmp_path / "q1.json"), code="v1"
        )
        out = _engine(tmp_path).run_sweep(
            jobs, JobQueue(tmp_path / "q2.json"), code="v2"
        )
        assert (out.computed, out.cached) == (1, 0)

    def test_sharded_sweep_matches_sequential(self, tmp_path):
        jobs = _jobs()
        seq = _engine(tmp_path, sub="_seq")
        seq.run_sweep(jobs, JobQueue(tmp_path / "q_seq.json"), code=CODE)
        par = _engine(tmp_path, sub="_par", workers=2)
        out = par.run_sweep(jobs, JobQueue(tmp_path / "q_par.json"),
                            code=CODE)
        assert out.computed == 4 and out.workers == 2
        assert par.store.snapshot() == seq.store.snapshot()

    def test_failed_job_recorded_not_fatal(self, tmp_path):
        eng = _engine(tmp_path)
        jobs = [_job(), _job(bcast="no-such-algorithm")]
        out = eng.run_sweep(jobs, JobQueue(tmp_path / "q.json"), code=CODE)
        assert (out.computed, out.failed) == (1, 1)
        (key, error), = out.errors
        assert "no-such-algorithm" in error
        assert JobQueue(tmp_path / "q.json").status_of(key) == "failed"


_KILL_ONE_WORKER = """
import json, os, sys
from repro.campaign import CampaignEngine, Job, JobQueue, ResultStore, RunCache
from repro.campaign import engine
from repro.campaign.runner import pool_execute

CODE = "test-code-v1"
JOBS = [Job(machine="frontier", nl=3072, block=768, num_runs=1, grid=g, bcast=b)
        for g in (2, 4) for b in ("bcast", "ring2m")]
DOOMED = JOBS[1].key(CODE)


def die_on_doomed(item):
    if item[0] == DOOMED:
        os._exit(9)
    return pool_execute(item)


if __name__ == "__main__":
    engine.pool_execute = die_on_doomed
    root = sys.argv[1]
    eng = CampaignEngine(ResultStore(root + "/store.jsonl"),
                         RunCache(root + "/cache"), workers=2,
                         log=lambda _m: None)
    out = eng.run_sweep(JOBS, JobQueue(root + "/q.json"), code=CODE)
    print(json.dumps({"doomed": DOOMED, "summary": out.to_dict()}))
"""


class TestWorkerDeath:
    def test_killed_worker_fails_its_jobs_and_resume_retries(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        script = tmp_path / "kill_one_worker.py"
        script.write_text(_KILL_ONE_WORKER)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path)], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        summary = report["summary"]
        errors = {e["key"]: e["error"] for e in summary["errors"]}
        assert report["doomed"] in errors
        for key, error in errors.items():
            assert key in error and "worker process died" in error
        assert summary["failed"] == len(errors)
        assert summary["computed"] + summary["failed"] == summary["total"] == 4

        queue = JobQueue(tmp_path / "q.json")
        assert queue.counts()["failed"] == len(errors)
        assert {key for key, _ in queue.pending()} == set(errors)
        out = _engine(tmp_path).run_sweep(_jobs(), queue, code=CODE)
        assert out.computed == len(errors) and out.failed == 0
        assert JobQueue(tmp_path / "q.json").counts()["done"] == 4


class TestStoreQueries:
    def test_compare_stores_clean_and_regressed(self, tmp_path):
        eng = _engine(tmp_path)
        eng.run_sweep(_jobs()[:2], JobQueue(tmp_path / "q.json"), code=CODE)
        store = eng.store

        deltas = compare_stores(store, store, max_regress=0.25)
        assert len(deltas) == 2 and not any(d.regressed for d in deltas)

        slow = ResultStore(tmp_path / "slow.jsonl")
        for key in store.keys():
            row = json.loads(json.dumps(store.get(key)))
            row["best"]["elapsed_s"] *= 2.0
            slow.put(row)
        deltas = compare_stores(slow, store, max_regress=0.25)
        assert all(d.regressed for d in deltas)

    def test_against_exported_document(self, tmp_path):
        from repro.util.atomicio import atomic_write_json

        eng = _engine(tmp_path)
        eng.run_sweep(_jobs()[:1], JobQueue(tmp_path / "q.json"), code=CODE)
        export = tmp_path / "export.json"
        atomic_write_json(export, eng.store.export_document())
        (d,) = compare_stores(eng.store, str(export))
        assert not d.regressed

    def test_store_rejects_corrupt_rows(self, tmp_path):
        p = tmp_path / "store.jsonl"
        p.write_text('{"schema": "repro.campaign.result/v1"}\n')
        with pytest.raises(ConfigurationError):
            ResultStore(p)

    def test_rows_filter_by_machine(self, tmp_path):
        eng = _engine(tmp_path)
        eng.run_sweep(_jobs()[:2], JobQueue(tmp_path / "q.json"), code=CODE)
        assert len(eng.store.rows(machine="frontier")) == 2
        assert eng.store.rows(machine="summit") == []


@pytest.fixture(scope="module")
def log_rows():
    """Four valid rows under distinct keys (one computed, three copies)."""
    base = execute_job(_job().to_dict(), code=CODE)
    rows = []
    for i in range(4):
        row = json.loads(json.dumps(base))
        row["key"] = f"{i:016x}"
        rows.append(row)
    return rows


def _line(row):
    return json.dumps(row, sort_keys=True) + "\n"


class TestStoreLog:
    """The store file is an append-only log: last line per key wins, a
    torn final line is dropped on load and repaired by the next put."""

    def test_put_appends_one_line_per_row(self, tmp_path, log_rows):
        p = tmp_path / "sub" / "store.jsonl"
        store = ResultStore(p)
        for row in log_rows[:2]:
            store.put(row)
        assert p.read_text() == _line(log_rows[0]) + _line(log_rows[1])

    def test_torn_final_line_dropped_then_repaired(self, tmp_path, log_rows):
        p = tmp_path / "store.jsonl"
        intact = _line(log_rows[0]) + _line(log_rows[1])
        p.write_text(intact + _line(log_rows[2])[:40])
        torn = p.read_bytes()
        with pytest.warns(UserWarning, match=re.escape(f"{p}:3: dropping a torn")):
            store = ResultStore(p)
        assert store.keys() == [log_rows[0]["key"], log_rows[1]["key"]]
        assert p.read_bytes() == torn  # readers never write
        store.put(log_rows[3])
        assert p.read_text() == intact + _line(log_rows[3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(ResultStore(p)) == 3

    def test_bad_middle_line_names_path_and_line(self, tmp_path, log_rows):
        p = tmp_path / "store.jsonl"
        p.write_text(_line(log_rows[0]) + "{not json\n" + _line(log_rows[1]))
        with pytest.raises(ConfigurationError, match=re.escape(f"{p}:2: store row is not valid")):
            ResultStore(p)
        bad = dict(log_rows[1], exclusion_applied="yes")
        p.write_text(_line(log_rows[0]) + _line(bad) + _line(log_rows[1]))
        with pytest.raises(ConfigurationError, match=re.escape(f"{p}:2: ")):
            ResultStore(p)

    def test_key_written_twice_loads_its_last_row(self, tmp_path, log_rows):
        p = tmp_path / "store.jsonl"
        later = json.loads(json.dumps(log_rows[0]))
        later["best"]["elapsed_s"] *= 2.0
        p.write_text(_line(log_rows[0]) + _line(log_rows[1]) + _line(later))
        store = ResultStore(p)
        assert len(store) == 2
        assert store.get(later["key"]) == later

    def test_identical_put_appends_nothing(self, tmp_path, log_rows):
        p = tmp_path / "store.jsonl"
        ResultStore(p).put(log_rows[0])
        before = p.read_bytes()
        store = ResultStore(p)
        store.put(json.loads(json.dumps(log_rows[0])))
        store.put(log_rows[0])
        assert p.read_bytes() == before

    def test_parent_sorted_rewrite_loads_same_snapshot(self, tmp_path,
                                                       log_rows):
        # The whole-file rewrite format: rows in sorted-key order,
        # newline-joined, one trailing newline.
        p = tmp_path / "rewritten.jsonl"
        p.write_text("".join(_line(r) for r in log_rows))
        appended = ResultStore(tmp_path / "appended.jsonl")
        for row in reversed(log_rows):
            appended.put(row)
        assert ResultStore(p).snapshot() == appended.snapshot()
        before = p.read_bytes()
        store = ResultStore(p)
        for row in reversed(log_rows):
            store.put(row)
        assert p.read_bytes() == before

    def test_two_stores_on_one_path_keep_every_row(self, tmp_path,
                                                   log_rows):
        p = tmp_path / "store.jsonl"
        a, b = ResultStore(p), ResultStore(p)
        a.put(log_rows[0])
        b.put(log_rows[1])
        a.put(log_rows[2])
        b.put(log_rows[3])
        assert ResultStore(p).keys() == sorted(r["key"] for r in log_rows)

    def test_concurrent_processes_keep_every_row(self, tmp_path, log_rows):
        # More writers than a small CI host has cores; each opens the
        # store, then all append at once once every one has opened it,
        # so a whole-file rewrite would keep only one writer's rows.
        import os
        import subprocess
        import sys
        import time

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import json, os, sys, time\n"
            "from repro.campaign import ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "open(sys.argv[3], 'w').close()\n"
            "while not os.path.exists(sys.argv[4]):\n"
            "    time.sleep(0.005)\n"
            "with open(sys.argv[2]) as fh:\n"
            "    rows = json.load(fh)\n"
            "for row in rows:\n"
            "    store.put(row)\n"
        )
        p, go = tmp_path / "store.jsonl", tmp_path / "go"
        procs, ready = [], []
        for writer in range(4):
            rows = []
            for i in range(15):
                row = json.loads(json.dumps(log_rows[0]))
                row["key"] = f"{writer:08x}{i:08x}"
                rows.append(row)
            doc = tmp_path / f"rows{writer}.json"
            doc.write_text(json.dumps(rows))
            ready.append(tmp_path / f"ready{writer}")
            procs.append(subprocess.Popen(
                [sys.executable, "-c", script, str(p), str(doc),
                 str(ready[-1]), str(go)], env=env))
        deadline = time.monotonic() + 120
        while (not all(r.exists() for r in ready)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        go.touch()
        assert [proc.wait(timeout=120) for proc in procs] == [0] * 4
        assert len(ResultStore(p)) == 60
        assert len(p.read_text().splitlines()) == 60


class TestLabelCollisions:
    """Two rows may share a label (seed/num_runs/spare_nodes are not in
    it) — the gate join must refuse to silently pick one."""

    def _two_rows_one_label(self, tmp_path):
        eng = _engine(tmp_path)
        eng.run_sweep(_jobs()[:1], JobQueue(tmp_path / "q.json"), code=CODE)
        row = json.loads(json.dumps(eng.store.get(eng.store.keys()[0])))
        variant = _job(grid=2, bcast="bcast", seed=999)
        row["key"] = variant.key(CODE)
        row["job"]["seed"] = 999
        eng.store.put(row)
        return eng.store

    def test_duplicate_label_raises_with_both_keys(self, tmp_path):
        store = self._two_rows_one_label(tmp_path)
        assert len(store) == 2
        with pytest.raises(ConfigurationError, match="duplicate job label"):
            store.elapsed_by_label()
        try:
            store.elapsed_by_label()
        except ConfigurationError as exc:
            for key in store.keys():
                assert key in str(exc)

    def test_compare_stores_refuses_colliding_store(self, tmp_path):
        store = self._two_rows_one_label(tmp_path)
        with pytest.raises(ConfigurationError, match="duplicate job label"):
            compare_stores(store, store)

    def test_export_document_join_also_guarded(self, tmp_path):
        from repro.campaign.store import _elapsed_map

        store = self._two_rows_one_label(tmp_path)
        with pytest.raises(ConfigurationError, match="duplicate job label"):
            _elapsed_map(store.export_document())

    def test_distinct_labels_unaffected(self, tmp_path):
        eng = _engine(tmp_path)
        eng.run_sweep(_jobs(), JobQueue(tmp_path / "q.json"), code=CODE)
        assert len(eng.store.elapsed_by_label()) == 4


class TestWorkerMeta:
    """pool_execute stamps fleet-utilization facts into row meta."""

    def test_pool_execute_records_worker_and_queue_wait(self):
        import time

        from repro.campaign.runner import pool_execute

        job = _job()
        enqueued = time.time() - 1.0
        key, row, err = pool_execute(
            (job.key(CODE), job.to_dict(), CODE, enqueued)
        )
        assert err == "" and row is not None
        meta = row["meta"]
        assert meta["worker"] == "MainProcess"
        assert meta["queue_wait_s"] >= 1.0
        assert meta["started_unix"] > enqueued
        assert "completed_utc" in meta and "compute_wall_s" in meta

    def test_legacy_three_tuple_still_accepted(self):
        from repro.campaign.runner import pool_execute

        job = _job()
        key, row, err = pool_execute((job.key(CODE), job.to_dict(), CODE))
        assert err == "" and row["meta"]["worker"] == "MainProcess"
        assert "queue_wait_s" not in row["meta"]

    def test_sweep_rows_carry_worker_meta(self, tmp_path):
        eng = _engine(tmp_path, workers=2)
        eng.run_sweep(_jobs(), JobQueue(tmp_path / "q.json"), code=CODE)
        for key in eng.store.keys():
            meta = eng.store.get(key)["meta"]
            assert meta["worker"]
            assert meta["queue_wait_s"] >= 0.0

    def test_worker_counters_mirrored_to_obs(self, tmp_path):
        from repro.obs import Observability, use

        obs = Observability()
        with use(obs):
            eng = _engine(tmp_path)
            eng.run_sweep(_jobs()[:2], JobQueue(tmp_path / "q.json"),
                          code=CODE)
        counter = obs.metrics.counter(
            "campaign.worker", worker="MainProcess", event="jobs"
        )
        assert counter.value == 2
        hist = obs.metrics.histogram(
            "campaign.worker.run_s", worker="MainProcess"
        )
        assert hist.count == 2


class TestCampaignStoreChecker:
    def _findings(self, path):
        from repro.analyze import run_analysis

        return run_analysis([str(path)], select=["campaign-store"]).findings

    def test_valid_store_passes(self, tmp_path):
        eng = _engine(tmp_path)
        eng.run_sweep(_jobs()[:2], JobQueue(tmp_path / "q.json"), code=CODE)
        assert self._findings(eng.store.path) == []

    def test_corrupted_row_flagged_with_line(self, tmp_path):
        eng = _engine(tmp_path)
        eng.run_sweep(_jobs()[:1], JobQueue(tmp_path / "q.json"), code=CODE)
        row = json.loads(eng.store.path.read_text())
        del row["best"]
        row["exclusion_applied"] = "yes"
        eng.store.path.write_text("\n" + json.dumps(row) + "\n")
        findings = self._findings(eng.store.path)
        assert findings and all(f.line == 2 for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "best" in messages and "exclusion_applied" in messages

    def test_non_campaign_json_ignored(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"schema": "repro.trace/v1", "events": []}))
        assert self._findings(p) == []

    def test_registered_in_default_suite(self):
        from repro.analyze.checkers import all_checkers
        from repro.analyze.framework import members

        assert "campaign-store" in {
            m.id for c in all_checkers() for m in members(c)}
