"""The four benchmark workloads.

A workload builds every input from the benchmark seed (the program
receives only generated inputs), executes *rounds* — a fixed list of
ops — through the program's importable public functions, and checks
every output.  One round returns its wall time, the latency of its
fast and slow op class, the ops attempted and failed, the simulated
statistics (what ``sim_digest`` hashes) and the counters the traced
pass turns into per-layer metrics.

Nothing here imports :mod:`repro` at module level: the launch measures
set-up from process spawn, so the import cost lands inside it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import threading
import time
import traceback
from pathlib import Path

import layers

SCENARIO_SCHEMA = "repro.scenario/v1"
PROFILE_SCHEMA = "repro.obs.profile/v1"
BCASTS = ("bcast", "ibcast", "ring1", "ring1m", "ring2m")


def sha256(doc) -> str:
    """Digest of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def hpl_ai_gflop(n: int) -> float:
    """The HPL-AI flop count (2/3 N^3 + 3/2 N^2), in GFLOP."""
    return (2.0 / 3.0 * n ** 3 + 1.5 * n ** 2) / 1e9


class Tally:
    """Ops attempted and failed in one round, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, name: str, fn, count: int = 1):
        """Time ``fn()`` as ``count`` ops; returns ``(result, seconds)``.

        An op that raises is a failed op, not a crashed benchmark: the
        round goes on and the run exits non-zero at the end.
        """
        self.attempted += count
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # op boundary: the failure is recorded, the run continues
            self.fail(name, traceback.format_exc(limit=4), count)
            result = None
        return result, time.perf_counter() - t0

    def fail(self, name: str, why: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{name}: {why}")

    def check(self, ok: bool, name: str, why: str, count: int = 1) -> None:
        if not ok:
            self.fail(name, why, count)


class Workload:
    """Base: seeded input construction plus the round protocol."""

    name = ""
    work_unit = ""
    #: implementation-independent work of one round, in ``work_unit``
    work_per_round = 0.0

    def __init__(self, seed: int, scratch: Path, inject_failure: bool = False,
                 trace: bool = False) -> None:
        self.seed = seed
        self.scratch = Path(scratch)
        #: a traced launch: helper processes record spans too
        self.trace = trace
        #: corrupt one expected value per round so a check must fail —
        #: how the smoke test proves the gate trips
        self.inject_failure = inject_failure
        self.inputs: dict = {}
        #: what a helper process reported when it stopped (``rss_kb``, ``spans``)
        self.server_report: dict = {}

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{purpose}")

    def setup(self) -> None:
        """Build program-side state from the inputs (imports included)."""

    def round(self, index: int) -> dict:
        raise NotImplementedError

    def close(self, tally: Tally, verified: dict) -> None:
        """Tear down and run the checks deferred out of the timed region."""

    def _finish(self, tally, t0, c0, fast_s, slow_s, sim, counters) -> dict:
        return {
            "wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0,
            "fast_ms": fast_s * 1e3,
            "slow_ms": slow_s * 1e3,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
            "sim": sim,
            "counters": counters,
        }


def _sim_stats(res) -> dict:
    """Simulated statistics of one DES run (never engine events: event
    coalescing may change their number without changing the machine)."""
    return {
        "elapsed": res.elapsed,
        "elapsed_factorization": res.elapsed_factorization,
        "elapsed_refinement": res.elapsed_refinement,
        "gflops_per_gcd": res.gflops_per_gcd,
        "messages": sum(st.messages_sent for st in res.stats),
        "bytes": sum(st.bytes_sent for st in res.stats),
    }


def _config_doc(machine, p, nl, block, bcast, seed=None) -> dict:
    doc = {"machine": machine, "p": p, "n": nl * p, "block": block, "bcast": bcast}
    if seed is not None:
        doc["seed"] = seed
    return doc


def _make_config(doc: dict):
    from repro.core.config import BenchmarkConfig
    from repro.machine import get_machine

    extra = {"seed": doc["seed"]} if "seed" in doc else {}
    return BenchmarkConfig(
        n=doc["n"], block=doc["block"], machine=get_machine(doc["machine"]),
        p_rows=doc["p"], p_cols=doc["p"], bcast_algorithm=doc["bcast"], **extra,
    )


class DesPhantom(Workload):
    """EventEngine on its static fast path, obs disabled, phantom payloads.

    Why: ROADMAP item 2's target.  ``simulate``, ``comm`` and ``core``
    do nearly all the work at two scales and both broadcast families
    (tree and ring), so super-linear growth shows as slow/fast.
    """

    name = "des_phantom"
    work_unit = "rank-steps"

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        lcg_seed = self.rng("lcg").randrange(1, 2 ** 31)
        self.inputs = {
            "fast": _config_doc("summit", 8, 8192, 1024, "bcast", seed=lcg_seed),
            "slow": _config_doc("summit", 12, 8192, 1024, "ring2m", seed=lcg_seed),
        }
        self.work_per_round = float(sum(
            d["p"] ** 2 * d["n"] // d["block"] for d in self.inputs.values()
        ))
        self.reference: dict = {}

    def setup(self) -> None:
        import repro.core.driver as driver

        self.driver = driver
        self.configs = {k: _make_config(d) for k, d in self.inputs.items()}

    def round(self, index: int) -> dict:
        tally = Tally()
        t0, c0 = time.perf_counter(), time.process_time()
        sim, seconds, events = {}, {}, 0
        for op in ("fast", "slow"):
            res, seconds[op] = tally.run(op, lambda: self.driver.simulate_run(self.configs[op]))
            if res is None:
                continue
            sim[op] = _sim_stats(res)
            events += res.engine_events
            expected = dict(self.reference.setdefault(op, sim[op]))
            if self.inject_failure and op == "fast":
                expected["elapsed"] += 1.0
            tally.check(sim[op] == expected, op,
                        f"simulated statistics changed: {sim[op]} != {expected}")
        counters = {
            "simulate.events": events,
            "comm.messages": sum(s["messages"] for s in sim.values()),
            "comm.bytes": sum(s["bytes"] for s in sim.values()),
        }
        return self._finish(tally, t0, c0, seconds["fast"], seconds["slow"], sim, counters)


class DesObserved(Workload):
    """The same engine on its scenario-driven dynamic path, with telemetry.

    Why: a fast-path gain that costs the scenario or instrumented path
    shows here and not in ``des_phantom``; it is also where ``obs``
    dominates (span export + load + profile cost several simulations).
    """

    name = "des_observed"
    work_unit = "rank-steps"
    #: plain scenario runs per round; the round's fast latency is their median
    FAST_REPEATS = 3

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.inputs = {
            "config": _config_doc("summit", 6, 6144, 1024, "ring2m",
                                  seed=self.rng("lcg").randrange(1, 2 ** 31)),
            "scenario": {
                "schema": SCENARIO_SCHEMA,
                "name": "perf-limplock-crash-jitter",
                "injections": [
                    {"kind": "limplock", "rank": 5, "factor": 6.0, "onset_frac": 0.2},
                    {"kind": "rank_crash", "rank": 9, "at_frac": 0.45,
                     "restart_delay_s": 0.002},
                    {"kind": "link_jitter", "amplitude_s": 2e-05,
                     "seed": self.rng("link-jitter").randrange(1, 2 ** 31)},
                ],
            },
        }
        d = self.inputs["config"]
        self.work_per_round = float(
            (self.FAST_REPEATS + 1) * d["p"] ** 2 * d["n"] // d["block"]
        )
        self.reference: dict = {}

    def setup(self) -> None:
        import repro.core.driver as driver
        import repro.obs.analysis as analysis
        from repro.obs import Observability
        from repro.obs.health import HealthMonitor, RunWatchdog
        from repro.scenario import Scenario

        # Modules, not functions: the traced pass wraps their attributes.
        self.driver, self.analysis = driver, analysis
        self.new_obs = lambda: Observability(
            health=HealthMonitor(watchdog=RunWatchdog(margin=25))
        )
        self.cfg = _make_config(self.inputs["config"])
        self.scenario = Scenario.from_dict(self.inputs["scenario"])

    def _observed_chain(self, trace_path: Path):
        """The ``repro trace`` -> ``repro profile`` verb chain."""
        obs = self.new_obs()
        t = time.perf_counter()
        res = self.driver.simulate_run(self.cfg, scenario=self.scenario, obs=obs)
        simulate_s = time.perf_counter() - t
        path = obs.export_chrome_trace(str(trace_path), sort=True)
        profile = self.analysis.build_profile(self.analysis.load_profile_input(path))
        return res, simulate_s, len(obs.tracer), profile.to_dict()

    def round(self, index: int) -> dict:
        tally = Tally()
        trace_path = self.scratch / "trace.json"
        t0, c0 = time.perf_counter(), time.process_time()
        fast, plain = [], None
        for _ in range(self.FAST_REPEATS):
            res, s = tally.run(
                "fast", lambda: self.driver.simulate_run(self.cfg, scenario=self.scenario))
            fast.append(s)
            plain = res or plain
        out, slow_s = tally.run("slow", lambda: self._observed_chain(trace_path))
        sim, counters = {}, {}
        if plain is not None:
            sim["plain"] = _sim_stats(plain)
        if out is not None:
            res, simulate_s, spans, profile = out
            sim["observed"] = _sim_stats(res)
            findings = sorted(
                (f["kind"], tuple(f.get("ranks", ()))) for f in res.health.findings
            )
            sim["findings"] = [[k, list(r)] for k, r in findings]
            tally.check(bool(findings), "slow", "health report has no findings")
            tally.check(profile.get("schema") == PROFILE_SCHEMA, "slow",
                        f"profile schema is {profile.get('schema')!r}")
            tally.check(plain is not None and res.elapsed == plain.elapsed, "slow",
                        "instrumented run's simulated elapsed differs from the plain run's")
            counters = {
                "simulate.events": res.engine_events * (self.FAST_REPEATS + 1),
                "comm.messages": sim["observed"]["messages"] * (self.FAST_REPEATS + 1),
                "comm.bytes": sim["observed"]["bytes"] * (self.FAST_REPEATS + 1),
                "obs.spans": spans,
                "obs.trace_bytes": trace_path.stat().st_size,
                "obs.tracing_overhead_frac":
                    simulate_s / statistics.median(fast) - 1.0,
            }
        expected = self.reference.setdefault("sim", sim)
        if self.inject_failure:
            expected = dict(expected, findings=[])
        tally.check(sim == expected, "round", "simulated statistics or findings changed")
        result = self._finish(tally, t0, c0, statistics.median(fast), slow_s, sim, counters)
        trace_path.unlink(missing_ok=True)
        return result


class ExactSolve(Workload):
    """Real numerics on a 2x2 grid: cold LCG, warm LCG, FP64 HPL.

    Why: ``lcg``, ``blas``, ``precision`` and the ``core`` panel loops
    do the work and the engine almost none, so this is the bypass
    workload for DES changes; cold vs warm separates generator cost
    from cache-hit cost.
    """

    name = "exact_solve"
    work_unit = "GFLOP"

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        lcg_seed = self.rng("lcg").randrange(1, 2 ** 31)
        self.inputs = {
            "hplai": _config_doc("summit", 2, 1024, 128, "bcast", seed=lcg_seed),
            "hpl": _config_doc("summit", 2, 512, 64, "bcast", seed=lcg_seed),
        }
        self.work_per_round = (
            2 * hpl_ai_gflop(self.inputs["hplai"]["n"]) + hpl_ai_gflop(self.inputs["hpl"]["n"])
        )
        #: digest -> (n, seed, x) of every distinct solution a round produced
        self.solutions: dict = {}

    def setup(self) -> None:
        import repro.core.driver as driver
        import repro.core.hpl_dist as hpl_dist
        from repro.core.verify import verify_solution
        from repro.lcg.cache import clear_tile_cache, tile_cache

        self.driver, self.hpl_dist = driver, hpl_dist
        self.verify_solution = verify_solution
        self.clear_tile_cache, self.tile_cache = clear_tile_cache, tile_cache
        self.cfg = _make_config(self.inputs["hplai"])
        self.cfg_hpl = _make_config(self.inputs["hpl"])

    def _remember(self, cfg, x) -> str:
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        self.solutions.setdefault(digest, (cfg.n, cfg.seed, x))
        return digest

    def round(self, index: int) -> dict:
        tally = Tally()
        t0, c0 = time.perf_counter(), time.process_time()
        self.clear_tile_cache()
        cold, cold_s = tally.run("slow", lambda: self.driver.run_benchmark(self.cfg, exact=True))
        warm, warm_s = tally.run("fast", lambda: self.driver.run_benchmark(self.cfg, exact=True))
        cache = self.tile_cache().stats()
        hpl, _ = tally.run("hpl", lambda: self.hpl_dist.solve_hpl_distributed(self.cfg_hpl))
        sim, events, messages, nbytes = {}, 0, 0, 0
        for op, res in (("slow", cold), ("fast", warm)):
            if res is None:
                continue
            events += res.engine_events
            messages += sum(st.messages_sent for st in res.stats)
            nbytes += sum(st.bytes_sent for st in res.stats)
            tally.check(res.ir_converged, op, "iterative refinement did not converge")
            sim[op] = {"elapsed": res.elapsed, "ir_iterations": res.ir_iterations,
                       "residual_norm": res.residual_norm, "x": self._remember(self.cfg, res.x)}
        if cold is not None and warm is not None:
            same = cold.x.tobytes() == warm.x.tobytes() and not self.inject_failure
            tally.check(same, "fast", "cold and warm solutions are not bitwise equal")
        if hpl is not None:
            sim["hpl"] = {"elapsed": hpl["elapsed"], "residual_norm": hpl["residual_norm"],
                          "x": self._remember(self.cfg_hpl, hpl["x"])}
        lookups = cache["hits"] + cache["misses"]
        counters = {
            "simulate.events": events,
            "comm.messages": messages,
            "comm.bytes": nbytes,
            "lcg.tile_cache.misses": cache["misses"],
            "lcg.tile_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        }
        return self._finish(tally, t0, c0, warm_s, cold_s, sim, counters)

    def close(self, tally: Tally, verified: dict) -> None:
        """The acceptance test (scaled residual < 16) on every distinct
        solution the rounds produced, outside the timed region.  A
        solution bitwise equal to one an earlier launch of this run
        verified is not verified again."""
        for digest, (n, seed, x) in self.solutions.items():
            if digest not in verified:
                report, _ = tally.run(
                    "verify", lambda: self.verify_solution(x, n=n, seed=seed))
                verified[digest] = bool(report is not None and report.passed)
            tally.check(verified[digest], "verify",
                        f"solution {digest[:12]} fails the HPL acceptance test")


def _serve(store_path: str, cache_dir: str, trace: bool, conn) -> None:
    """Server process: ``make_server(...).serve_forever()`` until told to stop."""
    from repro.campaign.serve import make_server

    recorder = layers.install() if trace else None
    server = make_server(store_path, cache_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn.send(server.server_address[1])
    try:
        conn.recv()
    except EOFError:
        pass
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    conn.send({
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans if recorder else [],
    })


class CampaignServe(Workload):
    """The control plane over the analytic model, closed loop.

    Why: ``model``, ``tools``, ``scenario``, ``machine`` (cold jobs),
    ``campaign`` cache/store/queue and ``util.atomicio`` (every put and
    checkpoint rewrites a whole file) and ``serve`` carry it and no
    engine code runs; batch writes sit beside serve reads on one cache,
    so a gain for one that costs the other shows.
    """

    name = "campaign_serve"
    work_unit = "ops"
    SETUP_GRIDS = (2, 3, 4, 6, 8, 12, 16, 24)
    COLD_GRIDS = (4, 8, 16, 32)
    HIT_SWEEPS = 3
    REQUESTS = 300
    CLIENTS = 2
    #: request mix, in shares of REQUESTS
    MIX = (("run_hit", 0.80), ("run_miss", 0.05), ("results", 0.08),
           ("tune", 0.05), ("metrics", 0.02))

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        rng = self.rng("inputs")
        straggler = {
            "schema": SCENARIO_SCHEMA,
            "name": "perf-straggler-fleet",
            "injections": [
                {"kind": "slow_gcds", "seed": rng.randrange(1, 2 ** 31), "sigma": 0.006,
                 "slow_fraction": 0.02, "slow_penalty": 0.05},
                {"kind": "warmup", "style": "frontier", "run_index": 0},
            ],
        }
        self.job_seed = rng.randrange(1, 2 ** 20)
        schedule = [kind for kind, share in self.MIX
                    for _ in range(round(share * self.REQUESTS))]
        rng.shuffle(schedule)
        self.inputs = {
            "setup_sweep": {"machine": "frontier", "grids": list(self.SETUP_GRIDS),
                            "bcasts": list(BCASTS), "scenarios": [None, straggler],
                            "seed": self.job_seed},
            "cold_sweep": {"machine": "summit", "grids": list(self.COLD_GRIDS),
                           "bcasts": ["bcast", "ring2m"], "scenarios": [None, straggler]},
            # (kind, pick): pick selects the cached job / stored key / tune body
            "schedule": [[kind, rng.randrange(2 ** 16)] for kind in schedule],
            "tune_blocks": [1024, 2048, 3072],
        }
        self.work_per_round = float(
            len(self.COLD_GRIDS) * 2 * 2 + self.HIT_SWEEPS * len(self.SETUP_GRIDS) * 10
            + self.REQUESTS
        )
        self.server = None

    def _engine(self, root: Path):
        store = self.campaign.ResultStore(root / "store.jsonl")
        engine = self.campaign.CampaignEngine(
            store, self.cache, workers=1, log=lambda _msg: None)
        return engine, store, self.campaign.JobQueue(root / "queue.json")

    def setup(self) -> None:
        import repro.campaign as campaign

        self.campaign = campaign
        self.cache = campaign.RunCache(self.scratch / "cache")
        self.setup_jobs = campaign.SweepSpec(**self.inputs["setup_sweep"]).expand()
        self.setup_keys = [job.key() for job in self.setup_jobs]
        engine, store, queue = self._engine(self.scratch / "setup")
        outcome = engine.run_sweep(self.setup_jobs, queue)
        if outcome.computed != len(self.setup_jobs) or outcome.failed:
            raise RuntimeError(f"set-up sweep did not compute every job: {outcome.to_dict()}")
        self.snapshot = store.snapshot()
        serve_store = self.scratch / "serve" / "store.jsonl"
        serve_store.parent.mkdir()
        shutil.copy(store.path, serve_store)
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.server = ctx.Process(
            target=_serve,
            args=(str(serve_store), str(self.cache.root), self.trace, child_conn),
        )
        self.server.start()
        child_conn.close()
        if not self.conn.poll(60):
            raise RuntimeError("serve process did not report its port")
        self.port = self.conn.recv()

    # -- the three phases of a round -------------------------------------

    def _cold_sweep(self, index: int, tally: Tally) -> float:
        spec = dict(self.inputs["cold_sweep"], seed=self.job_seed + 1 + index)
        jobs = self.campaign.SweepSpec(**spec).expand()
        engine, _store, queue = self._engine(self.scratch / f"round{index}" / "cold")
        outcome, seconds = tally.run(
            "cold_sweep", lambda: engine.run_sweep(jobs, queue), count=len(jobs))
        if outcome is not None:
            expected = len(jobs) + (1 if self.inject_failure else 0)
            tally.check(outcome.computed == expected, "cold_sweep",
                        f"{outcome.computed} computed / {outcome.failed} failed, expected "
                        f"{expected} computed", count=max(outcome.failed, 1))
        return seconds

    def _hit_sweeps(self, index: int, tally: Tally) -> float:
        total = 0.0
        for i in range(self.HIT_SWEEPS):
            engine, store, queue = self._engine(self.scratch / f"round{index}" / f"hit{i}")
            outcome, seconds = tally.run(
                "hit_sweep", lambda: engine.run_sweep(self.setup_jobs, queue),
                count=len(self.setup_jobs))
            total += seconds
            if outcome is not None:
                bad = len(self.setup_jobs) - outcome.cached
                tally.check(bad == 0 and outcome.computed == 0, "hit_sweep",
                            f"{outcome.cached} cached / {outcome.computed} computed",
                            count=max(bad, 1))
                tally.check(store.snapshot() == self.snapshot, "hit_sweep",
                            "store snapshot differs from the set-up store's")
        return total

    def _request(self, index: int, i: int, kind: str, pick: int):
        """One scheduled request -> (latency_s, error or None)."""
        method, body, expect = "GET", None, {}
        if kind == "run_hit":
            job = self.setup_jobs[pick % len(self.setup_jobs)]
            method, path, body = "POST", "/run", job.to_dict()
            expect = {"source": "cache", "key": job.key()}
        elif kind == "run_miss":
            job = self.campaign.Job(
                machine="summit", nl=61440, block=768, grid=(2, 4, 8)[pick % 3],
                bcast="bcast", seed=self.job_seed + 100_000 + index * self.REQUESTS + i)
            method, path, body = "POST", "/run", job.to_dict()
            expect = {"source": "computed", "key": job.key()}
        elif kind == "results":
            key = self.setup_keys[pick % len(self.setup_keys)]
            path, expect = f"/results/{key}", {"key": key}
        elif kind == "tune":
            method, path = "POST", "/tune"
            body = {"machine": "frontier", "nl": 119808, "grid": (2, 4, 8)[pick % 3],
                    "blocks": self.inputs["tune_blocks"]}
        else:
            path = "/metrics"
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        with layers.span(f"campaign.serve.{kind}"):
            t0 = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            finally:
                conn.close()
            latency = time.perf_counter() - t0
        if resp.status != 200:
            return latency, f"{kind} {path}: status {resp.status}"
        if kind == "metrics":
            ok = b"serve_requests" in raw
            return latency, None if ok else "metrics: no serve_requests series"
        doc = json.loads(raw)
        if kind == "tune":
            return latency, None if doc.get("rows") else "tune: no rows"
        if "source" in expect and resp.getheader("X-Repro-Source") != expect["source"]:
            return latency, (f"{kind}: X-Repro-Source {resp.getheader('X-Repro-Source')!r},"
                             f" scheduled {expect['source']!r}")
        key = doc["result"]["key"] if kind.startswith("run") else doc.get("key")
        if key != expect["key"]:
            return latency, f"{kind}: returned key {key!r} != Job.key {expect['key']!r}"
        return latency, None

    def _serve_phase(self, index: int, tally: Tally) -> dict:
        schedule = self.inputs["schedule"]
        latencies: dict = {kind: [] for kind, _ in self.MIX}
        errors: list = []
        lock = threading.Lock()

        def client(start: int) -> None:
            for i in range(start, len(schedule), self.CLIENTS):
                kind, pick = schedule[i]
                try:
                    latency, error = self._request(index, i, kind, pick)
                except Exception as exc:  # client boundary: a refused or broken request is a failed op
                    latency, error = None, f"{kind}: {type(exc).__name__}: {exc}"
                with lock:
                    if latency is not None:
                        latencies[kind].append(latency)
                    if error:
                        errors.append(error)

        with layers.span("campaign.serve.phase") as phase:
            threads = [
                threading.Thread(target=layers.child_of(phase, client), args=(c,))
                for c in range(self.CLIENTS)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
        tally.attempted += len(schedule)
        for error in errors:
            tally.fail("request", error)
        return {"wall_s": wall, "latencies": latencies, "errors": len(errors)}

    def round(self, index: int) -> dict:
        tally = Tally()
        t0, c0 = time.perf_counter(), time.process_time()
        cold_s = self._cold_sweep(index, tally)
        hit_s = self._hit_sweeps(index, tally)
        serve = self._serve_phase(index, tally)
        lat = serve["latencies"]
        if not lat["run_hit"]:
            lat["run_hit"] = [float("nan")]
            tally.fail("request", "no cached /run request completed")
        n_cold = len(self.COLD_GRIDS) * 4

        def p50_ms(kind: str) -> float:
            return statistics.median(lat[kind]) * 1e3 if lat[kind] else 0.0

        hits = sorted(lat["run_hit"])
        cache = self.cache.stats()
        counters = {
            "campaign.sweep_cold.jobs_per_s": n_cold / cold_s,
            "campaign.sweep_hit.jobs_per_s":
                self.HIT_SWEEPS * len(self.setup_jobs) / hit_s,
            "campaign.cache_hit_ratio":
                cache["hits"] / max(cache["hits"] + cache["misses"], 1),
            "campaign.serve.req_per_s": self.REQUESTS / serve["wall_s"],
            "campaign.serve.run_hit_ms_p50": p50_ms("run_hit"),
            "campaign.serve.run_hit_ms_p99": hits[min(len(hits) - 1, int(0.99 * len(hits)))] * 1e3,
            "campaign.serve.run_miss_ms_p50": p50_ms("run_miss"),
            "campaign.serve.results_ms_p50": p50_ms("results"),
            "campaign.serve.tune_ms_p50": p50_ms("tune"),
            "campaign.serve.errors": serve["errors"],
        }
        # The hit path's outputs are the same every round; cold jobs carry
        # the round's own seed, so their rows are checked by count only.
        sim = {"setup_store": sha256(self.snapshot), "requests": self.REQUESTS}
        out = self._finish(tally, t0, c0, statistics.median(lat["run_hit"]),
                           cold_s / n_cold, sim, counters)
        shutil.rmtree(self.scratch / f"round{index}", ignore_errors=True)
        return out

    def close(self, tally: Tally, verified: dict) -> None:
        if self.server is None:
            return
        try:
            self.conn.send("stop")
            if self.conn.poll(30):
                self.server_report = self.conn.recv()
            self.server.join(timeout=30)
        finally:
            if self.server.is_alive():
                self.server.terminate()
                self.server.join(timeout=10)
            if self.server.is_alive():
                self.server.kill()
                self.server.join()
            self.conn.close()
        tally.check(bool(self.server_report), "serve", "serve process did not stop cleanly")


WORKLOADS = {w.name: w for w in (DesPhantom, DesObserved, ExactSolve, CampaignServe)}
