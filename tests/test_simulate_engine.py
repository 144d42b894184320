"""Tests for the discrete-event SPMD engine."""

import hashlib
import json
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.machine import FRONTIER, SUMMIT, CommCosts
from repro.simulate import (
    Allreduce,
    Barrier,
    Compute,
    Engine,
    Irecv,
    Isend,
    Now,
    PhantomArray,
    RankStats,
    Recv,
    Reduce,
    Send,
    Wait,
    nbytes_of,
)


def _engine(n, machine=SUMMIT, node_of=None, **kw):
    return Engine(n, CommCosts(machine), node_of_rank=node_of, **kw)


class TestPhantom:
    def test_nbytes(self):
        p = PhantomArray((100, 50), np.float16)
        assert p.nbytes == 100 * 50 * 2
        assert p.T.shape == (50, 100)
        assert p.astype(np.float32).nbytes == 2 * p.nbytes

    def test_reshape(self):
        p = PhantomArray((6, 4), np.float32)
        assert p.reshape(24).shape == (24,)
        with pytest.raises(Exception):
            p.reshape(5, 5)

    def test_no_data_access(self):
        with pytest.raises(Exception):
            np.asarray(PhantomArray((2,), np.float64))

    def test_nbytes_of_payloads(self):
        assert nbytes_of(None) == 0
        assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
        assert nbytes_of(PhantomArray((10,), np.float16)) == 20
        assert nbytes_of(3.14) == 8
        assert nbytes_of((1, np.zeros(4))) > 32


class TestBasicOps:
    def test_compute_advances_clock(self):
        def prog(rank):
            yield Compute("gemm", 2.0)
            yield Compute("trsm", 1.0)
            return "done"

        res = _engine(1).run(prog)
        assert res.elapsed == pytest.approx(3.0)
        assert res.returns == ["done"]
        assert res.stats[0].times["gemm"] == pytest.approx(2.0)

    def test_send_recv_moves_real_data(self):
        def prog(rank):
            if rank == 0:
                data = np.arange(5, dtype=np.float64)
                yield Send(1, data, tag=7)
                return None
            got = yield Recv(0, tag=7)
            return got

        res = _engine(2).run(prog)
        np.testing.assert_array_equal(res.returns[1], np.arange(5.0))

    def test_send_copies_buffer(self):
        # Mutating after a nonblocking send must not affect the receiver.
        def prog(rank):
            if rank == 0:
                data = np.ones(4)
                h = yield Isend(1, data, tag=1)
                data[:] = -1
                yield Wait(h)
                return None
            return (yield Recv(0, tag=1))

        res = _engine(2).run(prog)
        np.testing.assert_array_equal(res.returns[1], np.ones(4))

    def test_message_order_fifo(self):
        def prog(rank):
            if rank == 0:
                for i in range(5):
                    yield Send(1, i, tag=3)
                return None
            got = []
            for _ in range(5):
                got.append((yield Recv(0, tag=3)))
            return got

        assert _engine(2).run(prog).returns[1] == [0, 1, 2, 3, 4]

    def test_recv_waits_for_arrival(self):
        # 100 MB across nodes at 25 GB/s (summit, bound) ~ 4 ms.
        payload = PhantomArray((100 * 2**20,), np.uint8)

        def prog(rank):
            if rank == 0:
                yield Send(1, payload, tag=0)
                return None
            yield Recv(0, tag=0)
            return (yield Now())

        res = _engine(2, node_of=lambda r: r).run(prog)
        expected = payload.nbytes / CommCosts(SUMMIT).node_nic_bw
        assert res.returns[1] == pytest.approx(expected, rel=0.05)
        assert res.stats[1].times["wait_recv"] > 0

    def test_intra_node_faster_than_inter(self):
        payload = PhantomArray((2**24,), np.uint8)

        def prog(rank):
            if rank == 0:
                yield Send(1, payload, tag=0)
                return None
            yield Recv(0, tag=0)
            return (yield Now())

        t_intra = _engine(2, node_of=lambda r: 0).run(prog).returns[1]
        t_inter = _engine(2, node_of=lambda r: r).run(prog).returns[1]
        assert t_intra < t_inter

    def test_irecv_wait(self):
        def prog(rank):
            if rank == 0:
                yield Compute("x", 1.0)
                yield Send(1, 42, tag=9)
                return None
            h = yield Irecv(0, tag=9)
            yield Compute("y", 0.1)
            return (yield Wait(h))

        assert _engine(2).run(prog).returns[1] == 42

    def test_now(self):
        def prog(rank):
            t0 = yield Now()
            yield Compute("k", 1.5)
            t1 = yield Now()
            return t1 - t0

        assert _engine(1).run(prog).returns[0] == pytest.approx(1.5)


class TestContention:
    def test_nic_sharing_serializes(self):
        # Two ranks on node 0 each send 50 MB to distinct ranks on node 1:
        # the shared egress NIC must roughly double the finish time
        # relative to a single send (eq. 5's mechanism).
        payload = PhantomArray((50 * 2**20,), np.uint8)

        def node_of(r):
            return 0 if r < 2 else 1

        def prog_two(rank):
            if rank < 2:
                yield Send(rank + 2, payload, tag=0)
                return None
            yield Recv(rank - 2, tag=0)
            return (yield Now())

        res = Engine(4, CommCosts(SUMMIT), node_of_rank=node_of).run(prog_two)
        t_two = max(res.returns[2], res.returns[3])

        def prog_one(rank):
            if rank == 0:
                yield Send(2, payload, tag=0)
            elif rank == 2:
                yield Recv(0, tag=0)
                return (yield Now())
            return None

        res1 = Engine(4, CommCosts(SUMMIT), node_of_rank=node_of).run(prog_one)
        t_one = res1.returns[2]
        assert t_two > 1.8 * t_one

    def test_isend_overlaps_compute(self):
        # Nonblocking send lets compute proceed while the wire is busy.
        payload = PhantomArray((100 * 2**20,), np.uint8)
        xfer = payload.nbytes / CommCosts(SUMMIT).node_nic_bw

        def prog(rank):
            if rank == 0:
                h = yield Isend(1, payload, tag=0)
                yield Compute("gemm", xfer)  # overlaps the transfer
                yield Wait(h)
                return (yield Now())
            yield Recv(0, tag=0)
            return None

        res = _engine(2, node_of=lambda r: r).run(prog)
        # Total ~ xfer (overlapped), not 2*xfer (serialized).
        assert res.returns[0] < 1.5 * xfer

    def test_speed_factor_scales_transfer(self):
        payload = PhantomArray((2**26,), np.uint8)

        def make(speed):
            def prog(rank):
                if rank == 0:
                    yield Send(1, payload, tag=0, speed=speed)
                    return None
                yield Recv(0, tag=0)
                return (yield Now())
            return prog

        slow = _engine(2, node_of=lambda r: r).run(make(0.5)).returns[1]
        fast = _engine(2, node_of=lambda r: r).run(make(2.0)).returns[1]
        assert slow > 3.0 * fast


class TestCollectives:
    def test_barrier_aligns_clocks(self):
        def prog(rank):
            yield Compute("w", float(rank))
            yield Barrier((0, 1, 2))
            return (yield Now())

        res = _engine(3).run(prog)
        assert res.returns[0] == res.returns[1] == res.returns[2]
        assert res.returns[0] >= 2.0

    def test_allreduce_sums_arrays(self):
        def prog(rank):
            vec = np.full(4, float(rank + 1))
            return (yield Allreduce((0, 1, 2), vec))

        res = _engine(3).run(prog)
        for r in range(3):
            np.testing.assert_array_equal(res.returns[r], np.full(4, 6.0))

    def test_allreduce_phantom_stays_phantom(self):
        def prog(rank):
            return (yield Allreduce((0, 1), PhantomArray((8,), np.float64)))

        res = _engine(2).run(prog)
        assert isinstance(res.returns[0], PhantomArray)

    def test_reduce_to_root(self):
        def prog(rank):
            return (yield Reduce((0, 1, 2, 3), 2, float(rank)))

        res = _engine(4).run(prog)
        assert res.returns[2] == pytest.approx(6.0)
        assert res.returns[0] is None

    def test_successive_collectives_dont_mix(self):
        def prog(rank):
            a = yield Allreduce((0, 1), 1.0)
            b = yield Allreduce((0, 1), 10.0)
            return (a, b)

        res = _engine(2).run(prog)
        assert res.returns[0] == (2.0, 20.0)


class TestFaults:
    def test_deadlock_detected(self):
        def prog(rank):
            yield Recv(1 - rank, tag=0)  # both wait, nobody sends

        with pytest.raises(DeadlockError):
            _engine(2).run(prog)

    def test_invalid_destination(self):
        def prog(rank):
            yield Send(5, 1, tag=0)

        with pytest.raises(SimulationError):
            _engine(2).run(prog)

    def test_negative_compute_rejected(self):
        def prog(rank):
            yield Compute("x", -1.0)

        with pytest.raises(SimulationError):
            _engine(1).run(prog)

    def test_unknown_op_rejected(self):
        def prog(rank):
            yield "not an op"

        with pytest.raises(SimulationError):
            _engine(1).run(prog)

    def test_max_events_guard(self):
        def prog(rank):
            while True:
                yield Compute("spin", 0.001)

        with pytest.raises(SimulationError):
            _engine(1, max_events=100).run(prog)

    def test_bad_rate_multipliers(self):
        with pytest.raises(SimulationError):
            Engine(2, CommCosts(SUMMIT), rate_multipliers=[1.0])
        with pytest.raises(SimulationError):
            Engine(2, CommCosts(SUMMIT), rate_multipliers=[1.0, 0.0])


class TestVariability:
    def test_slow_gcd_takes_longer(self):
        def prog(rank):
            yield Compute("gemm", 1.0)
            return (yield Now())

        res = Engine(
            2, CommCosts(FRONTIER), rate_multipliers=[1.0, 0.5]
        ).run(prog)
        assert res.returns[0] == pytest.approx(1.0)
        assert res.returns[1] == pytest.approx(2.0)

    def test_stats_totals(self):
        def prog(rank):
            if rank == 0:
                yield Compute("gemm", 1.0)
                yield Send(1, np.zeros(1000), tag=0)
                return None
            yield Recv(0, tag=0)
            return None

        res = _engine(2).run(prog)
        assert res.stats[0].bytes_sent == 8000
        assert res.stats[0].messages_sent == 1
        assert res.stats[0].total_compute >= 1.0
        assert res.stats[1].total_wait > 0


class TestMailboxHygiene:
    def test_clean_program_drains_mailboxes(self):
        def prog(rank):
            if rank == 0:
                yield Send(1, 1.0, tag=0)
                return None
            return (yield Recv(0, tag=0))

        res = _engine(2).run(prog)
        assert res.undelivered == 0

    def test_leaked_message_reported(self):
        def prog(rank):
            if rank == 0:
                yield Send(1, 1.0, tag=0)
                yield Send(1, 2.0, tag=0)  # never received
            else:
                yield Recv(0, tag=0)
            return None

        res = _engine(2).run(prog)
        assert res.undelivered == 1

    def test_full_benchmark_drains_mailboxes(self):
        from repro.core.config import BenchmarkConfig
        from repro.core.driver import run_benchmark
        from repro.machine import FRONTIER as _F

        cfg = BenchmarkConfig(n=3072 * 4, block=3072, machine=_F,
                              p_rows=2, p_cols=2)
        res = run_benchmark(cfg, exact=False)
        # The engine's undelivered count is surfaced via engine_events
        # bookkeeping; re-run at engine level for the assertion.
        from repro.core.executors import PhantomExecutor
        from repro.core.hplai import hplai_rank_program
        from repro.machine.topology import CommCosts as _CC

        eng = Engine(4, _CC(_F), node_of_rank=cfg.node_grid.node_of_rank,
                     mpi=_F.mpi)

        def factory(rank):
            pir, pic = cfg.grid.coords_of(rank)
            return hplai_rank_program(
                cfg, PhantomExecutor(cfg, pir, pic, rank), rank, None
            )

        out = eng.run(factory)
        assert out.undelivered == 0

    def test_drained_channels_are_dropped(self):
        # Wire tags are per step, so nearly every channel carries one
        # message: the mailbox must not keep an entry per channel used.
        def prog(rank):
            for tag in range(1000):
                if rank == 0:
                    yield Send(1, tag, tag=tag)
                else:
                    yield Recv(0, tag=tag)
            return None

        eng = _engine(2)
        assert eng.run(prog).undelivered == 0
        assert len(eng._mailbox) == 0

    def test_phantom_run_memory_follows_what_is_in_flight(self):
        import tracemalloc

        from repro.core.config import BenchmarkConfig
        from repro.core.driver import simulate_run

        cfg = BenchmarkConfig(n=8192 * 4, block=1024, machine=SUMMIT,
                              p_rows=4, p_cols=4, bcast_algorithm="ring2m")
        simulate_run(cfg)  # warm-up: first-call imports and memo tables
        tracemalloc.start()
        try:
            simulate_run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~0.2 MiB when the engine holds only undelivered messages and
        # one all-ranks tuple; ~1.4 MiB when drained channels and a
        # per-rank member tuple stay alive for the whole run
        assert peak < 0.6 * 2**20

    def test_collective_counters_are_sized_by_their_members(self):
        # Row and column collectives must not keep a world-sized post
        # counter each, and a rank a collective resumed holds no stale
        # pending-collective key.
        from repro.core.config import BenchmarkConfig
        from repro.core.driver import make_engine, rank_factory
        from repro.core.executors import PhantomExecutor
        from repro.obs import context as obs_context

        cfg = BenchmarkConfig(n=1024 * 6, block=256, machine=SUMMIT,
                              p_rows=6, p_cols=6)
        eng = make_engine(cfg, obs_context.current())
        eng.run(rank_factory(cfg, PhantomExecutor))
        sizes = {len(members): len(seqs)
                 for (members, _key), seqs in eng._coll_seq.items()}
        assert min(sizes) == 6  # row/column collectives took part
        assert all(n == size for size, n in sizes.items())
        assert [st.block_key for st in eng._ranks
                if isinstance(st.block_key, tuple) and len(st.block_key) == 4] == []

    def test_other_channel_does_not_wake_blocked_recv(self):
        def prog(rank):
            if rank == 0:
                yield Compute("x", 0.5)  # rank 1 blocks on tag 0 first
                yield Send(1, "other", tag=1)
                yield Compute("x", 1.0)
                yield Send(1, "wanted", tag=0)
                return None
            got = yield Recv(0, tag=0)
            woke = yield Now()
            return got, woke, (yield Recv(0, tag=1))

        eng = _engine(2)
        res = eng.run(prog)
        got, woke, other = res.returns[1]
        assert (got, other) == ("wanted", "other")
        assert woke > 1.5
        assert res.undelivered == 0 and len(eng._mailbox) == 0

    def test_wait_on_irecv_is_woken_by_its_message(self):
        def prog(rank):
            if rank == 0:
                yield Compute("x", 1.0)
                yield Send(1, 42, tag=9)
                return None
            h = yield Irecv(0, tag=9)
            value = yield Wait(h)  # blocks: nothing sent before t = 1
            return value, (yield Now())

        res = _engine(2).run(prog)
        value, woke = res.returns[1]
        assert value == 42 and woke > 1.0
        assert res.stats[1].times["wait_recv"] > 0

    def test_queued_messages_arrive_fifo_and_channel_is_dropped(self):
        def prog(rank):
            if rank == 0:
                yield Send(1, "first", tag=4)
                yield Send(1, "second", tag=4)
                return None
            yield Compute("late", 1.0)  # both messages queue first
            return [(yield Recv(0, tag=4)), (yield Recv(0, tag=4))]

        eng = _engine(2)
        res = eng.run(prog)
        assert res.returns[1] == ["first", "second"]
        assert res.stats[1].times.get("wait_recv", 0.0) == 0.0
        assert res.undelivered == 0 and len(eng._mailbox) == 0


class TestCollectiveValidation:
    def test_shape_mismatch_rejected(self):
        def prog(rank):
            vec = np.ones(4 if rank == 0 else 5)
            return (yield Allreduce((0, 1), vec))

        with pytest.raises(SimulationError):
            _engine(2).run(prog)

    def test_matching_shapes_fine(self):
        def prog(rank):
            return (yield Allreduce((0, 1), np.ones(4)))

        res = _engine(2).run(prog)
        np.testing.assert_array_equal(res.returns[0], 2 * np.ones(4))


#: one ledger operation: add ``seconds`` under a kind, or read a kind
_ledger_ops = st.lists(
    st.tuples(
        st.sampled_from(["gemm", "trsm", "wait_recv", "wait_send", "wait_outage",
                         "comm_post", "wait_", "waiting"]),
        st.none() | st.floats(-1.0, 1e3, allow_nan=False) | st.just(0.0) | st.just(-0.0)
        | st.sampled_from([1e-300, 5e-324, 0.1, 0.2, 0.3]),
    ),
    max_size=60,
)


class TestRankStatsLedger:
    @given(_ledger_ops)
    @settings(max_examples=200, deadline=None)
    def test_totals_are_the_filtered_insertion_order_sums(self, ops):
        """The totals equal, bit for bit, the per-kind sums filtered in
        insertion order, with reads of absent kinds (``seconds`` None)
        inserting a zero as a ``defaultdict(float)`` does."""
        stats, reference = RankStats(), defaultdict(float)
        for kind, seconds in ops:
            if seconds is None:
                assert stats.times[kind] == reference[kind]
            else:
                stats.add(kind, seconds)
                if seconds > 0:
                    reference[kind] += seconds
        assert list(stats.times.items()) == list(reference.items())
        compute = sum(v for k, v in reference.items() if not k.startswith("wait_"))
        wait = sum(v for k, v in reference.items() if k.startswith("wait_"))
        assert float(stats.total_compute).hex() == float(compute).hex()
        assert float(stats.total_wait).hex() == float(wait).hex()

    def test_monitored_run_health_document_is_unchanged(self):
        """The health tick reads the totals: the scenario case of the
        trace golden gives the same ``repro.obs.health/v1`` document as
        the per-tick re-summing ledger did (sha256 of its canonical JSON)."""
        from repro.core.config import BenchmarkConfig
        from repro.core.driver import simulate_run
        from repro.lcg.cache import clear_tile_cache
        from repro.obs import Observability
        from repro.obs.health import HealthMonitor
        from repro.scenario import Scenario
        from tests.test_trace_golden import CASES, SCENARIO

        spec = CASES["scenario-4x4-ring2m"]
        cfg = BenchmarkConfig(
            n=spec["n"], block=spec["block"], machine=SUMMIT, p_rows=spec["p"],
            p_cols=spec["p"], bcast_algorithm=spec["bcast"], seed=2022,
        )
        clear_tile_cache()  # the cache_hit_ratio series reads the process's cache
        res = simulate_run(cfg, scenario=Scenario.from_dict(SCENARIO),
                           obs=Observability(health=HealthMonitor()))
        doc = json.dumps(res.health.to_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "d63fed66e20eb67a44b7563e9bcd8cde61e6e91ce53fd7a755cbc5b28f68768c")
