"""Tests for the run watchdog and StallError diagnosis."""

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.errors import ConfigurationError, DeadlockError, StallError
from repro.machine import get_machine
from repro.machine.topology import CommCosts
from repro.obs import Observability
from repro.obs.health import HealthMonitor, RunWatchdog
from repro.simulate.engine import Engine
from repro.simulate.events import Barrier, Recv


def _cfg(**kwargs):
    defaults = dict(
        n=512, block=64, machine=get_machine("frontier"), p_rows=2, p_cols=2
    )
    defaults.update(kwargs)
    return BenchmarkConfig(**defaults)


def _engine(num_ranks=2):
    return Engine(num_ranks, CommCosts(get_machine("frontier")))


class TestRunWatchdog:
    def test_margin_validation(self):
        with pytest.raises(ConfigurationError):
            RunWatchdog(margin=0)
        with pytest.raises(ConfigurationError):
            RunWatchdog(margin=-2.0)

    def test_bind_arms_modelled_deadlines(self):
        wd = RunWatchdog(margin=10.0)
        wd.bind(_cfg())
        assert set(wd.deadlines) == {"factorization", "total"}
        assert 0 < wd.deadlines["factorization"] < wd.deadlines["total"]

    def test_disabled_watchdog_never_checks(self):
        wd = RunWatchdog(enabled=False)
        wd.bind(_cfg())
        assert wd.deadlines == {}
        wd.check(_engine(), t=1e9)  # no deadline, no trip

    def test_to_dict(self):
        wd = RunWatchdog(margin=5.0)
        d = wd.to_dict()
        assert d["margin"] == 5.0
        assert d["tripped"] is False
        assert d["deadlines_s"] == {}


class TestStallErrorFromWatchdog:
    def test_tiny_margin_trips_and_names_blocked_collective(self):
        cfg = _cfg()
        obs = Observability(
            health=HealthMonitor(watchdog=RunWatchdog(margin=1e-3))
        )
        with pytest.raises(StallError) as ei:
            simulate_run(cfg, obs=obs)
        err = ei.value
        assert "watchdog" in str(err)
        assert "deadline" in str(err)
        assert err.elapsed is not None
        # StallError stays catchable as the engine's DeadlockError
        assert isinstance(err, DeadlockError)

    def test_healthy_margin_never_trips(self):
        cfg = _cfg()
        monitor = HealthMonitor(watchdog=RunWatchdog(margin=25.0))
        obs = Observability(health=monitor)
        res = simulate_run(cfg, obs=obs)
        assert res.health.watchdog["tripped"] is False
        assert res.health.watchdog["deadlines_s"]


class TestStallErrorFromEngine:
    def test_mutual_recv_deadlock_is_diagnosed(self):
        eng = _engine(2)

        def prog(r):
            yield Recv(1 - r, 40)
            return None

        with pytest.raises(StallError) as ei:
            eng.run(prog)
        err = ei.value
        assert len(err.blocked) == 2
        by_rank = {b["rank"]: b for b in err.blocked}
        assert by_rank[0]["state"] == "recv"
        assert by_rank[0]["src"] == 1
        assert by_rank[0]["tag"] == 40
        # wire tag 40 decodes to a named phase and step
        assert isinstance(by_rank[0]["phase"], str)
        assert by_rank[0]["step"] == 0
        # each rank waits on the other: the engine names the cycle
        assert err.cycle == [0, 1]
        assert "wait-for cycle: rank 0 -> rank 1 -> rank 0" in str(err)

    def test_partial_collective_names_members_and_arrivals(self):
        eng = _engine(3)

        def prog(r):
            if r == 2:
                return "bailed"  # never joins the barrier
            yield Barrier(members=(0, 1, 2), key="b0")
            return "done"

        with pytest.raises(StallError) as ei:
            eng.run(prog)
        err = ei.value
        colls = [b for b in err.blocked if b["state"] == "collective"]
        assert len(colls) == 2
        assert colls[0]["op"] == "Barrier"
        assert colls[0]["members"] == [0, 1, 2]
        assert sorted(colls[0]["arrived"]) == [0, 1]
        # rank 2 finished, so nothing waits on a blocked rank: no cycle
        assert err.cycle == []

    def test_legacy_deadlock_catch_still_works(self):
        # pre-existing callers catch DeadlockError; the richer StallError
        # must remain a subclass
        eng = _engine(2)

        def prog(r):
            yield Recv(1 - r, 8)

        with pytest.raises(DeadlockError):
            eng.run(prog)

    def test_blocked_ranks_empty_on_fresh_engine(self):
        assert _engine().blocked_ranks() == []
