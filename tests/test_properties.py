"""Cross-cutting property-based tests (hypothesis)."""

import json
import tempfile
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.ring import _join, _split
from repro.comm.route import (
    route_ring1,
    route_ring1m,
    route_ring2m,
    route_tree,
)
from repro.core.config import BenchmarkConfig
from repro.machine import FRONTIER, SUMMIT, CommCosts
from repro.model.comm_model import bcast_time
from repro.model.perf_model import (
    COLUMNS,
    estimate_iteration,
    estimate_run,
    estimate_runs,
    iteration_columns,
)
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.analysis import load_profile_input, loaders
from repro.obs.export import (
    dumps_strict,
    spans_companion,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import FIELDS, SpanTracer
from repro.simulate.phantom import PhantomArray

members_lists = st.lists(
    st.integers(0, 500), min_size=1, max_size=24, unique=True
)


class TestRingSegmentation:
    @given(
        st.integers(1, 40),  # rows
        st.integers(1, 5),   # cols
        st.integers(1, 12),  # segments
    )
    @settings(max_examples=60, deadline=None)
    def test_split_join_roundtrip_ndarray(self, rows, cols, nseg):
        rng = np.random.default_rng(rows * 100 + cols)
        payload = rng.normal(size=(rows, cols))
        segs = _split(payload, nseg)
        back = _join(segs)
        np.testing.assert_array_equal(back, payload)

    @given(st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_split_join_roundtrip_phantom(self, rows, nseg):
        payload = PhantomArray((rows, 7), np.float16)
        back = _join(_split(payload, nseg))
        assert back.shape == payload.shape
        assert back.dtype == payload.dtype

    @given(st.integers(2, 40), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_split_preserves_total_bytes(self, rows, nseg):
        payload = PhantomArray((rows, 3), np.float32)
        segs = _split(payload, nseg)
        assert sum(s.nbytes for s in segs) == payload.nbytes


class TestRouteBuilders:
    @given(members_lists)
    @settings(max_examples=60, deadline=None)
    def test_every_builder_covers_all_members(self, members):
        root = members[0]
        for builder in (
            lambda r, m: route_tree(r, m),
            lambda r, m: route_ring1(r, m),
            lambda r, m: route_ring1m(r, m),
            lambda r, m: route_ring2m(r, m),
        ):
            spec = builder(root, members)
            assert set(spec.destinations) == set(members) - {root}

    @given(members_lists, st.integers(0, 23))
    @settings(max_examples=40, deadline=None)
    def test_any_member_can_be_root(self, members, idx):
        root = members[idx % len(members)]
        spec = route_tree(root, members)
        assert spec.root == root
        assert root not in spec.destinations

    @given(members_lists)
    @settings(max_examples=40, deadline=None)
    def test_hierarchical_tree_with_arbitrary_node_map(self, members):
        spec = route_tree(members[0], members, node_of=lambda r: r // 4)
        assert set(spec.destinations) == set(members) - {members[0]}


class TestBcastTimeProperties:
    @given(
        st.sampled_from(["bcast", "ibcast", "ring1", "ring1m", "ring2m"]),
        st.integers(2, 300),
        st.floats(1e3, 1e9),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_and_monotone_in_size(self, algo, members, nbytes):
        costs = CommCosts(FRONTIER)
        t1 = bcast_time(algo, nbytes, members, costs, FRONTIER.mpi)
        t2 = bcast_time(algo, nbytes * 2, members, costs, FRONTIER.mpi)
        assert t1 >= 0
        assert t2 >= t1

    @given(st.sampled_from(["ring1", "ring2m"]), st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_more_sharing_never_faster(self, algo, members):
        costs = CommCosts(SUMMIT)
        t1 = bcast_time(algo, 1e7, members, costs, SUMMIT.mpi, sharing=1)
        t4 = bcast_time(algo, 1e7, members, costs, SUMMIT.mpi, sharing=4)
        assert t4 >= t1


class TestModelArrayProgram:
    """The array evaluation of eqs (1)-(5) is the scalar one, bit for bit."""

    @given(
        st.sampled_from([SUMMIT, FRONTIER]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([64, 100, 768, 1000, 3072]),
        st.integers(1, 4),
        st.sampled_from(["bcast", "ibcast", "ring1", "ring1m", "ring2m"]),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
        st.floats(0.5, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_scalar_steps_and_loop_sums(
        self, machine, p_rows, p_cols, block, mult, algo, flags, speed
    ):
        lookahead, gpu_aware, port_binding = flags
        cfg = BenchmarkConfig(
            n=mult * lcm(p_rows, p_cols) * block, block=block, machine=machine,
            p_rows=p_rows, p_cols=p_cols, bcast_algorithm=algo,
            lookahead=lookahead, gpu_aware=gpu_aware, port_binding=port_binding,
        )
        costs = CommCosts(machine, port_binding=port_binding, gpu_aware=gpu_aware)
        steps = [
            estimate_iteration(cfg, costs, k, speed) for k in range(cfg.num_blocks)
        ]
        cols = iteration_columns(cfg, costs, speed)
        assert tuple(cols) == COLUMNS
        for name in COLUMNS:
            assert cols[name].tolist() == [getattr(it, name) for it in steps]
            assert all(type(getattr(it, name)) is float for it in steps)

        res = estimate_run(cfg, global_speed=speed, keep_iterations=True)
        assert res.iterations == steps
        sums = dict.fromkeys(COLUMNS, 0.0)
        for it in steps:
            for name in COLUMNS:
                sums[name] += getattr(it, name)
        for name, value in res.breakdown.items():
            if name != "refinement":
                assert value == sums[name]
        assert res.elapsed_factorization == sums["total"] + machine.gpu_kernels.h2d_time(
            cfg.local_fp32_bytes
        )
        assert type(res.elapsed) is float


    @given(
        st.sampled_from([SUMMIT, FRONTIER]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([64, 100, 768, 1000, 3072]),
        st.integers(1, 4),
        st.sampled_from(["bcast", "ibcast", "ring1", "ring1m", "ring2m"]),
        st.booleans(),
        st.lists(st.floats(0.5, 1.5), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_speeds_equal_one_run_each(
        self, machine, p_rows, p_cols, block, mult, algo, lookahead, speeds
    ):
        cfg = BenchmarkConfig(
            n=mult * lcm(p_rows, p_cols) * block, block=block, machine=machine,
            p_rows=p_rows, p_cols=p_cols, bcast_algorithm=algo,
            lookahead=lookahead,
        )

        def bits(res):
            return (
                res.elapsed.hex(), res.elapsed_factorization.hex(),
                res.elapsed_refinement.hex(), res.gflops_per_gcd.hex(),
                res.total_flops_per_s.hex(),
                {k: float(v).hex() for k, v in res.breakdown.items()},
            )

        batched = estimate_runs(cfg, speeds)
        assert len(batched) == len(speeds)
        for speed, res in zip(speeds, batched):
            assert bits(res) == bits(estimate_run(cfg, pipeline_multiplier=speed))


class TestEngineDeterminism:
    @given(st.integers(2, 6), st.integers(1, 20))
    @settings(max_examples=15, deadline=None)
    def test_identical_runs_identical_clocks(self, world, steps):
        from repro.simulate import Compute, Engine, Recv, Send

        def make_prog():
            def prog(rank):
                for i in range(steps):
                    yield Compute("w", 0.001 * ((rank + i) % 3 + 1))
                    if rank == 0:
                        for dst in range(1, world):
                            yield Send(dst, i, tag=i)
                    else:
                        _ = yield Recv(0, tag=i)
                return None
            return prog

        a = Engine(world, CommCosts(SUMMIT)).run(make_prog())
        b = Engine(world, CommCosts(SUMMIT)).run(make_prog())
        assert a.elapsed == b.elapsed
        assert a.events == b.events

    @given(st.integers(16, 512).map(lambda n: n * 2))
    @settings(max_examples=10, deadline=None)
    def test_exact_solve_deterministic(self, n):
        from repro.core.driver import solve_hplai

        block = 16 if n % 16 == 0 else 8
        if n % (block * 2) != 0:
            n = (n // (block * 2)) * block * 2
            if n < block * 2:
                n = block * 2
        a = solve_hplai(n=n, block=block, p_rows=2, p_cols=1)
        b = solve_hplai(n=n, block=block, p_rows=2, p_cols=1)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.elapsed == b.elapsed


class TestEdgeCharging:
    """The routed-broadcast edge routine against its own one-segment
    form: charging ``nseg`` segments along an edge in one call must be
    indistinguishable — to the bit — from ``nseg`` point-to-point
    transfers, on the static, link-perturbed and traced paths alike."""

    @staticmethod
    def _engine(machine, gpu_aware, intra, preload, perturbed, traced):
        from repro.obs import Observability
        from repro.scenario.compile import LinkPlan
        from repro.simulate import Engine

        plan = (
            LinkPlan(jitter_amplitude=1e-5, jitter_seed=7,
                     windows=[(0.2, 0.6, 3.0)])
            if perturbed else None
        )
        eng = Engine(
            2, CommCosts(machine, gpu_aware=gpu_aware),
            node_of_rank=(lambda r: 0) if intra else (lambda r: r),
            link_plan=plan, obs=Observability(enabled=traced),
        )
        eng._nic_out[eng._rank_node[0]] = preload[0]
        eng._nic_in[eng._rank_node[1]] = preload[1]
        eng._link_out[0] = preload[2]
        return eng

    @staticmethod
    def _state(eng):
        return (
            dict(eng._nic_out), dict(eng._nic_in), dict(eng._link_out),
            eng.stats[0].bytes_sent, eng.stats[0].messages_sent,
            eng._transfers,
            [(s.start, s.end, s.rank, s.attrs) for s in eng.obs.tracer],
            eng.obs.metrics.snapshot(),
        )

    @given(
        st.sampled_from([SUMMIT, FRONTIER]),
        st.booleans(),  # gpu_aware
        st.booleans(),  # intra-node placement
        st.tuples(*[st.floats(0.0, 1.0)] * 3),  # NIC out / NIC in / link free
        st.booleans(),  # link plan (jitter + brown-out window)
        st.booleans(),  # obs enabled
        st.sampled_from([1, 2, 12, 64]),
        st.integers(0, 2**30),  # payload bytes
        st.floats(0.25, 4.0),  # speed
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_edge_equals_folded_transfers(
        self, machine, gpu_aware, intra, preload, perturbed, traced, nseg,
        nbytes, speed, data,
    ):
        avail = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=nseg, max_size=nseg)
        )
        seg_size = nbytes / nseg if nseg > 1 else float(nbytes)
        args = (machine, gpu_aware, intra, preload, perturbed, traced)

        edge = self._engine(*args)
        done, arrivals = edge._charge_edge(0, 1, seg_size, avail, speed, tag=5)

        fold = self._engine(*args)
        folded = [
            fold._transfer(0, 1, seg_size, ready, speed, tag=5)
            for ready in avail
        ]

        assert arrivals == [arr for _done, arr in folded]
        assert done == folded[-1][0]
        assert self._state(edge) == self._state(fold)


_finite = st.floats(-1e3, 1e3, allow_nan=False)
_attr_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_free_attrs = st.dictionaries(st.text(max_size=5), _attr_values, max_size=3)
_xfer_attrs = st.builds(
    lambda dst, nbytes, intra, tag: {
        "dst": dst, "bytes": nbytes, "intra": intra,
        **({} if tag is None else {"tag": tag}),
    },
    st.integers(0, 40), st.integers(0, 2**40), st.booleans(),
    st.none() | st.integers(0, 2**45),
)
_spans = st.lists(
    st.tuples(
        st.sampled_from(["gemm", "xfer", "wait_recv", "πhase", 'q"uote']),
        st.sampled_from(["executor", "comm", "engine", "driver"]),
        _finite, st.floats(0, 10, allow_nan=False), st.integers(-1, 12),
        st.none() | _free_attrs | _xfer_attrs,
    ),
    max_size=25,
)


class TestSpanPipelineProperties:
    def _tracer(self, rows):
        tr = SpanTracer()
        for name, cat, start, dur, rank, attrs in rows:
            tr.add(name, cat, start, start + dur, rank, attrs)
        return tr

    @given(_spans, st.booleans(), st.none() | st.just(["comm", "engine"]))
    @settings(max_examples=120, deadline=None)
    def test_streamed_trace_is_the_documents_json(self, rows, sort, cats):
        """The hand-formatted stream is byte-for-byte what ``json.dumps``
        writes for the document ``to_chrome_trace`` returns."""
        tr = self._tracer(rows)
        kw = dict(sort=sort, cats=cats, provenance={"seed": 1, "x": float("nan")})
        with tempfile.TemporaryDirectory() as tmp:
            text = write_chrome_trace(Path(tmp) / "t.json", tr, **kw).read_text()
        assert text == json.dumps(to_chrome_trace(tr, **kw), allow_nan=False)

    @given(_spans)
    @settings(max_examples=120, deadline=None)
    def test_export_then_load_round_trips(self, rows):
        """Chrome and JSONL exports load back to the same names, cats,
        ranks and (null-for-non-finite) attrs; JSONL times exactly,
        Chrome times to within the microsecond scaling's rounding."""
        tr = self._tracer(rows)
        want = tr.spans
        with tempfile.TemporaryDirectory() as tmp:
            chrome = load_profile_input(
                write_chrome_trace(Path(tmp) / "t.json", tr)
            ).spans
            # an empty span log is rejected, not loaded as zero spans
            jsonl = load_profile_input(
                write_jsonl(Path(tmp) / "s.jsonl", tr)
            ).spans if rows else []
        for got, exact in ((chrome, False), (jsonl, True)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.name, g.cat, g.rank) == (w.name, w.cat, w.rank)
                assert g.attrs == json.loads(dumps_strict(w.attrs))
                if exact:
                    assert (g.start, g.end) == (w.start, w.end)
                else:
                    assert g.start == pytest.approx(w.start, rel=1e-12, abs=1e-12)
                    assert g.end == pytest.approx(w.end, rel=1e-12, abs=1e-12)


#: a value an xfer-shaped attrs dict may carry that the typed lane rejects
_lane_misfit = (
    st.integers(-3, 2**70) | st.booleans() | st.floats() | st.text(max_size=2) | st.none()
)
_xfer_shaped = st.fixed_dictionaries(
    {"dst": _lane_misfit, "bytes": _lane_misfit, "intra": _lane_misfit},
    optional={"tag": _lane_misfit},
)
_mixed_spans = st.lists(
    st.tuples(
        st.sampled_from(["gemm", "xfer", "wait_recv", "πhase", 'q"uote']),
        st.sampled_from(["executor", "comm", "engine", "driver", "health"]),
        _finite, st.floats(0, 10, allow_nan=False), st.integers(-3, 12),
        st.none() | _free_attrs | _xfer_attrs | _xfer_shaped,
    ),
    max_size=25,
)

#: what a loaded trace is, column by column
_INPUT_ARRAYS = FIELDS + ("dur", "x_dst", "x_src", "x_tag", "x_bytes", "x_intra")


def _loaded(load):
    """``load()``'s input, or the ``ConfigurationError`` it raised."""
    try:
        return load()
    except ConfigurationError as exc:
        return exc


def _assert_same_input(a, b):
    """Two loads are one input: every column bit for bit and of one
    dtype, intern tables in order, side table, metadata and source."""
    for field in _INPUT_ARRAYS:
        x, y = getattr(a, field), getattr(b, field)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), field
    assert (a.names, a.cats, list(a.extra.items()), a.provenance, a.metrics, a.source) == (
        b.names, b.cats, list(b.extra.items()), b.provenance, b.metrics, b.source)


class TestSpanColumnsCompanion:
    @given(
        _mixed_spans, st.booleans(), st.none() | st.just(["comm", "engine", "health"]),
        st.none() | st.lists(st.integers(-3, 12), max_size=4), st.none() | st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_companion_loads_what_the_view_parses(self, rows, sort, cats, ranks, capacity):
        """Whatever the span set, filters, order or ring: the companion
        gives the columns the view parses to, and a view whose attrs do
        not fold fails with the parse's located error either way."""
        obs = Observability(capacity=capacity)
        for name, cat, start, dur, rank, attrs in rows:
            obs.tracer.add(name, cat, start, start + dur, rank, attrs)
        obs.metrics.counter("spans.added").inc(len(rows))
        obs.provenance = {"seed": 1, "x": float("nan")}
        with tempfile.TemporaryDirectory() as tmp:
            view = write_chrome_trace(
                Path(tmp) / "t.json", obs, sort=sort, cats=cats, ranks=ranks)
            companion = spans_companion(view)
            assert companion.exists()
            fast = _loaded(lambda: loaders._load_spans_npz(companion, view))
            dispatched = _loaded(lambda: load_profile_input(view))
            companion.unlink()
            parsed = _loaded(lambda: load_profile_input(view))
        if isinstance(parsed, ConfigurationError):
            assert isinstance(fast, ConfigurationError)
            assert str(dispatched) == str(parsed)
        else:
            _assert_same_input(fast, parsed)
            _assert_same_input(dispatched, parsed)
