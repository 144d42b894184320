"""Tests for the 64-bit LCG and its jump-ahead (repro.lcg.generator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.lcg.generator import (
    LCG_A,
    LCG_C,
    Lcg64,
    affine_compose,
    affine_power,
    states_at,
    states_progression,
)

MASK = (1 << 64) - 1


class TestAffineMaps:
    def test_identity_power(self):
        assert affine_power(LCG_A, LCG_C, 0) == (1, 0)

    def test_power_one(self):
        assert affine_power(LCG_A, LCG_C, 1) == (LCG_A, LCG_C)

    def test_compose_is_application_order(self):
        # (f o g)(x) = f(g(x))
        f, g, x = (3, 5), (7, 11), 13
        a, c = affine_compose(f, g)
        assert (a * x + c) & MASK == (3 * ((7 * x + 11) & MASK) + 5) & MASK

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_power_additivity(self, m, n):
        # f^(m+n) == f^m o f^n — the algebraic heart of jump-ahead.
        fm = affine_power(LCG_A, LCG_C, m)
        fn = affine_power(LCG_A, LCG_C, n)
        fmn = affine_power(LCG_A, LCG_C, m + n)
        assert affine_compose(fm, fn) == fmn

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            affine_power(LCG_A, LCG_C, -1)


class TestLcg64:
    def test_step_matches_recurrence(self):
        gen = Lcg64(seed=12345)
        s1 = gen.next_uint64()
        assert s1 == (LCG_A * 12345 + LCG_C) & MASK

    def test_advance_equals_n_steps(self):
        a = Lcg64(seed=99)
        b = Lcg64(seed=99)
        for _ in range(137):
            a.next_uint64()
        b.advance(137)
        assert a.state == b.state
        assert a.position == b.position == 137

    def test_jumped_leaves_original_untouched(self):
        gen = Lcg64(seed=7)
        ahead = gen.jumped(1000)
        assert gen.position == 0
        assert ahead.position == 1000
        gen.advance(1000)
        assert gen.state == ahead.state

    def test_huge_jump_is_fast_and_consistent(self):
        # O(log n): a jump of 2^62 must complete instantly and agree with
        # composing two half jumps.
        gen = Lcg64(seed=1)
        half = 1 << 61
        once = Lcg64(seed=1)
        once.advance(2 * half)
        gen.advance(half)
        gen.advance(half)
        assert gen.state == once.state

    def test_uniform_range(self):
        gen = Lcg64(seed=3)
        vals = [gen.uniform() for _ in range(1000)]
        assert all(-0.5 <= v < 0.5 for v in vals)
        # Mean of uniform(-0.5, 0.5) should be near zero.
        assert abs(float(np.mean(vals))) < 0.05


class TestStatesAt:
    def test_matches_scalar_generator(self):
        gen = Lcg64(seed=4242)
        expected = [gen.next_uint64() for _ in range(20)]
        bulk = states_at(4242, np.arange(1, 21))
        assert bulk.dtype == np.uint64
        assert [int(x) for x in bulk] == expected

    def test_position_zero_returns_seed(self):
        assert int(states_at(123, np.array([0]))[0]) == 123

    def test_shape_preserved(self):
        out = states_at(5, np.arange(12).reshape(3, 4))
        assert out.shape == (3, 4)

    def test_rejects_negative_positions(self):
        with pytest.raises(ConfigurationError):
            states_at(5, np.array([-1]))

    def test_rejects_float_positions(self):
        # A float array would silently truncate in the uint64 cast.
        with pytest.raises(ConfigurationError, match="integer dtype"):
            states_at(5, np.array([0.0, 1.5]))

    def test_rejects_bool_positions(self):
        with pytest.raises(ConfigurationError, match="integer dtype"):
            states_at(5, np.array([True, False]))

    def test_accepts_any_integer_dtype(self):
        for dt in (np.int32, np.uint32, np.int64, np.uint64):
            out = states_at(5, np.arange(3, dtype=dt))
            assert int(out[0]) == 5

    @given(st.integers(0, 2**63), st.integers(0, 2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_affine_power(self, pos, seed):
        a, c = affine_power(LCG_A, LCG_C, pos)
        expected = (a * seed + c) & MASK
        got = int(states_at(seed, np.array([pos], dtype=np.uint64))[0])
        assert got == expected

    def test_custom_constants(self):
        # A trivial LCG: x -> x + 1.
        out = states_at(0, np.arange(5), a=1, c=1)
        assert [int(x) for x in out] == [0, 1, 2, 3, 4]


class TestStatesProgression:
    """Doubling must reproduce the per-bit jump on every expanded position."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.lists(
            st.one_of(
                st.just(0),
                st.integers(0, 2**20),
                st.integers(2**62, 2**63 - 1),
            ),
            min_size=0, max_size=5,
        ),
        count=st.integers(0, 300),
        n=st.integers(1, 5000),
        stride_kind=st.sampled_from(["one", "n", "n+1", "2^40+1"]),
        constants=st.sampled_from(
            [(LCG_A, LCG_C), (1, 1), (5, 3), (2**64 - 59, 2**63 + 1)]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_states_at_on_expanded_positions(
        self, seed, first, count, n, stride_kind, constants
    ):
        stride = {"one": 1, "n": n, "n+1": n + 1, "2^40+1": 2**40 + 1}[stride_kind]
        a, c = constants
        first = np.array(first, dtype=np.uint64)
        got = states_progression(seed, first, count, stride, a, c)
        positions = (
            first[:, None]
            + np.arange(count, dtype=np.uint64)[None, :] * np.uint64(stride)
        )
        assert got.dtype == np.uint64 and got.shape == positions.shape
        assert (got == states_at(seed, positions, a, c)).all()

    def test_matches_scalar_walk(self):
        gen = Lcg64(seed=4242)
        gen.advance(6)
        expected = [gen.next_uint64() for _ in range(23)]
        run = states_progression(4242, np.array([7]), 23)
        assert [int(x) for x in run[0]] == expected

    def test_strided_run_matches_scalar_walk(self):
        gen = Lcg64(seed=99)
        walk = [gen.next_uint64() for _ in range(40)]
        run = states_progression(99, np.array([2]), 13, stride=3)
        assert [int(x) for x in run[0]] == walk[1::3]

    def test_empty_shapes(self):
        assert states_progression(5, np.array([1, 2]), 0).shape == (2, 0)
        assert states_progression(
            5, np.array([], dtype=np.uint64), 4
        ).shape == (0, 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            states_progression(5, np.array([-1]), 3)
        with pytest.raises(ConfigurationError, match="integer dtype"):
            states_progression(5, np.array([0.5]), 3)
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            states_progression(5, np.array([[1, 2]]), 3)
        with pytest.raises(ConfigurationError, match="run length"):
            states_progression(5, np.array([1]), -1)
        with pytest.raises(ConfigurationError, match="stride"):
            states_progression(5, np.array([1]), 3, stride=0)

    def test_jump_tables_are_memoized_and_read_only(self):
        from repro.lcg.generator import _jump_tables

        tabs = _jump_tables(5, 3, 7)
        assert _jump_tables(5, 3, 7) is tabs
        assert tabs[0][0] == affine_power(5, 3, 7)[0]
        with pytest.raises(ValueError):
            tabs[0][0] = 1
