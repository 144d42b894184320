"""Tests for precision descriptors, casts, and error analysis."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PrecisionError
from repro.precision import (
    FP16,
    FP32,
    FP64,
    cast,
    hpl_ai_tolerance,
    precision_of,
    round_to,
    trans_cast,
    unit_roundoff,
)
from repro.precision.analysis import scaled_residual
from repro.precision.bfloat import cast_panel
from repro.precision.fp16 import FP16_TO_FP32, to_fp16, widen_fp16
from repro.precision.rounding import cast_bytes_moved
from repro.precision.types import FP16_MAX


class TestPrecisionTypes:
    def test_bytes(self):
        assert (FP16.bytes, FP32.bytes, FP64.bytes) == (2, 4, 8)

    def test_eps_ordering(self):
        assert FP16.eps > FP32.eps > FP64.eps

    def test_eps_values(self):
        assert FP16.eps == pytest.approx(2**-10)
        assert FP32.eps == pytest.approx(2**-23)
        assert FP64.eps == pytest.approx(2**-52)

    def test_lookup_by_name_dtype_array(self):
        assert precision_of("FP16") is FP16
        assert precision_of(np.float32) is FP32
        assert precision_of(np.zeros(2, dtype=np.float64)) is FP64
        assert precision_of(FP16) is FP16

    def test_lookup_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            precision_of("fp8")
        with pytest.raises(ConfigurationError):
            precision_of(np.int32)

    def test_unit_roundoff(self):
        assert unit_roundoff(FP16) == FP16.eps / 2


class TestCasts:
    def test_cast_dtype_and_contiguity(self):
        a = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
        out = cast(a, FP16)
        assert out.dtype == np.float16
        assert out.flags.c_contiguous

    def test_trans_cast_transposes(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = trans_cast(a, FP16)
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out.astype(np.float32), a.T)
        assert out.flags.c_contiguous

    def test_round_to_keeps_container_dtype(self):
        a = np.array([1.0 + 2**-20], dtype=np.float64)
        r = round_to(a, FP16)
        assert r.dtype == np.float64
        assert r[0] == 1.0  # 2^-20 is below fp16 resolution at 1.0

    def test_round_to_error_bounded_by_unit_roundoff(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.5, 2.0, size=1000)
        r = round_to(a, FP16)
        rel = np.abs(r - a) / np.abs(a)
        assert rel.max() <= FP16.unit_roundoff * 1.0000001

    def test_cast_bytes_moved(self):
        assert cast_bytes_moved((10, 20), FP32, FP16) == 200 * 6


def _bits16(h):
    return np.asarray(h).view(np.uint16)


def _assert_encodes_like_numpy(x):
    x = np.asarray(x, dtype=np.float32)
    out = cast_panel(x, "fp16")
    assert out.dtype == np.float16 and out.flags.c_contiguous
    np.testing.assert_array_equal(_bits16(out), _bits16(x.astype(np.float16)))


def _neighbours(x):
    """``x`` and the float32 one ulp either side of it."""
    x = np.asarray(x, dtype=np.float32)
    return np.concatenate([
        x, np.nextafter(x, np.float32(np.inf)), np.nextafter(x, np.float32(-np.inf)),
    ])


class TestFp16Codec:
    """The codec must be bit-identical to NumPy's own half casts."""

    #: every finite non-negative FP16 value, ascending, as float32
    FINITE = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float32)

    def test_max_is_the_fp16_max(self):
        assert FP16_MAX == 65504.0 == float(np.finfo(np.float16).max)

    def test_every_fp16_value_midpoint_and_ulp_neighbour(self):
        mids = (self.FINITE[:-1] + self.FINITE[1:]) / np.float32(2)  # exact
        x = _neighbours(np.concatenate([self.FINITE, mids]))
        x = np.concatenate([x, -x])
        x = x[np.abs(x) <= FP16_MAX]
        assert x.size > 380_000
        _assert_encodes_like_numpy(x)

    def test_strided_sweep_over_every_float32_exponent(self):
        mantissas = np.arange(0, 1 << 23, 4099, dtype=np.uint32)
        exponents = np.arange(256, dtype=np.uint32) << np.uint32(23)
        bits = (exponents[:, None] | mantissas[None, :]).ravel()
        x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
        _assert_encodes_like_numpy(x[np.abs(x) <= FP16_MAX])

    def test_decode_table_is_numpys_widening(self):
        h = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        want = h.astype(np.float32)
        got = widen_fp16(h)
        assert got.dtype == np.float32 and FP16_TO_FP32.nbytes == 1 << 18
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 2 * 1023
        np.testing.assert_array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_special_values_pass_through(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5], np.float32)
        out = cast_panel(x, "fp16")
        assert list(_bits16(out[:4])) == [0x0000, 0x8000, 0x7C00, 0xFC00]
        assert np.isnan(out[4:6]).all()
        assert list(np.signbit(out[4:6])) == [False, True]
        assert out[6] == 1.5
        assert list(_bits16(cast_panel(x[:2], "fp16"))) == [0x0000, 0x8000]

    def test_range_edge(self):
        top = np.float32(FP16_MAX)
        assert cast_panel(np.array([top, -top]), "fp16").tolist() == [65504.0, -65504.0]
        above = np.nextafter(top, np.float32(np.inf))
        for x in ([above], [-above], [1.0, 65519.0, np.nan, -7e4]):
            with pytest.raises(PrecisionError) as err:
                cast_panel(np.array(x, np.float32), "fp16")
            n = sum(1 for v in x if abs(v) > FP16_MAX)
            worst = max(abs(np.float32(v)) for v in x if abs(v) > FP16_MAX)
            assert str(err.value) == (
                f"cast_panel: {n} value(s) above the FP16 max (65504); "
                f"largest is {float(worst):.6g} — the FP16 cast would "
                "silently produce inf"
            )

    @pytest.mark.parametrize("layout", ["empty", "1d", "strided", "transposed", "column"])
    def test_layouts(self, layout):
        a = (np.random.default_rng(3).uniform(-1, 1, (48, 40)) / 4096).astype(np.float32)
        x = {
            "empty": a[:0], "1d": a[5], "strided": a[::3, 1::2],
            "transposed": a.T, "column": a[:, 7:23],
        }[layout]
        out = to_fp16(x, "test:")
        assert out.shape == x.shape and out.flags.c_contiguous
        np.testing.assert_array_equal(_bits16(out), _bits16(x.astype(np.float16)))
        np.testing.assert_array_equal(widen_fp16(out.T), out.T.astype(np.float32))
        assert widen_fp16(out.T).flags.c_contiguous

    def test_helpers_route_through_the_guarded_codec(self):
        big = np.array([1.0, 7e4], np.float32)
        for fn in (cast, trans_cast, round_to):
            with pytest.raises(PrecisionError, match="1 value"):
                fn(big, FP16)
        a = np.float32([[1e-6, -3e-7], [65504.0, 2.0]])
        np.testing.assert_array_equal(_bits16(trans_cast(a, FP16)), _bits16(a.T.astype(np.float16)))
        assert round_to(np.float64(1e-6), FP16).shape == ()


class TestTolerance:
    def test_hpl_ai_tolerance_formula(self):
        tol = hpl_ai_tolerance(100, 2.0, 3.0, 4.0, eps=1e-16)
        assert tol == pytest.approx(8 * 100 * 1e-16 * (2 * 2.0 * 3.0 + 4.0))

    def test_defaults_to_fp64_eps(self):
        assert hpl_ai_tolerance(10, 1, 1, 1) == pytest.approx(
            8 * 10 * FP64.eps * 3
        )

    def test_scaled_residual(self):
        assert scaled_residual(0.0, 10, 1.0, 1.0) == 0.0
        assert scaled_residual(1e-12, 10, 0.0, 0.0) == float("inf")
        val = scaled_residual(10 * FP64.eps, 10, 1.0, 1.0)
        assert val == pytest.approx(1.0)
