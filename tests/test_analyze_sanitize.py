"""Runtime precision sanitizer tests (``REPRO_SANITIZE=1``)."""

import numpy as np
import pytest

from repro.analyze.sanitize import (
    SANITIZE_ENV,
    SanitizedBlasShim,
    sanitize_enabled,
)
from repro.blas.shim import BlasShim, get_shim
from repro.errors import NumericsError, ReproError, SanitizerError


class TestEnvGate:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, value):
        assert sanitize_enabled({SANITIZE_ENV: value})

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
    def test_falsy_values(self, value):
        assert not sanitize_enabled({SANITIZE_ENV: value})

    def test_get_shim_plain_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        shim = get_shim("cuda")
        assert type(shim) is BlasShim

    def test_get_shim_sanitized_under_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        shim = get_shim("rocm", record_calls=True)
        assert isinstance(shim, SanitizedBlasShim)
        # Drop-in: the vendor-name dispatch surface is unchanged.
        assert shim.vendor_name("gemm") == "rocblas_gemm_ex"
        assert shim.record_calls


class TestErrorTaxonomy:
    def test_sanitizer_error_is_a_numerics_error(self):
        assert issubclass(SanitizerError, NumericsError)
        assert issubclass(SanitizerError, ReproError)


@pytest.fixture
def shim():
    return SanitizedBlasShim("cuda")


class TestGemmContracts:
    def test_clean_update_passes_and_counts_checks(self, shim):
        c = np.full((2, 2), 4.0, dtype=np.float32)
        a = np.full((2, 2), 0.5, dtype=np.float32)
        b = np.full((2, 2), 0.5, dtype=np.float32)
        out = shim.gemm_update(c, a, b)
        np.testing.assert_allclose(out, 4.0 - 0.5)
        assert shim.checks_run > 0

    def test_c_must_be_fp32(self, shim):
        c = np.zeros((2, 2), dtype=np.float64)
        a = b = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(SanitizerError, match="must be float32"):
            shim.gemm_update(c, a, b)

    def test_non_finite_operand_rejected(self, shim):
        c = np.zeros((2, 2), dtype=np.float32)
        a = np.ones((2, 2), dtype=np.float32)
        a[0, 1] = np.inf
        b = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(SanitizerError, match=r"non-finite"):
            shim.gemm_update(c, a, b)

    def test_fp16_overflow_operand_rejected(self, shim):
        c = np.zeros((2, 2), dtype=np.float32)
        a = np.full((2, 2), 1.0e5, dtype=np.float32)  # > 65504
        b = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(SanitizerError, match="FP16 max"):
            shim.gemm_update(c, a, b)

    def test_already_fp16_operand_is_not_range_checked(self, shim):
        c = np.zeros((2, 2), dtype=np.float32)
        a = np.ones((2, 2), dtype=np.float16)
        b = np.ones((2, 2), dtype=np.float16)
        out = shim.gemm_update(c, a, b)
        np.testing.assert_allclose(out, -2.0)


class TestFactorizationContracts:
    def test_getrf_clean_square_block(self, shim):
        a = (np.eye(4) * 4.0 + 0.01).astype(np.float32)
        out = shim.getrf(a.copy())
        assert np.isfinite(out).all()

    def test_getrf_rejects_non_square(self, shim):
        a = np.ones((3, 4), dtype=np.float32)
        with pytest.raises(SanitizerError, match="square"):
            shim.getrf(a)

    def test_getrf_rejects_non_finite_input(self, shim):
        a = np.eye(3, dtype=np.float32)
        a[1, 1] = np.nan
        with pytest.raises(SanitizerError, match="non-finite"):
            shim.getrf(a)


class TestSolveContracts:
    def test_trsv_clean(self, shim):
        t = np.eye(3, dtype=np.float32)
        x = np.ones(3, dtype=np.float32)
        out = shim.trsv_lower_unit(t, x.copy())
        assert np.isfinite(out).all()

    def test_trsv_rejects_non_finite_rhs(self, shim):
        t = np.eye(3, dtype=np.float32)
        x = np.array([1.0, np.nan, 1.0], dtype=np.float32)
        with pytest.raises(SanitizerError, match="non-finite"):
            shim.trsv_upper(t, x)

    def test_trsm_rejects_non_finite_factor(self, shim):
        t = np.eye(2, dtype=np.float32)
        t[0, 0] = np.inf
        b = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(SanitizerError, match="non-finite"):
            shim.trsm("left", "lower", t, b)

    def test_phantom_payloads_are_skipped(self, shim):
        # Cost-model-only runs pass non-ndarray payloads through the
        # shim surface; the sanitizer must not choke on them.
        before = shim.checks_run
        shim._require_finite("gemm", "A", None)
        shim._require_fp16_safe("gemm", "A", "phantom:1024x1024")
        assert shim.checks_run == before


#: per-rank sanitizer assertions / vendor calls of the n=128, B=16, 2x2
#: exact solve, and sha256 of every rank's (vendor, op, shape) list
PINNED_CHECKS_RUN = [258, 209, 209, 270]
PINNED_CALL_COUNTS = [84, 66, 66, 87]
PINNED_CALLS_SHA256 = (
    "e1283b4bd78dfe81f92b1797388cf29d1fd9975ffd2f6d2e93205a3872c7fe18"
)


class TestEndToEndUnderSanitizer:
    def test_small_hplai_solve_stays_clean(self, monkeypatch):
        # The whole mixed-precision pipeline honours the contracts: a
        # small end-to-end solve must not trip a single assertion.
        monkeypatch.setenv(SANITIZE_ENV, "1")
        from repro.core.driver import solve_hplai

        res = solve_hplai(n=64, block=16, p_rows=2, p_cols=2)
        assert res.ir_converged

    def test_sanitizer_sees_every_shim_entry(self, monkeypatch):
        # A fixed 2x2 exact solve: every rank's sanitized shim must run
        # the same assertions and record the same vendor calls whatever
        # path the panels take to and from FP16.  Pinned from the solve
        # that widened through NumPy's own casts.
        import hashlib

        import repro.core.executors as executors
        from repro.core.driver import solve_hplai

        shims = []

        def recording_shim(platform):
            shims.append(SanitizedBlasShim(platform, record_calls=True))
            return shims[-1]

        monkeypatch.setattr(executors, "get_shim", recording_shim)
        assert solve_hplai(n=128, block=16, p_rows=2, p_cols=2).ir_converged
        calls = [(c.vendor_name, c.op, c.shape) for s in shims for c in s.calls]
        assert [s.checks_run for s in shims] == PINNED_CHECKS_RUN
        assert [len(s.calls) for s in shims] == PINNED_CALL_COUNTS
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == PINNED_CALLS_SHA256


def _dispatch_ops():
    """Every BlasShim entry point that records a vendor call."""
    import inspect

    return sorted(
        name for name, fn in vars(BlasShim).items()
        if callable(fn) and not name.startswith("_")
        and "_record(" in inspect.getsource(fn)
    )


class TestShimCoverage:
    """The sanitizer must wrap every BLAS shim entry point — a new op
    added to :class:`BlasShim` without a sanitized override silently
    escapes the dtype/finiteness contracts."""

    def test_dispatch_surface_is_what_we_think(self):
        assert _dispatch_ops() == [
            "gemm_update", "gemv", "gemv_update", "getrf",
            "trsm", "trsv_lower_unit", "trsv_upper",
        ]

    @pytest.mark.parametrize("op", [
        "gemm_update", "gemv", "gemv_update", "getrf",
        "trsm", "trsv_lower_unit", "trsv_upper",
    ])
    def test_entry_point_is_wrapped(self, op):
        assert op in vars(SanitizedBlasShim), (
            f"BlasShim.{op} has no SanitizedBlasShim override: calls "
            "would bypass the runtime precision contracts"
        )

    def test_no_unwrapped_dispatch_ops(self):
        unwrapped = [
            op for op in _dispatch_ops()
            if op not in vars(SanitizedBlasShim)
        ]
        assert unwrapped == []


class TestGemvContracts:
    def test_clean_gemv(self, shim):
        a = np.ones((4, 4))
        x = np.ones(4)
        assert np.allclose(shim.gemv(a, x), 4.0)

    def test_gemv_rejects_non_finite_tile(self, shim):
        a = np.ones((4, 4))
        a[2, 1] = np.inf
        with pytest.raises(SanitizerError, match=r"gemv.*A"):
            shim.gemv(a, np.ones(4))

    def test_gemv_update_rejects_non_finite_vector(self, shim):
        y = np.zeros(4)
        x = np.ones(4)
        x[0] = np.nan
        with pytest.raises(SanitizerError, match=r"gemv.*x"):
            shim.gemv_update(y, np.ones((4, 4)), x)

    def test_gemv_update_in_place(self, shim):
        y = np.full(4, 10.0)
        shim.gemv_update(y, np.ones((4, 4)), np.ones(4))
        assert np.allclose(y, 6.0)

    def test_vendor_names_cover_gemv(self):
        for platform in ("cuda", "rocm"):
            assert BlasShim(platform).vendor_name("gemv")
