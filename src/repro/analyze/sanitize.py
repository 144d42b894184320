"""Opt-in runtime precision sanitizer (``REPRO_SANITIZE=1``).

The static checkers prove the *structure* of the precision flow; this
module enforces the same contracts dynamically.  When the environment
variable ``REPRO_SANITIZE`` is truthy, :func:`repro.blas.shim.get_shim`
returns a :class:`SanitizedBlasShim` whose every operation asserts the
dtype and finiteness contracts of the mixed-precision algorithm:

- ``gemm_update``: C resident in FP32; A/B finite and within the FP16
  range (or already FP16); the updated C finite afterwards;
- ``getrf``: square finite input, finite factors out (a blown-up
  unpivoted factorization surfaces here, not three phases later);
- ``trsm``/``trsv``: finite triangular factors and right-hand sides,
  finite solutions;
- ``gemv``/``gemv_update``: finite tiles and vectors in the FP64
  residual regeneration, finite products out.

Violations raise :class:`repro.errors.SanitizerError` with the
operation name and the offending operand, so a CI shard run with
``REPRO_SANITIZE=1`` turns silent numerical corruption into a pointed
test failure.  Overhead is one ``isfinite`` reduction per operand —
fine for tests, which is why it is opt-in.
"""

from __future__ import annotations

import os

import numpy as np

from repro.blas.shim import BlasShim
from repro.errors import SanitizerError
from repro.precision.types import FP16, FP16_MAX, FP32

SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled(env=None) -> bool:
    """Whether the runtime sanitizer is switched on via the environment."""
    value = (env if env is not None else os.environ).get(SANITIZE_ENV, "")
    return value.strip().lower() in _TRUTHY


class SanitizedBlasShim(BlasShim):
    """A :class:`BlasShim` that asserts precision contracts per call.

    Drop-in: same constructor and dispatch surface; adds
    :attr:`checks_run` so tests can assert the sanitizer was active.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        #: number of operand/result assertions executed
        self.checks_run = 0

    # -- assertions -------------------------------------------------------

    def _require_finite(self, op: str, name: str, arr) -> None:
        if not isinstance(arr, np.ndarray):
            return  # phantom payloads carry no data to check
        self.checks_run += 1
        if not np.isfinite(arr).all():
            bad = int((~np.isfinite(arr)).sum())
            raise SanitizerError(
                f"sanitizer[{op}]: operand {name} contains {bad} "
                f"non-finite value(s) (shape {arr.shape}, "
                f"dtype {arr.dtype})"
            )

    def _require_fp16_safe(self, op: str, name: str, arr) -> None:
        if not isinstance(arr, np.ndarray) or arr.dtype == FP16.dtype:
            return
        self.checks_run += 1
        overflow = np.abs(arr) > FP16_MAX
        if overflow.any():
            worst = float(np.max(np.abs(np.where(overflow, arr, 0.0))))
            raise SanitizerError(
                f"sanitizer[{op}]: operand {name} has "
                f"{int(overflow.sum())} value(s) above the FP16 max "
                f"({FP16_MAX:.0f}); largest is {worst:.6g} — the down-"
                "cast would silently produce inf"
            )

    def _require_dtype(self, op: str, name: str, arr, dtype) -> None:
        if not isinstance(arr, np.ndarray):
            return
        self.checks_run += 1
        if arr.dtype != dtype:
            raise SanitizerError(
                f"sanitizer[{op}]: operand {name} must be {dtype}, "
                f"got {arr.dtype}"
            )

    # -- sanitized dispatch ----------------------------------------------

    def gemm_update(self, c, a, b):
        self._require_dtype("gemm", "C", c, FP32.dtype)
        for name, arr in (("A", a), ("B", b)):
            self._require_finite("gemm", name, arr)
            self._require_fp16_safe("gemm", name, arr)
        out = super().gemm_update(c, a, b)
        self._require_finite("gemm", "C (updated)", out)
        return out

    def getrf(self, a):
        if isinstance(a, np.ndarray) and a.ndim == 2 \
                and a.shape[0] != a.shape[1]:
            raise SanitizerError(
                f"sanitizer[getrf]: diagonal block must be square, "
                f"got {a.shape}"
            )
        self._require_finite("getrf", "A", a)
        out = super().getrf(a)
        self._require_finite("getrf", "LU (factored)", out)
        return out

    def trsm(self, side, uplo, t, b):
        self._require_finite("trsm", "T", t)
        self._require_finite("trsm", "B", b)
        out = super().trsm(side, uplo, t, b)
        self._require_finite("trsm", "X (solution)", out)
        return out

    def trsv_lower_unit(self, t, x):
        self._require_finite("trsv", "T", t)
        self._require_finite("trsv", "x", x)
        out = super().trsv_lower_unit(t, x)
        self._require_finite("trsv", "y (solution)", out)
        return out

    def trsv_upper(self, t, x):
        self._require_finite("trsv", "T", t)
        self._require_finite("trsv", "x", x)
        out = super().trsv_upper(t, x)
        self._require_finite("trsv", "y (solution)", out)
        return out

    def gemv(self, a, x):
        self._require_finite("gemv", "A", a)
        self._require_finite("gemv", "x", x)
        out = super().gemv(a, x)
        self._require_finite("gemv", "y (product)", out)
        return out

    def gemv_update(self, y, a, x):
        self._require_finite("gemv", "A", a)
        self._require_finite("gemv", "x", x)
        out = super().gemv_update(y, a, x)
        self._require_finite("gemv", "y (updated)", out)
        return out
