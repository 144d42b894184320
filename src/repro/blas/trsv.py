"""Triangular solves with a vector right-hand side (TRSV).

Iterative refinement (Algorithm 1 line 47) computes the correction
``d = U^{-1} (L^{-1} r)`` with two CPU-side TRSVs — the paper maps these
to openBLAS on both systems (Table II).  HPL-AI performs the solves in
FP32 while carrying the result in FP64 ("the solution discrepancy d is
solved with mixed precision (FP32/FP64)"); callers control that by the
dtype they pass in.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def _check(t: np.ndarray, x: np.ndarray) -> None:
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ConfigurationError(f"triangle must be square, got {t.shape}")
    if x.ndim != 1 or x.shape[0] != t.shape[0]:
        raise ConfigurationError(
            f"rhs vector shape {x.shape} incompatible with triangle {t.shape}"
        )


def trsv_lower_unit(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``TRSV_LOW``: solve ``L y = x`` with L unit lower triangular."""
    import scipy.linalg as sla

    _check(t, x)
    return sla.solve_triangular(t, x, lower=True, unit_diagonal=True).astype(
        x.dtype, copy=False
    )


def trsv_upper(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``TRSV_UP``: solve ``U y = x`` with U upper triangular (non-unit)."""
    import scipy.linalg as sla

    _check(t, x)
    return sla.solve_triangular(t, x, lower=False, unit_diagonal=False).astype(
        x.dtype, copy=False
    )


def lu_solve_packed(lu: np.ndarray, b: np.ndarray, solve_dtype=None) -> np.ndarray:
    """Solve ``(L U) y = b`` given a packed unpivoted L\\U factorization.

    ``solve_dtype`` optionally lowers the precision of the two triangular
    solves (HPL-AI uses FP32 solves on FP64 data).  The result is returned
    in ``b``'s dtype.
    """
    if solve_dtype is None:
        solve_dtype = b.dtype
    t = lu.astype(solve_dtype, copy=False)
    rhs = b.astype(solve_dtype, copy=False)
    y = trsv_lower_unit(t, rhs)
    y = trsv_upper(t, y)
    return y.astype(b.dtype, copy=False)
