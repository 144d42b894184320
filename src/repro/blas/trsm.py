"""Triangular solves with matrix right-hand sides (TRSM).

The *Panel Update* of Algorithm 1 uses two of the four [R|L][UP|LOW]
variants:

- ``TRSM_L_LOW``  solves ``L11 X = A12``  giving the U row panel;
- ``TRSM_R_UP``   solves ``X U11 = A21``  giving the L column panel.

L factors are always *unit* lower triangular (the diagonal of the packed
GETRF output belongs to U), matching cublasStrsm's DIAG_UNIT flag in the
real code.  The solves run in the dtype of the right-hand side (FP32 in
HPL-AI).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def _check(t: np.ndarray, b: np.ndarray, side: str) -> None:
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ConfigurationError(f"triangle must be square, got {t.shape}")
    if b.ndim != 2:
        raise ConfigurationError(f"rhs must be 2-D, got shape {b.shape}")
    m = b.shape[0] if side == "left" else b.shape[1]
    if t.shape[0] != m:
        raise ConfigurationError(
            f"{side}-side triangle {t.shape} incompatible with rhs {b.shape}"
        )


def trsm_left_lower(t: np.ndarray, b: np.ndarray, unit: bool = True) -> np.ndarray:
    """Solve ``T X = B`` with T (unit) lower triangular; the U-panel solve."""
    import scipy.linalg as sla

    _check(t, b, "left")
    return sla.solve_triangular(t, b, lower=True, unit_diagonal=unit).astype(
        b.dtype, copy=False
    )


def trsm_left_upper(t: np.ndarray, b: np.ndarray, unit: bool = False) -> np.ndarray:
    """Solve ``T X = B`` with T upper triangular."""
    import scipy.linalg as sla

    _check(t, b, "left")
    return sla.solve_triangular(t, b, lower=False, unit_diagonal=unit).astype(
        b.dtype, copy=False
    )


def trsm_right_upper(t: np.ndarray, b: np.ndarray, unit: bool = False) -> np.ndarray:
    """Solve ``X T = B`` with T upper triangular; the L-panel solve.

    Implemented as the transposed left-side solve ``T^T X^T = B^T``.
    """
    import scipy.linalg as sla

    _check(t, b, "right")
    x_t = sla.solve_triangular(t.T, b.T, lower=True, unit_diagonal=unit)
    return np.ascontiguousarray(x_t.T, dtype=b.dtype)


def trsm_right_lower(t: np.ndarray, b: np.ndarray, unit: bool = True) -> np.ndarray:
    """Solve ``X T = B`` with T (unit) lower triangular."""
    import scipy.linalg as sla

    _check(t, b, "right")
    x_t = sla.solve_triangular(t.T, b.T, lower=False, unit_diagonal=unit)
    return np.ascontiguousarray(x_t.T, dtype=b.dtype)


_VARIANTS = {
    ("left", "lower"): trsm_left_lower,
    ("left", "upper"): trsm_left_upper,
    ("right", "lower"): trsm_right_lower,
    ("right", "upper"): trsm_right_upper,
}

# The paper abbreviates sides/triangles as [R|L] and [UP|LOW].
_SIDE_ALIASES = {"l": "left", "left": "left", "r": "right", "right": "right"}
_UPLO_ALIASES = {"up": "upper", "upper": "upper", "u": "upper",
                 "low": "lower", "lower": "lower"}


def trsm(
    side: str, uplo: str, t: np.ndarray, b: np.ndarray, unit: bool | None = None
) -> np.ndarray:
    """Generic dispatch mirroring the BLAS ``TRSM [R|L] [UP|LOW]`` naming.

    ``unit`` defaults to True for lower (L factors are unit) and False
    for upper triangles, matching HPL-AI's usage.
    """
    try:
        key = (_SIDE_ALIASES[side.lower()], _UPLO_ALIASES[uplo.lower()])
    except KeyError:
        raise ConfigurationError(
            f"unknown trsm variant side={side!r} uplo={uplo!r}"
        ) from None
    if unit is None:
        unit = key[1] == "lower"
    return _VARIANTS[key](t, b, unit=unit)
