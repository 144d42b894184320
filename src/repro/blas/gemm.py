"""GEMM kernels, including the mixed-precision FP16-in / FP32-accumulate path.

The heart of HPL-AI (paper Section III-C): the trailing-matrix update

    A[k+1:, k+1:] -= L[k+1:, k] @ U[k, k+1:]

is performed with L and U stored in FP16 and the product accumulated in
FP32 — exactly the contract of ``cublasSgemmEx`` / ``rocblas_gemm_ex``
with HALF input and FLOAT compute types.  We emulate that contract by
rounding the operands through FP16 and multiplying in FP32: each operand
element carries one FP16 rounding, while products and sums are FP32,
which matches tensor-core semantics at the granularity relevant to
iterative-refinement convergence analysis.  Both conversions go through
the codec of :mod:`repro.precision.fp16` (exact encoder, decode table).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.precision.fp16 import to_fp16, widen_fp16
from repro.precision.types import FP16, FP32


def _check_matmul_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError(
            f"gemm requires 2-D operands, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"gemm inner dimensions differ: {a.shape} @ {b.shape}"
        )


def gemm(a: np.ndarray, b: np.ndarray, out_dtype=None) -> np.ndarray:
    """Plain full-precision product ``A @ B`` (used by the FP64 baseline)."""
    _check_matmul_shapes(a, b)
    result = a @ b
    if out_dtype is not None:
        result = result.astype(out_dtype, copy=False)
    return result


def _to_fp16(x: np.ndarray, name: str) -> np.ndarray:
    """Round an operand to FP16, refusing to overflow silently.

    Consistent with :meth:`repro.lcg.matrix.HplAiMatrix.check_fp16_safe`,
    a finite value above the FP16 range raises :class:`PrecisionError`
    instead of becoming ``inf``; FP16 operands pass through as they are.
    """
    if x.dtype == FP16.dtype:
        return x
    return to_fp16(x, f"gemm_mixed operand {name} has")


def gemm_mixed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FP16-operand, FP32-accumulate product of ``A @ B``.

    Operands are rounded to FP16 if they are not already, then widened
    to FP32 through the decode table so that accumulation happens in
    single precision (NumPy's matmul accumulates in the output dtype).
    Finite operand values beyond the FP16 range raise
    :class:`PrecisionError` rather than silently becoming ``inf``.
    """
    _check_matmul_shapes(a, b)
    return widen_fp16(_to_fp16(a, "A")) @ widen_fp16(_to_fp16(b, "B"))


def gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The HPL-AI trailing update ``C <- C - A @ B`` in mixed precision.

    ``C`` must be FP32 and is updated in place (the GPU implementation
    updates the resident trailing matrix); ``A`` and ``B`` are the FP16
    panels.  Returns ``C`` for chaining.
    """
    if c.dtype != FP32.dtype:
        raise ConfigurationError(
            f"trailing matrix must be fp32, got {c.dtype}"
        )
    _check_matmul_shapes(a, b)
    if c.shape != (a.shape[0], b.shape[1]):
        raise ConfigurationError(
            f"update shape mismatch: C is {c.shape}, A@B is "
            f"({a.shape[0]}, {b.shape[1]})"
        )
    c -= gemm_mixed(a, b)
    return c
