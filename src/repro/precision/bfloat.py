"""Software-emulated bfloat16 (bf16) support.

HPL-MxP permits any precision mix that still reaches an FP64-accurate
solution; tensor hardware commonly offers **bfloat16** alongside FP16.
The trade is instructive and runs in this package as a panel-precision
option (:attr:`repro.core.config.BenchmarkConfig.panel_precision`):

- FP16: 10 mantissa bits (u = 2^-11) but a narrow exponent — the
  benchmark matrix's 1/(2N) off-diagonal scaling underflows past
  N ~ 4096;
- BF16: FP32's exponent range (no underflow concern at any benchmark N)
  but only 7 mantissa bits (u = 2^-8), so the factors are rougher and
  iterative refinement needs more sweeps.

NumPy has no native bfloat16, so we emulate it exactly: a bf16 value is
an FP32 whose low 16 mantissa bits are zero.  :func:`round_to_bf16`
performs IEEE round-to-nearest-even truncation on FP32 arrays; values
stay in FP32 containers (numerics identical to hardware bf16, storage
doubled — irrelevant for the timing model, which charges logical sizes).
:func:`cast_panel` dispatches a panel to it or to the FP16 codec
(:mod:`repro.precision.fp16`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.precision.fp16 import to_fp16
from repro.precision.types import Precision

#: Descriptor for emulated bfloat16 (stored in float32 containers; the
#: ``bytes`` field is the *logical* wire size used by cost models).
BF16 = Precision(
    name="bf16",
    dtype=np.dtype(np.float32),  # container dtype
    bytes=2,
    eps=2.0 ** -7,
    unit_roundoff=2.0 ** -8,
    max=3.3895313892515355e38,
    min_normal=1.1754943508222875e-38,
)


def round_to_bf16(x: np.ndarray) -> np.ndarray:
    """Round an array to bfloat16 precision (round-to-nearest-even).

    Returns a new FP32 array whose values are exactly representable in
    bf16 (low 16 mantissa bits cleared after RNE rounding).
    """
    a = np.ascontiguousarray(x, dtype=np.float32)
    bits = a.view(np.uint32)
    # RNE: add 0x7FFF plus the guard bit (bit 16) before truncating.
    guard = (bits >> np.uint32(16)) & np.uint32(1)
    with np.errstate(over="ignore"):
        rounded = (bits + np.uint32(0x7FFF) + guard) & np.uint32(0xFFFF0000)
    out = rounded.view(np.float32).copy()
    # NaN/inf pass through untouched (the addition above could perturb
    # NaN payloads; normalize them back).
    bad = ~np.isfinite(a)
    if bad.any():
        out[bad] = a[bad]
    return out.reshape(a.shape)


def cast_panel(x: np.ndarray, precision: str) -> np.ndarray:
    """Round a panel to the requested storage precision.

    ``"fp16"`` returns a C-contiguous float16 array, encoded by
    :func:`repro.precision.fp16.to_fp16`; ``"bf16"`` returns a float32
    array holding bf16-representable values.  Finite values beyond the
    FP16 range raise :class:`PrecisionError` instead of silently
    rounding to ``inf`` (the same contract as ``gemm_mixed``; bf16
    shares FP32's exponent range, so only the fp16 path can overflow).
    """
    if precision == "fp16":
        return to_fp16(x, "cast_panel:")
    if precision == "bf16":
        return round_to_bf16(x)
    raise ConfigurationError(
        f"panel precision must be 'fp16' or 'bf16', got {precision!r}"
    )


def bf16_error_bound() -> float:
    """Worst-case relative rounding error of one bf16 store (2^-8)."""
    return BF16.unit_roundoff
