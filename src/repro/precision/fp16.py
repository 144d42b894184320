"""The FP16 codec: exact FP32 -> FP16 rounding and FP16 -> FP32 widening.

Every FP16 conversion of the exact HPL-AI path goes through here as
whole-array passes: NumPy's half casts run a scalar loop that is slow on
FP16 subnormals, where the matrix's 1/(2N) scaling puts half a panel.

- **Encode** (:func:`to_fp16`): add ``4|x|`` to the magic
  ``2**(max(e, -14) + 15)``; the FP32 add rounds ``|x|`` to FP16
  resolution (normal or subnormal) round-to-nearest-even, and the sum's
  bits minus the magic's count FP16 ulps.  Bit-identical to
  ``astype(np.float16)`` for every finite ``|x| <= FP16_MAX``; anything
  else takes NumPy's cast after the overflow guard, so NaN/inf pass
  through as before.
- **Decode** (:func:`widen_fp16`): a gather from a 65 536-entry table
  built from NumPy's cast at import, so exact by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PrecisionError
from repro.precision.types import FP16_MAX

_U32 = np.uint32

#: FP16 bit pattern -> its FP32 value (256 KiB)
FP16_TO_FP32 = np.arange(1 << 16, dtype=np.uint16).view(np.float16).astype(np.float32)


def _encode(a: np.ndarray) -> np.ndarray:
    """RNE-round finite float32 ``a`` with ``|a| <= FP16_MAX`` to FP16."""
    w = np.ascontiguousarray(a).view(_U32)
    mag = w & _U32(0x7FFFFFFF)
    e = mag & _U32(0x7F800000)  # exponent field, clamped to FP16's 2**-14
    np.maximum(e, _U32(0x38800000), out=e)
    s = e + _U32(0x07800000)  # the magic: exponent + 15
    np.multiply(mag.view(np.float32), np.float32(4.0), out=mag.view(np.float32))
    np.add(s.view(np.float32), mag.view(np.float32), out=s.view(np.float32))
    s -= e  # FP16 ulps + 0x07800000
    e >>= _U32(13)  # FP16 exponent field + (113 << 10)
    s += e
    s -= _U32(0x07800000 + (0x38800000 >> 13))
    out = s.astype(np.uint16)
    sign = np.empty(out.shape, np.uint16)
    np.right_shift(w, _U32(16), out=sign, casting="unsafe")
    sign &= np.uint16(0x8000)
    out |= sign
    return out.view(np.float16)


def to_fp16(x, what: str) -> np.ndarray:
    """Round ``x`` to a C-contiguous FP16 array, refusing to overflow.

    A finite value above :data:`FP16_MAX` would silently become ``inf``,
    so it raises :class:`PrecisionError` (message prefixed by ``what``);
    already-``inf``/``nan`` inputs cast faithfully, not as an overflow.
    """
    a = np.asarray(x)
    if a.dtype == np.float32 and a.size and max(a.max(), -a.min()) <= FP16_MAX:
        return _encode(a)
    finite_overflow = np.isfinite(a) & (np.abs(a) > FP16_MAX)
    if finite_overflow.any():
        worst = float(np.max(np.abs(np.where(finite_overflow, a, 0.0))))
        raise PrecisionError(
            f"{what} {int(finite_overflow.sum())} value(s) above the FP16 "
            f"max ({FP16_MAX:.0f}); largest is {worst:.6g} — the FP16 cast "
            "would silently produce inf"
        )
    return np.ascontiguousarray(a, dtype=np.float16)


def widen_fp16(h: np.ndarray) -> np.ndarray:
    """The exact FP32 values of FP16 ``h``, as a C-contiguous array."""
    return np.take(FP16_TO_FP32, h.view(np.uint16))
