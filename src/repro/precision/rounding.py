"""Cast kernels: the ``CAST`` and ``TRANS_CAST`` phases of Algorithm 1.

After the panel TRSMs, the L panel is converted to FP16 (``CAST``) and
the U panel is *"conveniently transposed and cast simultaneously"*
(``TRANS_CAST``) so that the trailing GEMM sees both operands in the
layout the tensor cores want.  These are memory-bandwidth-bound
operations; their timing model lives in :mod:`repro.machine.kernels`.
FP16 targets go through the guarded codec of :mod:`repro.precision.fp16`
(a finite value above the FP16 range raises ``PrecisionError``).
"""

from __future__ import annotations

import numpy as np

from repro.precision.fp16 import to_fp16
from repro.precision.types import FP16, Precision, precision_of


def round_to(x: np.ndarray, precision) -> np.ndarray:
    """Round ``x`` through ``precision`` and return it in its original dtype.

    Emulates computing/storing in a lower precision while keeping the
    container dtype, which is useful for error analysis: e.g.
    ``round_to(a64, FP16)`` is the FP64 value of the FP16 rounding of
    ``a64``.
    """
    prec = precision_of(precision)
    a = np.asarray(x)
    if prec is FP16:
        return to_fp16(a, "round_to:").reshape(a.shape).astype(a.dtype)
    return a.astype(prec.dtype).astype(a.dtype)


def cast(x: np.ndarray, precision) -> np.ndarray:
    """The ``CAST`` kernel: convert an array to ``precision``.

    Always returns a new contiguous array (the real code writes into a
    separate FP16 panel buffer rather than converting in place).
    """
    prec = precision_of(precision)
    if prec is FP16:
        return to_fp16(x, "cast:")
    return np.ascontiguousarray(np.asarray(x), dtype=prec.dtype)


def trans_cast(x: np.ndarray, precision) -> np.ndarray:
    """The ``TRANS_CAST`` kernel: transpose and convert in one pass.

    Returns a C-contiguous array of shape ``x.T.shape`` in ``precision``.
    """
    prec = precision_of(precision)
    if prec is FP16:
        return to_fp16(np.asarray(x).T, "trans_cast:")
    return np.ascontiguousarray(np.asarray(x).T, dtype=prec.dtype)


def cast_bytes_moved(shape: tuple, src: Precision, dst: Precision) -> int:
    """Bytes read + written by a cast of an array with ``shape``.

    Used by the performance model to charge the cast phases against the
    GPU memory bandwidth.
    """
    n_elems = 1
    for dim in shape:
        n_elems *= int(dim)
    return n_elems * (precision_of(src).bytes + precision_of(dst).bytes)
