"""IEEE-754 precision descriptors used throughout the benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Precision:
    """An IEEE-754 binary floating-point format.

    Attributes
    ----------
    name:
        Short identifier ("fp16", "fp32", "fp64").
    dtype:
        The corresponding NumPy dtype.
    bytes:
        Storage size per element.
    eps:
        Machine epsilon (gap between 1.0 and the next representable).
    unit_roundoff:
        Half of eps: the worst-case relative error of round-to-nearest.
    max:
        Largest finite representable magnitude.
    min_normal:
        Smallest positive *normal* magnitude (below this, precision
        degrades through gradual underflow).
    """

    name: str
    dtype: np.dtype
    bytes: int
    eps: float
    unit_roundoff: float
    max: float
    min_normal: float

    def __str__(self) -> str:
        return self.name


def _from_dtype(name: str, dtype: type) -> Precision:
    info = np.finfo(dtype)
    return Precision(
        name=name,
        dtype=np.dtype(dtype),
        bytes=np.dtype(dtype).itemsize,
        eps=float(info.eps),
        unit_roundoff=float(info.eps) / 2.0,
        max=float(info.max),
        min_normal=float(info.tiny),
    )


#: IEEE binary16 — panel storage for the trailing-matrix GEMM.
FP16 = _from_dtype("fp16", np.float16)
#: IEEE binary32 — trailing matrix, GETRF and TRSM working precision.
FP32 = _from_dtype("fp32", np.float32)
#: IEEE binary64 — matrix generation, residuals and refinement.
FP64 = _from_dtype("fp64", np.float64)

#: largest finite FP16 magnitude; wider finite values round to ``inf``
FP16_MAX = FP16.max

_BY_NAME = {p.name: p for p in (FP16, FP32, FP64)}
_BY_DTYPE = {p.dtype: p for p in (FP16, FP32, FP64)}


def precision_of(obj) -> Precision:
    """Look up the :class:`Precision` for a name, dtype, or ndarray.

    >>> precision_of("fp16").bytes
    2
    >>> precision_of(np.zeros(3, dtype=np.float32)).name
    'fp32'
    """
    if isinstance(obj, Precision):
        return obj
    if isinstance(obj, str):
        try:
            return _BY_NAME[obj.lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown precision {obj!r}; expected one of {sorted(_BY_NAME)}"
            ) from None
    if isinstance(obj, np.ndarray):
        obj = obj.dtype
    try:
        return _BY_DTYPE[np.dtype(obj)]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unsupported dtype {obj!r}; expected float16/float32/float64"
        ) from None
