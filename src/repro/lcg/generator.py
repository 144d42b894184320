"""64-bit linear congruential generator with O(log n) jump-ahead.

The generator follows the classic recurrence

    x_{t+1} = (a * x_t + c)  mod 2**64

with Knuth's MMIX constants.  An LCG step is an affine map ``f(x) = ax + c``
over the ring Z/2^64; composing affine maps stays affine, so the t-step
map ``f^t`` can be computed by binary exponentiation in ``O(log t)``
multiplies.  This is the property the paper relies on: *"LCG can jump
start the sequence at low computational cost ... making it easily
parallelizable and also allowing each process to access any part of A by
regenerating it on the fly"*.

Three interfaces are provided:

- :class:`Lcg64` — a scalar, stateful generator (mirrors the C code);
- :func:`states_at` — a vectorized evaluator of the LCG state at many
  *scattered* absolute positions at once with NumPy (one masked wrapped
  multiply/add pass per bit that is set in any position);
- :func:`states_progression` — the bulk generator for contiguous or
  evenly strided runs: one ``states_at`` jump to the head of each run,
  then the run is filled by doubling, one wrapped multiply-add per
  element.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Knuth's MMIX multiplier.
LCG_A = 6364136223846793005
#: Knuth's MMIX increment.
LCG_C = 1442695040888963407

_MASK = (1 << 64) - 1


def affine_compose(
    f: Tuple[int, int], g: Tuple[int, int]
) -> Tuple[int, int]:
    """Compose two affine maps over Z/2^64: ``(f ∘ g)(x) = f(g(x))``.

    Maps are represented as ``(a, c)`` meaning ``x -> a*x + c (mod 2^64)``.
    """
    fa, fc = f
    ga, gc = g
    return (fa * ga) & _MASK, (fa * gc + fc) & _MASK


def affine_power(a: int, c: int, n: int) -> Tuple[int, int]:
    """Return the affine map of ``n`` LCG steps, ``(a, c)^n``, in O(log n).

    ``affine_power(a, c, 0)`` is the identity map ``(1, 0)``.
    """
    if n < 0:
        raise ConfigurationError(f"jump distance must be non-negative, got {n}")
    result = (1, 0)
    base = (a & _MASK, c & _MASK)
    while n:
        if n & 1:
            result = affine_compose(base, result)
        base = affine_compose(base, base)
        n >>= 1
    return result


class Lcg64:
    """Scalar 64-bit LCG with jump-ahead.

    Parameters
    ----------
    seed:
        Initial state ``x_0``.  Any 64-bit value is accepted.
    a, c:
        Multiplier and increment; default to the MMIX constants.
    """

    __slots__ = ("a", "c", "state", "_position")

    def __init__(self, seed: int, a: int = LCG_A, c: int = LCG_C) -> None:
        self.a = a & _MASK
        self.c = c & _MASK
        self.state = seed & _MASK
        self._position = 0

    @property
    def position(self) -> int:
        """Number of steps taken from the seed state."""
        return self._position

    def next_uint64(self) -> int:
        """Advance one step and return the new state."""
        self.state = (self.a * self.state + self.c) & _MASK
        self._position += 1
        return self.state

    def advance(self, n: int) -> int:
        """Jump ``n`` steps ahead in O(log n); returns the new state."""
        ja, jc = affine_power(self.a, self.c, n)
        self.state = (ja * self.state + jc) & _MASK
        self._position += n
        return self.state

    def jumped(self, n: int) -> "Lcg64":
        """Return a *new* generator ``n`` steps ahead, leaving ``self`` intact."""
        clone = Lcg64(self.state, self.a, self.c)
        clone._position = self._position
        clone.advance(n)
        return clone

    def uniform(self) -> float:
        """Advance one step; return a double uniform on ``[-0.5, 0.5)``.

        The top 53 bits of the state feed the mantissa, matching the bulk
        path in :func:`repro.lcg.matrix.uniform_from_state`.
        """
        s = self.next_uint64()
        return (s >> 11) * 2.0**-53 - 0.5

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Lcg64(state={self.state:#018x}, position={self._position})"
        )


@lru_cache(maxsize=64)
def _jump_tables(a: int, c: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(a, c)^(stride * 2^k)`` for k = 0..63 as read-only uint64 arrays.

    Memoized per ``(a, c, stride)``: building one costs 64 Python-int
    compositions plus one ``affine_power``.
    """
    a_tab = np.empty(64, dtype=np.uint64)
    c_tab = np.empty(64, dtype=np.uint64)
    cur = affine_power(a, c, stride)
    for k in range(64):
        a_tab[k], c_tab[k] = cur
        cur = affine_compose(cur, cur)
    a_tab.flags.writeable = False
    c_tab.flags.writeable = False
    return a_tab, c_tab


def _check_positions(positions: np.ndarray, what: str) -> np.ndarray:
    """Validate step counts and return them as uint64."""
    pos = np.asarray(positions)
    if pos.size:
        # float/bool positions would silently truncate in the uint64 cast
        # below (and bool positions are almost certainly a caller bug).
        if not np.issubdtype(pos.dtype, np.integer):
            raise ConfigurationError(
                f"LCG {what} must have an integer dtype, got {pos.dtype}"
            )
        if pos.min() < 0:
            raise ConfigurationError(f"LCG {what} must be non-negative")
    return pos.astype(np.uint64, copy=False)


def states_at(
    seed: int,
    positions: np.ndarray,
    a: int = LCG_A,
    c: int = LCG_C,
) -> np.ndarray:
    """LCG states at absolute step indices, vectorized over ``positions``.

    ``positions`` holds 1-based step counts: ``states_at(seed, [t])`` equals
    the state after ``t`` calls to :meth:`Lcg64.next_uint64`; ``t = 0``
    returns the seed itself.  Every bit set in *some* position costs one
    masked multiply/add pass over the array (bits clear everywhere are
    skipped), so the cost follows the bit length of the largest position
    — this is the evaluator for scattered positions; contiguous or evenly
    strided runs belong to :func:`states_progression`.

    Parameters
    ----------
    seed:
        Initial LCG state.
    positions:
        Integer array (any shape) of step counts; must be non-negative.
    """
    pos = _check_positions(positions, "positions")
    a_tab, c_tab = _jump_tables(a, c, 1)

    acc_a = np.ones(pos.shape, dtype=np.uint64)
    acc_c = np.zeros(pos.shape, dtype=np.uint64)
    one = np.uint64(1)
    with np.errstate(over="ignore"):
        for k in range(64):
            bit = (pos >> np.uint64(k)) & one
            if not bit.any():
                # Cheap skip for sparse high bits; correctness unaffected.
                continue
            mask = bit.astype(bool)
            acc_a[mask] = acc_a[mask] * a_tab[k]
            acc_c[mask] = acc_c[mask] * a_tab[k] + c_tab[k]
        return acc_a * np.uint64(seed & _MASK) + acc_c


def states_progression(
    seed: int,
    first: np.ndarray,
    count: int,
    stride: int = 1,
    a: int = LCG_A,
    c: int = LCG_C,
) -> np.ndarray:
    """LCG states along arithmetic progressions of step indices.

    Returns a C-contiguous ``(len(first), count)`` uint64 array whose
    ``[i, j]`` entry is the state at step ``first[i] + j * stride`` (same
    1-based convention as :func:`states_at`).  Only column 0 is jumped to
    bit by bit; after that, columns ``[m, 2m)`` are columns ``[0, m)``
    advanced ``m * stride`` steps, which is a single affine map
    ``(a, c)^(stride * m)`` and therefore one wrapped multiply-add over the
    slice.  Doubling ``m`` fills the run in ``ceil(log2 count)`` slices at
    about two array operations per element.  All arithmetic is in Z/2^64,
    where composing affine maps is exact, so every state is bit-identical
    to ``states_at`` on the expanded positions.

    Parameters
    ----------
    seed:
        Initial LCG state.
    first:
        1-D integer array of the starting step of each run; non-negative.
    count:
        Number of states per run (``>= 0``).
    stride:
        Step distance between consecutive states of a run (``>= 1``).
    """
    start = _check_positions(first, "run starts")
    if start.ndim != 1:
        raise ConfigurationError(
            f"LCG run starts must be one-dimensional, got shape {start.shape}"
        )
    if count < 0:
        raise ConfigurationError(f"run length must be non-negative, got {count}")
    if stride < 1:
        raise ConfigurationError(f"run stride must be positive, got {stride}")
    out = np.empty((start.size, count), dtype=np.uint64)
    if out.size == 0:
        return out
    out[:, 0] = states_at(seed, start, a, c)
    a_tab, c_tab = _jump_tables(a, c, stride)
    with np.errstate(over="ignore"):
        m, k = 1, 0
        while m < count:
            w = min(m, count - m)
            dst = out[:, m:m + w]
            np.multiply(out[:, :w], a_tab[k], out=dst)
            dst += c_tab[k]
            m, k = 2 * m, k + 1
    return out
