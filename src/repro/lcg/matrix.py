"""On-the-fly generated HPL-AI input matrices.

HPL-AI allows the input matrix to be chosen with *"an appropriate
condition number to omit the pivoting step"* (paper, Section II).  We
follow the common construction: independent uniform entries with a
dominant diagonal so that unpivoted Gaussian elimination is stable.

Entry definition (pure function of ``(i, j, N, seed)``):

    u(i, j)  = uniform(-0.5, 0.5) drawn from LCG state at step i*N + j + 1
    A[i, j]  = u(i, j) / (2 N)          for i != j
    A[i, i]  = 1 + u(i, i)              (in [0.5, 1.5))

The off-diagonal row sum is then strictly below 0.25 while the diagonal
is at least 0.5, so A is strictly diagonally dominant with margin >= 0.25
and has an O(1) condition number.  The right-hand side is drawn from the
LCG positions following the matrix block (steps N*N + i + 1).

Note on FP16 range: with this scaling, off-diagonal entries have
magnitude ~ 1/(4N).  IEEE half precision loses normal representation
below ~6.1e-5, so *numerically exact* runs should keep N below about
4000; :meth:`HplAiMatrix.check_fp16_safe` enforces this.  Simulated
(phantom) runs carry no data and have no such limit — which mirrors the
paper, where the extreme-scale runs rely on the same generator but the
numerics were validated at smaller scale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.lcg.cache import tile_cache
from repro.lcg.generator import LCG_A, LCG_C, states_at, states_progression
from repro.util.validation import check_positive_int

#: Largest N for which the mean off-diagonal magnitude (0.125/N) stays
#: within one bit of the IEEE-754 half-precision normal boundary
#: (~6.1e-5); beyond this, gradual underflow starts eroding panel
#: precision.  See :mod:`repro.precision.scaling` for the analysis.
FP16_SAFE_N = 4096


def uniform_from_state(states: np.ndarray) -> np.ndarray:
    """Map raw uint64 LCG states to doubles uniform on ``[-0.5, 0.5)``.

    Uses the top 53 bits so the result is exactly representable and the
    scalar (:meth:`repro.lcg.Lcg64.uniform`) and bulk paths agree bit for
    bit.
    """
    return _uniform_consuming(np.array(states, dtype=np.uint64))


def _uniform_consuming(states: np.ndarray) -> np.ndarray:
    """:func:`uniform_from_state` that uses ``states`` as its scratch space."""
    states >>= np.uint64(11)
    u = states.astype(np.float64)
    u *= 2.0**-53
    u -= 0.5
    return u


class HplAiMatrix:
    """A virtual N×N HPL-AI matrix regenerable from any index range.

    The matrix is never stored: :meth:`block` materializes any rectangular
    sub-block on demand, and :meth:`band` reads full-width row bands in
    place, which is how both the initial distributed fill and the
    iterative-refinement residual (which needs FP64 entries) work.

    Parameters
    ----------
    n:
        Global matrix dimension N.
    seed:
        LCG seed; two matrices with the same ``(n, seed)`` are identical.
    a, c:
        Optional LCG constants (default MMIX).
    use_cache:
        Consult the process-wide :func:`repro.lcg.cache.tile_cache` in
        :meth:`block` and :meth:`band`.  Entries are pure functions of
        ``(n, seed, a, c)`` and the range, so two matrices with the same
        parameters share cached tiles; disable to force regeneration.
    """

    def __init__(
        self, n: int, seed: int = 42, a: int = LCG_A, c: int = LCG_C,
        use_cache: bool = True,
    ) -> None:
        check_positive_int(n, "n")
        self.n = n
        self.seed = seed
        self.a = a
        self.c = c
        self.use_cache = use_cache
        self._offdiag_scale = 1.0 / (2.0 * n)

    # -- scalar access ---------------------------------------------------

    def entry(self, i: int, j: int) -> float:
        """Return the FP64 value of ``A[i, j]``."""
        self._check_index(i, "i")
        self._check_index(j, "j")
        u = float(
            uniform_from_state(
                states_at(self.seed, np.array([i * self.n + j + 1]), self.a, self.c)
            )[0]
        )
        if i == j:
            return 1.0 + u
        return u * self._offdiag_scale

    # -- bulk access -----------------------------------------------------

    def block(
        self,
        row_start: int,
        row_stop: int,
        col_start: int,
        col_stop: int,
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """Materialize ``A[row_start:row_stop, col_start:col_stop]``.

        Fully vectorized: cost is O(block area), independent of position.
        Results are memoized in the shared bounded
        :func:`~repro.lcg.cache.tile_cache` (unless ``use_cache=False``)
        and a *fresh* array is always returned — callers may mutate it.
        Callers that only read full-width rows should use :meth:`band`,
        which hands out the cached array itself instead of a copy.
        """
        self._check_range(row_start, row_stop, "row")
        self._check_range(col_start, col_stop, "col")
        out = self._fp64_range(row_start, row_stop, col_start, col_stop)
        # A cached entry is shared and frozen; hand callers a private copy.
        return out.astype(dtype, copy=self.use_cache)

    def band(self, row_start: int, row_stop: int) -> np.ndarray:
        """Read-only full-width FP64 rows ``A[row_start:row_stop, :]``.

        The in-place reader of the matrix: with the cache on, a hit is the
        tile cache's own write-protected array and a miss the frozen array
        just stored under the same key as ``block(row_start, row_stop, 0,
        n)``, so a band is never copied.  With ``use_cache=False`` it is a
        freshly generated, non-writeable array.
        """
        self._check_range(row_start, row_stop, "row")
        out = self._fp64_range(row_start, row_stop, 0, self.n)
        out.setflags(write=False)
        return out

    def _fp64_range(
        self, row_start: int, row_stop: int, col_start: int, col_stop: int
    ) -> np.ndarray:
        """FP64 range through the tile cache: its frozen entry (stored on
        a miss) when caching, else freshly generated."""
        if not self.use_cache:
            return self._generate_block(row_start, row_stop, col_start, col_stop)
        cache = tile_cache()
        key = (self.n, self.seed, self.a, self.c,
               row_start, row_stop, col_start, col_stop)
        out = cache.get(key)
        if out is None:
            out = self._generate_block(row_start, row_stop, col_start, col_stop)
            cache.put(key, out)
        return out

    def _generate_block(
        self, row_start: int, row_stop: int, col_start: int, col_stop: int
    ) -> np.ndarray:
        """Uncached FP64 materialization of one rectangular range."""
        # One contiguous LCG run per row, starting at step i*N + col_start + 1.
        rows = np.arange(row_start, row_stop, dtype=np.uint64)
        first = rows * np.uint64(self.n) + np.uint64(col_start + 1)
        out = self._uniform_runs(first, col_stop - col_start)
        # Entries on the global diagonal, if any fall inside, are 1 + u
        # rather than u / 2N: lift them out before scaling the rest.
        diag_lo = max(row_start, col_start)
        diag_hi = min(row_stop, col_stop)
        d = np.arange(diag_lo, diag_hi)  # empty when the range misses it
        on_diag = out[d - row_start, d - col_start]
        out *= self._offdiag_scale
        out[d - row_start, d - col_start] = 1.0 + on_diag
        return out

    def rows(self, row_start: int, row_stop: int) -> np.ndarray:
        """Materialize full rows ``A[row_start:row_stop, :]`` in FP64."""
        return self.block(row_start, row_stop, 0, self.n)

    def cols(self, col_start: int, col_stop: int) -> np.ndarray:
        """Materialize full columns ``A[:, col_start:col_stop]`` in FP64."""
        return self.block(0, self.n, col_start, col_stop)

    def dense(self, dtype: np.dtype = np.float64) -> np.ndarray:
        """Materialize the whole matrix (small N only; tests and examples)."""
        return self.block(0, self.n, 0, self.n, dtype=dtype)

    def diagonal(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Return ``diag(A)[start:stop]`` without materializing rows."""
        if stop is None:
            stop = self.n
        self._check_range(start, stop, "diag")
        # A[i, i] sits at step i*(N+1) + 1: one run of stride N+1.
        first = start * (self.n + 1) + 1
        return 1.0 + self._uniform_runs([first], stop - start, self.n + 1)[0]

    def rhs(self) -> np.ndarray:
        """The right-hand side vector b, drawn from the LCG tail."""
        return self._uniform_runs([self.n * self.n + 1], self.n)[0]

    # -- diagnostics -----------------------------------------------------

    def dominance_margin(self) -> float:
        """Guaranteed lower bound on ``|A_ii| - sum_{j!=i} |A_ij|``.

        Strictly positive by construction; used by tests as the invariant
        that justifies unpivoted LU.
        """
        # |A_ii| >= 0.5; off-diagonal row sum < (n-1) * 0.5 / (2n) < 0.25.
        return 0.5 - (self.n - 1) * 0.5 * self._offdiag_scale

    def check_fp16_safe(self) -> None:
        """Raise if exact FP16 arithmetic on this matrix would denormalize."""
        if self.n > FP16_SAFE_N:
            raise ConfigurationError(
                f"N={self.n} exceeds the FP16-safe exact-arithmetic limit "
                f"({FP16_SAFE_N}); use a phantom/simulated run for larger sizes"
            )

    # -- internal --------------------------------------------------------

    def _uniform_runs(self, first, count: int, stride: int = 1) -> np.ndarray:
        """``u`` at steps ``first[i] + j*stride``, shape ``(len(first), count)``."""
        return _uniform_consuming(states_progression(
            self.seed, np.asarray(first, dtype=np.uint64), count, stride,
            self.a, self.c,
        ))

    def _check_index(self, idx: int, name: str) -> None:
        if not 0 <= idx < self.n:
            raise ConfigurationError(
                f"{name}={idx} out of range for N={self.n}"
            )

    def _check_range(self, start: int, stop: int, name: str) -> None:
        if not (0 <= start <= stop <= self.n):
            raise ConfigurationError(
                f"{name} range [{start}, {stop}) invalid for N={self.n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HplAiMatrix(n={self.n}, seed={self.seed})"
