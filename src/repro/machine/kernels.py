"""Calibrated per-GCD kernel performance models.

These functions answer "how fast does this BLAS call run on this GCD?"
— the quantity the paper measures in Figures 3, 5, 6 and 7 and feeds
into its performance model (Section IV).  They are *models*, not
measurements: smooth saturating curves with deterministic structure
chosen to reproduce the paper's observed shapes:

- every kernel's flop rate grows with block size B and saturates
  (Figs 5/6);
- rocBLAS GEMM shows strong non-uniformity across matrix sizes
  (Fig 3, Finding 3) — modelled with tile-misalignment penalties plus a
  deterministic hash texture;
- rocBLAS GEMM degrades badly for leading dimensions that are large
  power-of-two multiples (Fig 7: LDA=122880 = 15·8192 slow,
  119808 = 14.625·8192 fine) — modelled as a cache-set aliasing penalty;
- GETRF runs far below GEMM rates and sits on the critical path
  (Finding 3), rocSOLVER more so than cuSOLVER.

Rates are returned in FLOP/s and times in seconds.  The calibration
constants live in the Summit/Frontier presets.

Each GPU curve is written once, as a ``*_curve`` method in operators valid
for a Python number and for an ``int64`` array of positive extents alike
(the analytic model prices all factorization steps in one call); the
scalar methods add the ``<= 0 -> 0.0`` guards around the same expression,
so the executors' per-rank-step calls never touch NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import flops as fl


def _sat(x, half: float):
    """Saturating efficiency curve for x > 0: 0.5 at x=half, → 1."""
    return x / (x + half)


@dataclass(frozen=True)
class GpuKernelModel:
    """Per-GCD kernel rate model for one GPU architecture.

    All ``*_peak_tflops`` values are *effective kernel ceilings* (what the
    library achieves on ideal sizes), not theoretical peaks.
    """

    # mixed-precision GEMM (fp16 in, fp32 accumulate)
    gemm_peak_tflops: float
    gemm_b_half: float  # saturation half-point on the inner (B) dimension
    gemm_mn_half: float  # saturation half-point on min(m, n)
    gemm_roughness: float  # 0 = smooth (cuBLAS-like), >0 = rocBLAS-like
    # LDA pathology (Fig 7); stride 0 disables
    lda_penalty_stride: int
    lda_penalty_factor: float
    # fp32 GETRF of the diagonal block
    getrf_peak_tflops: float
    getrf_n_half: float
    # fp32 TRSM panel solves
    trsm_peak_tflops: float
    trsm_b_half: float
    trsm_n_half: float
    # fp64 GEMM (for the HPL baseline)
    fp64_gemm_peak_tflops: float
    fp64_gemm_b_half: float
    # memory system
    cast_bw_gbs: float  # HBM streaming bandwidth for CAST/TRANS_CAST
    h2d_bw_gbs: float  # host<->device transfer bandwidth per GCD
    kernel_launch_s: float = 4.0e-6
    # inner-dimension (k = B) macro-tile granularity: k values that are
    # not multiples lose a discrete step (rocBLAS MFMA tiling; part of
    # Fig 3's "highest performance only for a few matrix sizes").
    # 0 disables.
    gemm_k_align: int = 0
    gemm_k_misalign_factor: float = 1.0

    # -- GEMM ---------------------------------------------------------------

    def _gemm_texture(self, m, n, k):
        """Deterministic non-uniformity multiplier in (1-roughness, 1]."""
        if self.gemm_roughness <= 0.0:
            return 1.0
        # Tile misalignment: dimensions that are not multiples of the
        # library's macro-tile sizes lose efficiency.
        mis = 0.0
        for dim, q in ((m, 128), (n, 128), (k, 64)):
            mis += (dim % q) / q
        # Pseudo-random texture, stable in (m, n, k): the heat-map
        # "speckle" of Fig 3.
        h = ((m * 2654435761) ^ (n * 40503) ^ (k * 69069)) & 0xFFFFFFFF
        mis += ((h >> 7) & 1023) / 1023.0
        return 1.0 - self.gemm_roughness * (mis / 4.0)

    def _lda_penalty(self, lda: int) -> float:
        if (
            self.lda_penalty_stride > 0
            and lda >= self.lda_penalty_stride
            and lda % self.lda_penalty_stride == 0
        ):
            return self.lda_penalty_factor
        return 1.0

    def gemm_rate_curve(self, m, n, k, lda: int, mn):
        """GEMM rate for positive extents; the caller reduces ``mn = min(m, n)``."""
        eff = (
            _sat(k, self.gemm_b_half)
            * _sat(mn, self.gemm_mn_half)
            * self._gemm_texture(m, n, k)
            * self._lda_penalty(lda)
        )
        if self.gemm_k_align > 0 and k % self.gemm_k_align != 0:
            eff = eff * self.gemm_k_misalign_factor
        return self.gemm_peak_tflops * 1e12 * eff

    def gemm_time_curve(self, m, n, k, lda: int, mn):
        """GEMM seconds (incl. launch) for positive extents."""
        rate = self.gemm_rate_curve(m, n, k, lda, mn)
        return fl.gemm_flops(m, n, k) / rate + self.kernel_launch_s

    def gemm_rate(self, m: int, n: int, k: int, lda: int | None = None) -> float:
        """Mixed-precision GEMM rate (FLOP/s) for C(m×n) -= A(m×k) B(k×n)."""
        mn = min(m, n)
        if mn <= 0 or k <= 0:
            return 0.0
        return self.gemm_rate_curve(m, n, k, lda if lda is not None else 0, mn)

    def gemm_time(self, m: int, n: int, k: int, lda: int | None = None) -> float:
        """Seconds for one mixed-precision GEMM call (incl. launch)."""
        mn = min(m, n)
        if mn <= 0 or k <= 0:
            return 0.0
        return self.gemm_time_curve(m, n, k, lda if lda is not None else 0, mn)

    # -- GETRF ---------------------------------------------------------------

    def getrf_rate(self, n: int) -> float:
        """Unpivoted fp32 GETRF rate (FLOP/s) for an n×n diagonal block."""
        if n <= 0:
            return 0.0
        return self.getrf_peak_tflops * 1e12 * _sat(n, self.getrf_n_half)

    def getrf_time(self, n: int) -> float:
        """Seconds for one diagonal-block GETRF (incl. launch)."""
        if n <= 0:
            return 0.0
        return fl.getrf_flops(n) / self.getrf_rate(n) + self.kernel_launch_s

    # -- TRSM ---------------------------------------------------------------

    def trsm_rate_curve(self, b, nrhs):
        """TRSM rate for positive extents."""
        eff = _sat(b, self.trsm_b_half) * _sat(nrhs, self.trsm_n_half)
        return self.trsm_peak_tflops * 1e12 * eff

    def trsm_time_curve(self, b, nrhs):
        """TRSM seconds (incl. launch) for positive extents."""
        return fl.trsm_flops(b, nrhs) / self.trsm_rate_curve(b, nrhs) + self.kernel_launch_s

    def trsm_rate(self, b: int, nrhs: int) -> float:
        """fp32 TRSM rate (FLOP/s), b×b triangle against nrhs vectors."""
        if b <= 0 or nrhs <= 0:
            return 0.0
        return self.trsm_rate_curve(b, nrhs)

    def trsm_time(self, b: int, nrhs: int) -> float:
        """Seconds for one panel TRSM (incl. launch)."""
        if b <= 0 or nrhs <= 0:
            return 0.0
        return self.trsm_time_curve(b, nrhs)

    # -- fp64 GEMM (HPL baseline) --------------------------------------------

    def fp64_gemm_rate(self, m: int, n: int, k: int) -> float:
        """FP64 GEMM rate (FLOP/s) for the HPL baseline."""
        if min(m, n, k) <= 0:
            return 0.0
        eff = _sat(k, self.fp64_gemm_b_half) * _sat(min(m, n), self.gemm_mn_half)
        return self.fp64_gemm_peak_tflops * 1e12 * eff

    def fp64_gemm_time(self, m: int, n: int, k: int) -> float:
        """Seconds for one FP64 GEMM (HPL baseline)."""
        if min(m, n, k) <= 0:
            return 0.0
        return fl.gemm_flops(m, n, k) / self.fp64_gemm_rate(m, n, k)

    # -- memory movement -------------------------------------------------------

    def cast_time_curve(self, n_elems, src_bytes: int = 4, dst_bytes: int = 2):
        """CAST seconds (incl. launch) for a positive element count."""
        moved = n_elems * (src_bytes + dst_bytes)
        return moved / (self.cast_bw_gbs * 1e9) + self.kernel_launch_s

    def cast_time(self, n_elems: int, src_bytes: int = 4, dst_bytes: int = 2) -> float:
        """CAST/TRANS_CAST time: stream n_elems through HBM."""
        if n_elems <= 0:
            return 0.0
        return self.cast_time_curve(n_elems, src_bytes, dst_bytes)

    def h2d_time(self, nbytes: int) -> float:
        """Host-to-device (or device-to-host) transfer time per GCD."""
        if nbytes <= 0:
            return 0.0
        return nbytes / (self.h2d_bw_gbs * 1e9)


@dataclass(frozen=True)
class CpuKernelModel:
    """Per-rank CPU kernel rates for the iterative-refinement phase.

    GEMV and TRSV are memory-bandwidth bound; the model exposes effective
    GFLOP/s per MPI rank (i.e. the per-rank share of the socket's stream
    bandwidth converted at the kernel's arithmetic intensity).
    """

    gemv_gflops: float
    trsv_gflops: float
    #: on-the-fly LCG regeneration throughput (FP64 entries per second);
    #: the residual GEMV regenerates its block-column each iteration.
    regen_entries_per_s: float

    def gemv_time(self, m: int, n: int) -> float:
        """Seconds for a CPU GEMV of an m x n operand."""
        if m <= 0 or n <= 0:
            return 0.0
        return fl.gemv_flops(m, n) / (self.gemv_gflops * 1e9)

    def trsv_time(self, n: int) -> float:
        """Seconds for a CPU TRSV of size n."""
        if n <= 0:
            return 0.0
        return fl.trsv_flops(n) / (self.trsv_gflops * 1e9)

    def regen_time(self, n_entries: int) -> float:
        """Seconds to regenerate n_entries FP64 matrix entries (LCG)."""
        if n_entries <= 0:
            return 0.0
        return n_entries / self.regen_entries_per_s
