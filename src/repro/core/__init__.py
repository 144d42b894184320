"""The HPL-AI benchmark core: distributed mixed-precision LU + IR.

This package contains the paper's Algorithm 1 — the GPU-centric
right-looking block LU factorization in FP16/FP32 with look-ahead, and
the FP64 iterative refinement with on-the-fly matrix regeneration — as
engine-agnostic rank programs, plus the exact (real-data) and phantom
(timing-only) executors they run against, and the top-level drivers.
The package imports nothing, so pricing a config loads none of them.
"""
