"""64-bit linear congruential generator and on-the-fly HPL-AI matrices.

The paper (Section III-C), following the Fugaku HPL-AI code, fills the
global matrix ``A`` with a 64-bit LCG because the generator can *jump
ahead* ``n`` steps in ``O(log n)`` time.  Any entry ``A[i, j]`` is then a
pure function of ``(i, j, seed)``, so every process can regenerate any
part of ``A`` on demand — which is how the FP64 residual is computed
during iterative refinement without ever storing the FP64 matrix.
"""

from repro.lcg.cache import (
    TileCache,
    clear_tile_cache,
    configure_tile_cache,
    tile_cache,
)
from repro.lcg.generator import (
    LCG_A,
    LCG_C,
    Lcg64,
    affine_compose,
    affine_power,
    states_at,
    states_progression,
)
from repro.lcg.matrix import HplAiMatrix, uniform_from_state

__all__ = [
    "LCG_A",
    "LCG_C",
    "Lcg64",
    "TileCache",
    "affine_compose",
    "affine_power",
    "clear_tile_cache",
    "configure_tile_cache",
    "states_at",
    "states_progression",
    "tile_cache",
    "HplAiMatrix",
    "uniform_from_state",
]
