"""HPL-AI submission-rule verification and run records.

The benchmark result only counts if the refined solution passes the
HPL-style acceptance test.  This module implements the checks as the
rules state them and produces a submission-style record:

- **accuracy**: the scaled residual

      ||A x - b||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * N) < 16

  evaluated in FP64 with the matrix regenerated from the generator in
  one streaming pass of row chunks: each chunk yields its slice of
  ``A x`` and its row-abs-sums for ``||A||_inf``, and is generated
  outside the LCG tile cache, so the check never reads the solver's
  cached values (and leaves no entry behind);
- **flop accounting**: the reported rate must use
  ``(2/3 N^3 + 3/2 N^2) / t`` regardless of the precisions used;
- **record**: the fields an HPL-AI submission reports (N, B, grid,
  achieved rate, residual, refinement count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.driver import RunResult
from repro.errors import ConfigurationError
from repro.lcg.matrix import HplAiMatrix
from repro.precision.types import FP64
from repro.util import flops as fl

#: HPL's acceptance threshold on the scaled residual.
ACCEPTANCE_THRESHOLD = 16.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the acceptance test on a solved system."""

    n: int
    residual_inf: float
    a_norm_inf: float
    x_norm_inf: float
    b_norm_inf: float
    scaled_residual: float
    passed: bool

    def describe(self) -> str:
        """One-line PASSED/FAILED summary of the acceptance test."""
        verdict = "PASSED" if self.passed else "FAILED"
        return (
            f"||Ax-b||_inf = {self.residual_inf:.3e}, scaled residual = "
            f"{self.scaled_residual:.4f} (< {ACCEPTANCE_THRESHOLD:g}) -> "
            f"{verdict}"
        )


#: rows regenerated per chunk of the acceptance pass (4 MiB of FP64 at
#: N = 2048, 8 MiB at the FP16-safe cap)
_CHUNK_ROWS = 256


def verify_solution(
    x: np.ndarray,
    matrix: Optional[HplAiMatrix] = None,
    n: Optional[int] = None,
    seed: int = 42,
) -> VerificationReport:
    """Run the HPL acceptance test on a solution vector.

    Provide either ``matrix`` or ``(n, seed)`` to regenerate it.
    """
    if matrix is None:
        if n is None:
            raise ConfigurationError("pass either matrix or n")
        matrix = HplAiMatrix(n, seed)
    if x.shape != (matrix.n,):
        raise ConfigurationError(
            f"x has shape {x.shape}, expected ({matrix.n},)"
        )
    b = matrix.rhs()
    # One streamed pass over A: each uncached chunk of rows gives its
    # slice of A @ x, then (abs taken in place) its row sums.
    source = HplAiMatrix(matrix.n, matrix.seed, matrix.a, matrix.c,
                         use_cache=False)
    ax = np.empty(matrix.n)
    a_inf = 0.0
    for lo in range(0, matrix.n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, matrix.n)
        rows = source.block(lo, hi, 0, matrix.n)
        ax[lo:hi] = rows @ x
        np.abs(rows, out=rows)
        a_inf = max(a_inf, float(np.max(rows.sum(axis=1))))
    r_inf = float(np.max(np.abs(ax - b)))
    x_inf = float(np.max(np.abs(x)))
    b_inf = float(np.max(np.abs(b)))
    denom = FP64.eps * (a_inf * x_inf + b_inf) * matrix.n
    scaled = r_inf / denom if denom > 0 else float("inf")
    return VerificationReport(
        n=matrix.n,
        residual_inf=r_inf,
        a_norm_inf=a_inf,
        x_norm_inf=x_inf,
        b_norm_inf=b_inf,
        scaled_residual=scaled,
        passed=scaled < ACCEPTANCE_THRESHOLD,
    )


def submission_record(result: RunResult) -> Dict[str, object]:
    """The fields an HPL-AI submission reports, from a RunResult.

    For exact runs the accuracy check is re-evaluated from scratch (the
    submission rules require verification, not trust).
    """
    cfg = result.config
    record: Dict[str, object] = {
        "system": cfg.machine.name,
        "N": cfg.n,
        "NB": cfg.block,
        "P x Q": f"{cfg.p_rows} x {cfg.p_cols}",
        "GCDs": cfg.num_ranks,
        "time_s": result.elapsed,
        "flops_counted": fl.hpl_ai_flops(cfg.n),
        "rate_flops": fl.hpl_ai_flops(cfg.n) / result.elapsed,
        "refinement_iterations": result.ir_iterations,
    }
    if result.exact and result.x is not None:
        report = verify_solution(result.x, n=cfg.n, seed=cfg.seed)
        record["scaled_residual"] = report.scaled_residual
        record["verified"] = report.passed
    else:
        record["scaled_residual"] = None
        record["verified"] = None  # timing-only runs carry no data
    return record


def check_flop_accounting(result: RunResult) -> bool:
    """Assert the reported rate uses the HPL-AI flop count exactly."""
    expected = fl.per_gcd_gflops(
        result.config.n, result.config.num_ranks, result.elapsed
    )
    return bool(np.isclose(expected, result.gflops_per_gcd, rtol=1e-12))
