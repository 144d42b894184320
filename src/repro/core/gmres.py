"""GMRES-based refinement: the official HPL-AI solver variant.

The paper uses classical iterative refinement (Wilkinson-style, its
Algorithm 1 lines 33-49); the HPL-AI/HPL-MxP *reference* implementation
instead runs preconditioned GMRES with the low-precision LU factors as
the preconditioner.  Both recover FP64 accuracy from the FP16/FP32
factorization; GMRES is more robust when the factors are rougher.  This
module provides the GMRES option so the two can be compared (see the
``refinement_solver`` switch on :class:`repro.core.config.BenchmarkConfig`).

Formulation: left-preconditioned GMRES(m) on

    M^{-1} A d = M^{-1} r,      M = L~ U~  (the mixed-precision factors)

run on the *correction* equation, after which ``x <- x + d``.  Vectors
are kept replicated (as in the IR path); the two distributed pieces are

- the matvec ``A v`` — on-the-fly regenerated tiles + Allreduce (the
  same pattern as the residual GEMV), and
- the preconditioner solve — the distributed blocked triangular sweeps
  shared with classical IR.

The Arnoldi recurrence, Givens rotations and the small least-squares
solve are computed redundantly on every rank (they are O(m^2) scalars),
which keeps them deterministic and communication-free.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.comm.vmpi import RankComm
from repro.core.config import BenchmarkConfig
from repro.core.executors import ExecutorBase
from repro.core.refine import triangular_sweep
from repro.simulate.events import Compute
from repro.simulate.phantom import PhantomArray

#: Krylov dimension before restart; HPL-AI reference uses ~50, but the
#: well-conditioned benchmark matrix converges in a handful.
DEFAULT_RESTART = 10


def _apply_preconditioner(cfg, ex, comm, rhs, iteration, everyone):
    """``M^{-1} rhs`` via the distributed forward+backward sweeps."""
    yield from triangular_sweep(cfg, ex, comm, rhs, lower=True,
                                iteration=iteration)
    wp, secs = ex.ir_solution_partial()
    if secs:
        yield Compute("ir_gemv", secs)
    w = yield from comm.allreduce(wp, everyone)
    yield from triangular_sweep(cfg, ex, comm, w, lower=False,
                                iteration=iteration)
    zp, _ = ex.ir_solution_partial()
    z = yield from comm.allreduce(zp, everyone)
    return z


def _matvec(ex, comm, v, everyone):
    """Replicated ``A @ v`` with distributed regeneration."""
    partial, secs = ex.ir_matvec_partial(v)
    yield Compute("gemv", secs)
    result = yield from comm.allreduce(partial, everyone)
    return result


def _is_phantom(obj: Any) -> bool:
    return isinstance(obj, PhantomArray) or obj is None


def gmres_refinement_phase(
    cfg: BenchmarkConfig,
    ex: ExecutorBase,
    comm: RankComm,
    restart: int = DEFAULT_RESTART,
):
    """Refine the factored solution with preconditioned GMRES.

    Same contract as :func:`repro.core.refine.refinement_phase`: yields
    engine ops, returns ``{"converged", "iterations"}`` where
    ``iterations`` counts matvec/preconditioner applications.
    """
    everyone = cfg.grid.all_ranks
    secs = ex.ir_setup()
    yield Compute("ir_setup", secs)

    sweep_counter = [1 << 16]  # distinct tag window from classical IR

    def next_sweep_id() -> int:
        sweep_counter[0] += 1
        return sweep_counter[0]

    converged = False
    applications = 0
    outer = 0
    while applications < cfg.ir_max_iters:
        # True residual r = b - A x (checks convergence, restarts Krylov).
        partial, secs = ex.ir_residual_partial()
        yield Compute("gemv", secs)
        r = yield from comm.allreduce(partial, everyone)
        if ex.ir_converged(r):
            converged = True
            break
        outer += 1

        # z0 = M^{-1} r seeds the Krylov space.
        z0 = yield from _apply_preconditioner(
            cfg, ex, comm, r, next_sweep_id(), everyone
        )
        applications += 1
        if _is_phantom(z0):
            # Phantom runs: charge a fixed Krylov depth per outer cycle.
            for _ in range(min(restart, 2)):
                _ = yield from _matvec(ex, comm, z0, everyone)
                _ = yield from _apply_preconditioner(
                    cfg, ex, comm, z0, next_sweep_id(), everyone
                )
                applications += 1
            secs = ex.ir_apply_correction(z0)
            yield Compute("ir_update", secs)
            if ex.ir_converged(z0):
                converged = True
                break
            continue

        beta = float(np.linalg.norm(z0))
        if beta == 0.0:
            converged = True
            break
        basis: List[np.ndarray] = [z0 / beta]
        h = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        m_used = 0
        for j in range(restart):
            if applications >= cfg.ir_max_iters:
                break
            av = yield from _matvec(ex, comm, basis[j], everyone)
            w = yield from _apply_preconditioner(
                cfg, ex, comm, av, next_sweep_id(), everyone
            )
            applications += 1
            # Modified Gram-Schmidt.
            for i in range(j + 1):
                h[i, j] = float(np.dot(basis[i], w))
                w = w - h[i, j] * basis[i]
            wnorm = float(np.linalg.norm(w))
            h[j + 1, j] = wnorm
            # Apply the accumulated Givens rotations to the new column.
            for i in range(j):
                tmp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = tmp
            denom = float(np.hypot(h[j, j], h[j + 1, j]))
            if denom == 0.0:
                m_used = j
                break
            cs[j] = h[j, j] / denom
            sn[j] = h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            m_used = j + 1
            # The rotated g[j+1] is the preconditioned-residual estimate:
            # a cheap inner stopping test before the (expensive) true
            # residual check of the next outer cycle.
            if abs(g[j + 1]) < 1e-3 * beta or wnorm == 0.0:
                break
            basis.append(w / wnorm)
        if m_used == 0:
            break
        # Solve the small triangular system and form the correction.
        y = np.zeros(m_used)
        for i in range(m_used - 1, -1, -1):
            y[i] = (g[i] - h[i, i + 1 : m_used] @ y[i + 1 : m_used]) / h[i, i]
        d = np.zeros(cfg.n)
        for i in range(m_used):
            d += y[i] * basis[i]
        secs = ex.ir_apply_correction(d)
        yield Compute("ir_update", secs)
    return {"converged": converged, "iterations": applications}
