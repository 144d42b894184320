"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch a single base class.  Sub-hierarchies mirror the package
layout: configuration problems, numerical failures, communication-layer
violations, and simulation-engine faults each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination (grid, block size, machine spec...)."""


class NumericsError(ReproError, ArithmeticError):
    """Base class for numerical failures during factorization/refinement."""


class SingularMatrixError(NumericsError):
    """A (near-)zero pivot was encountered during unpivoted factorization."""


class PrecisionError(NumericsError):
    """A value cannot be represented in the requested reduced precision.

    Raised instead of silently mapping out-of-range FP64 values to
    ``inf`` when rounding operands to FP16 (the tensor-core input
    format caps at 65504).
    """


class SanitizerError(NumericsError):
    """A runtime precision contract was violated under ``REPRO_SANITIZE``.

    Raised by :mod:`repro.analyze.sanitize` when a BLAS-shim operand or
    result breaks the mixed-precision dtype/finiteness contracts the
    static ``precision-flow`` checker enforces structurally.
    """


class CommunicationError(ReproError, RuntimeError):
    """Base class for virtual-MPI protocol violations."""


class RankError(CommunicationError):
    """A rank index was outside the communicator."""


class DeadlockError(CommunicationError):
    """The SPMD scheduler detected that no rank can make progress."""


class StallError(DeadlockError):
    """A run stalled: blocked ranks were diagnosed instead of hanging.

    Raised by the engine when ranks remain blocked at the end of a run,
    and by the health watchdog (:mod:`repro.obs.health`) when the
    virtual clock blows past the modelled deadline.  Unlike the bare
    :class:`DeadlockError` message, the exception carries *structured*
    diagnosis: one dict per blocked rank naming the operation it is
    stuck in (decoded wire tag and phase for receives, member rank set
    and collective key for collectives).
    """

    def __init__(
        self,
        message: str,
        blocked: "list[dict] | None" = None,
        elapsed: float | None = None,
        cycle: "list[int] | None" = None,
    ) -> None:
        super().__init__(message)
        #: per-rank block diagnosis dicts (``rank``, ``state``, and the
        #: op-specific fields: ``src``/``dst``/``tag``/``phase``/``step``
        #: for receives, ``members``/``key``/``op``/``seq``/``arrived``
        #: for collectives)
        self.blocked = list(blocked or [])
        #: virtual clock at diagnosis time, if known
        self.elapsed = elapsed
        #: ranks on one wait-for cycle (each waits on the next, the last
        #: on the first); empty when the stall has no cycle
        self.cycle = list(cycle or [])


def describe_blocked(info: dict) -> str:
    """One :attr:`StallError.blocked` dict as a human-readable clause."""
    rank = info.get("rank")
    state = info.get("state")
    if state == "recv":
        return (
            f"rank {rank} blocked in recv from rank {info.get('src')} "
            f"(tag {info.get('tag')}, phase {info.get('phase')}"
            + (f", step {info['step']}" if info.get("step") is not None else "")
            + ")"
        )
    if state == "collective":
        return (
            f"rank {rank} blocked in {info.get('op')} "
            f"'{info.get('key')}' with members {info.get('members')} "
            f"(arrived: {info.get('arrived')})"
        )
    return f"rank {rank} blocked ({state})"


def describe_cycle(cycle: "list[int]") -> str:
    """A wait-for cycle as ``rank a -> rank b -> rank a``."""
    return " -> ".join(f"rank {r}" for r in [*cycle, cycle[0]])


class SimulationError(ReproError, RuntimeError):
    """Base class for discrete-event simulator faults."""


class EarlyTerminationError(SimulationError):
    """A monitored run was aborted by the progress watchdog.

    Mirrors the paper's best practice of terminating abnormal runs (e.g.
    fabric hangs) early to save node hours (Section VI-B).
    """

    def __init__(self, message: str, iteration: int | None = None) -> None:
        super().__init__(message)
        #: factorization step at which the run was aborted, if known
        self.iteration = iteration
