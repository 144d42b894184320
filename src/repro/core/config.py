"""Benchmark run configuration: the paper's input parameters plus the
tuning knobs of Sections IV-V."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.broadcasts import BCAST_NAMES
from repro.errors import ConfigurationError
from repro.grid.block_cyclic import BlockCyclicDim
from repro.grid.node_grid import NodeGrid
from repro.grid.process_grid import ProcessGrid
from repro.machine.spec import MachineSpec
from repro.util.validation import check_positive_int


@dataclass
class BenchmarkConfig:
    """Everything that defines one HPL-AI run.

    The four inputs of Algorithm 1 — ``N``, ``B``, ``P_r``, ``P_c`` — plus
    the machine and the communication/overlap tuning switches studied in
    the evaluation.

    Parameters
    ----------
    n:
        Global matrix dimension (must be a multiple of ``block * p_rows``
        and ``block * p_cols``; the paper sizes N as ``N_L × P_r``).
    block:
        Block size B.
    machine:
        Summit or Frontier preset (or a custom :class:`MachineSpec`).
    p_rows, p_cols:
        Process grid.
    q_rows, q_cols:
        Node-local grid; defaults to column-major placement
        (``Q_r = gcds_per_node, Q_c = 1``).
    bcast_algorithm:
        Panel broadcast strategy, one of :data:`repro.broadcasts.BCAST_NAMES`.
    lookahead:
        Overlap next-iteration panel work with the trailing GEMM.
    gpu_aware / port_binding:
        Findings 5 and 7 switches.
    seed:
        LCG seed for the matrix.
    ir_max_iters / ir_fixed_iters:
        Iterative-refinement bounds: exact runs stop at convergence (or
        ``ir_max_iters``); phantom runs charge exactly ``ir_fixed_iters``.
    """

    n: int
    block: int
    machine: MachineSpec
    p_rows: int
    p_cols: int
    q_rows: Optional[int] = None
    q_cols: Optional[int] = None
    bcast_algorithm: str = "bcast"
    #: algorithm for the diagonal-block broadcasts; None (default) uses
    #: the panel algorithm — the ring implementations replace all four
    #: synchronized broadcasts of the critical path (Section IV-B).
    diag_algorithm: Optional[str] = None
    lookahead: bool = True
    gpu_aware: bool = True
    port_binding: bool = True
    seed: int = 42
    ir_max_iters: int = 50
    ir_fixed_iters: int = 3
    ring_segments: Optional[int] = None
    #: post-factorization solver: "ir" (the paper's classical iterative
    #: refinement, Algorithm 1) or "gmres" (the HPL-AI reference's
    #: preconditioned GMRES).
    refinement_solver: str = "ir"
    #: all-reduce implementation for the refinement reductions: None =
    #: the engine's modelled library collective; "ring" (bandwidth-
    #: optimal) or "doubling" (latency-optimal) run explicitly over
    #: point-to-point messages.
    allreduce_algorithm: Optional[str] = None
    #: panel storage precision for the trailing-matrix GEMM: "fp16"
    #: (tensor-core HALF, the paper's choice) or "bf16" (bfloat16 —
    #: wider exponent range, fewer mantissa bits, more refinement).
    panel_precision: str = "fp16"
    #: broadcast progression model: "routed" — relays advance in the
    #: background while ranks compute (hardware/progress-thread MPI, what
    #: look-ahead needs); "inband" — relay forwarding happens inside rank
    #: programs (an MPI library with no asynchronous progression).
    #: "inband" requires lookahead=False.
    progression: str = "routed"

    grid: ProcessGrid = field(init=False)
    node_grid: NodeGrid = field(init=False)
    row_dim: BlockCyclicDim = field(init=False)
    col_dim: BlockCyclicDim = field(init=False)

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.block, "block")
        if self.bcast_algorithm not in BCAST_NAMES:
            raise ConfigurationError(
                f"unknown bcast algorithm {self.bcast_algorithm!r}"
            )
        if self.diag_algorithm is None:
            self.diag_algorithm = self.bcast_algorithm
        if self.diag_algorithm not in BCAST_NAMES:
            raise ConfigurationError(
                f"unknown diag algorithm {self.diag_algorithm!r}"
            )
        self.grid = ProcessGrid(self.p_rows, self.p_cols, order="col")
        q = self.machine.node.gcds_per_node
        if self.q_rows is not None or self.q_cols is not None:
            q_rows = self.q_rows if self.q_rows is not None else q // self.q_cols
            q_cols = self.q_cols if self.q_cols is not None else q // q_rows
            if q_rows * q_cols != q:
                raise ConfigurationError(
                    f"node-local grid {q_rows}x{q_cols} does not match "
                    f"{q} GCDs per node"
                )
        else:
            q_rows, q_cols = self._default_node_grid(q)
        self.q_rows, self.q_cols = q_rows, q_cols
        self.node_grid = NodeGrid(self.grid, q_rows, q_cols)
        self.row_dim = BlockCyclicDim(self.n, self.block, self.p_rows)
        self.col_dim = BlockCyclicDim(self.n, self.block, self.p_cols)
        if self.ir_max_iters < 1 or self.ir_fixed_iters < 1:
            raise ConfigurationError("IR iteration bounds must be >= 1")
        if self.refinement_solver not in ("ir", "gmres"):
            raise ConfigurationError(
                f"refinement_solver must be 'ir' or 'gmres', got "
                f"{self.refinement_solver!r}"
            )
        if self.allreduce_algorithm not in (None, "ring", "doubling"):
            raise ConfigurationError(
                f"allreduce_algorithm must be None, 'ring' or 'doubling', "
                f"got {self.allreduce_algorithm!r}"
            )
        if self.panel_precision not in ("fp16", "bf16"):
            raise ConfigurationError(
                f"panel_precision must be 'fp16' or 'bf16', got "
                f"{self.panel_precision!r}"
            )
        if self.progression not in ("routed", "inband"):
            raise ConfigurationError(
                f"progression must be 'routed' or 'inband', got "
                f"{self.progression!r}"
            )
        if self.progression == "inband" and self.lookahead:
            raise ConfigurationError(
                "in-band progression cannot overlap broadcasts with the "
                "trailing GEMM; use lookahead=False with progression='inband'"
            )

    def _default_node_grid(self, q: int):
        """Pick a column-major-leaning Q_r×Q_c that tiles the grid.

        Prefers the tallest valid tile (the paper's default placement is
        column-major, i.e. Q_r = Q, Q_c = 1).  Grids smaller than a node
        fall back to one rank per node — conservative for communication.
        """
        for q_rows in range(min(q, self.p_rows), 0, -1):
            if q % q_rows != 0:
                continue
            q_cols = q // q_rows
            if self.p_rows % q_rows == 0 and self.p_cols % q_cols == 0:
                return q_rows, q_cols
        return 1, 1

    # -- derived quantities ---------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return self.grid.size

    @property
    def num_blocks(self) -> int:
        """Factorization steps ``n_b = N / B``."""
        return self.n // self.block

    @property
    def local_rows(self) -> int:
        """``N_Lr``, local matrix rows per rank."""
        return self.row_dim.local_n

    @property
    def local_cols(self) -> int:
        """``N_Lc``, local matrix columns per rank."""
        return self.col_dim.local_n

    @property
    def local_fp32_bytes(self) -> int:
        return self.local_rows * self.local_cols * 4

    def check_gpu_memory(self) -> None:
        """Raise if the FP32 local matrix plus panel buffers overflow a GCD."""
        budget = self.machine.node.gpu.memory_gib * 2**30
        panels = 2 * (self.local_rows + self.local_cols) * self.block * 2
        needed = self.local_fp32_bytes + panels + self.block * self.block * 4
        if needed > budget:
            raise ConfigurationError(
                f"local problem needs {needed / 2**30:.1f} GiB but the "
                f"{self.machine.node.gpu.model} GCD has "
                f"{budget / 2**30:.0f} GiB"
            )

    def describe(self) -> dict:
        """Key configuration facts as a plain dict."""
        return {
            "machine": self.machine.name,
            "N": self.n,
            "B": self.block,
            "grid": f"{self.p_rows}x{self.p_cols}",
            "node_grid": f"{self.q_rows}x{self.q_cols}",
            "N_L": f"{self.local_rows}x{self.local_cols}",
            "bcast": self.bcast_algorithm,
            "allreduce": self.allreduce_algorithm,
            "progression": self.progression,
            "lookahead": self.lookahead,
            "gpu_aware": self.gpu_aware,
            "port_binding": self.port_binding,
            "GCDs": self.num_ranks,
            "nodes": self.node_grid.num_nodes,
        }
