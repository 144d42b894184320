"""The 2D process grid ``P = P_r × P_c``.

Each MPI rank is mapped to a coordinate ``(p_ir, p_ic)``; the diagonal
block ``A(k, k)`` at factorization step ``k`` is owned by process
``(k mod P_r, k mod P_c)`` (Algorithm 1's ``processmapping``).  Rank
numbering order ("column-major" in the paper's plots) decides which
ranks are node neighbours when no explicit node-local grid is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple

from repro.errors import ConfigurationError, RankError
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ProcessGrid:
    """A ``P_r × P_c`` grid of MPI ranks.

    Parameters
    ----------
    p_rows, p_cols:
        Grid extents.  The paper uses square grids (``P_r = P_c``) for
        the achievement runs but the code supports rectangles.
    order:
        Rank-numbering order: ``"col"`` (column-major; rank 0, 1, ...
        walk down the first process column — the paper's default) or
        ``"row"``.
    """

    p_rows: int
    p_cols: int
    order: str = "col"

    def __post_init__(self) -> None:
        check_positive_int(self.p_rows, "p_rows")
        check_positive_int(self.p_cols, "p_cols")
        if self.order not in ("col", "row"):
            raise ConfigurationError(
                f"order must be 'col' or 'row', got {self.order!r}"
            )

    @property
    def size(self) -> int:
        """Total rank count ``P = P_r * P_c``."""
        return self.p_rows * self.p_cols

    def rank_of(self, p_ir: int, p_ic: int) -> int:
        """Rank id of grid coordinate ``(p_ir, p_ic)``."""
        if not (0 <= p_ir < self.p_rows and 0 <= p_ic < self.p_cols):
            raise RankError(
                f"grid coordinate ({p_ir}, {p_ic}) outside "
                f"{self.p_rows}x{self.p_cols}"
            )
        if self.order == "col":
            return p_ic * self.p_rows + p_ir
        return p_ir * self.p_cols + p_ic

    def coords_of(self, rank: int) -> Tuple[int, int]:
        """Grid coordinate ``(p_ir, p_ic)`` of a rank id."""
        if not 0 <= rank < self.size:
            raise RankError(f"rank {rank} outside grid of size {self.size}")
        if self.order == "col":
            p_ic, p_ir = divmod(rank, self.p_rows)
        else:
            p_ir, p_ic = divmod(rank, self.p_cols)
        return p_ir, p_ic

    def diagonal_owner(self, k: int) -> Tuple[int, int]:
        """``processmapping(k)``: grid coordinates owning block ``A(k, k)``."""
        if k < 0:
            raise ConfigurationError(f"step index must be >= 0, got {k}")
        return k % self.p_rows, k % self.p_cols

    # Member scopes are asked for at every broadcast and collective and
    # depend on the (frozen) grid alone, so each is built once per grid.

    @cached_property
    def all_ranks(self) -> Tuple[int, ...]:
        """Every rank, ascending — the scope of whole-grid collectives.

        Every rank program shares this one tuple, so a run holds one
        ``P``-long member tuple rather than one per rank.
        """
        return tuple(range(self.size))

    @cached_property
    def _row_table(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(self.rank_of(r, c) for c in range(self.p_cols))
            for r in range(self.p_rows)
        )

    @cached_property
    def _col_table(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(self.rank_of(r, c) for r in range(self.p_rows))
            for c in range(self.p_cols)
        )

    def row_members(self, p_ir: int) -> Tuple[int, ...]:
        """Ranks of process row ``p_ir`` — scope of the U-panel broadcast."""
        if not 0 <= p_ir < self.p_rows:
            raise RankError(f"process row {p_ir} outside {self.p_rows}x{self.p_cols}")
        return self._row_table[p_ir]

    def col_members(self, p_ic: int) -> Tuple[int, ...]:
        """Ranks of process column ``p_ic`` — scope of the L-panel broadcast."""
        if not 0 <= p_ic < self.p_cols:
            raise RankError(f"process column {p_ic} outside {self.p_rows}x{self.p_cols}")
        return self._col_table[p_ic]

    def iter_ranks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(rank, p_ir, p_ic)`` for every rank, in rank order."""
        for rank in range(self.size):
            p_ir, p_ic = self.coords_of(rank)
            yield rank, p_ir, p_ic

    def __str__(self) -> str:
        return f"{self.p_rows}x{self.p_cols} ({self.order}-major)"
