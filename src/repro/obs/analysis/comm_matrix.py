"""Rank-pair communication matrix from engine transfer spans.

Every point-to-point transfer the engine models emits an ``xfer`` span
on the *sender's* lane with attrs ``{dst, bytes, intra, [tag]}``.
Aggregating those gives the classic communication matrix — bytes and
message counts per (src, dst) pair — plus a per-phase split via the
wire tag (diag broadcast vs panel broadcast vs refinement traffic),
and an intra/inter-node split via the ``intra`` flag.  On the paper's
machines this is how you see the broadcast algorithm's shape: a
binomial tree concentrates traffic on low ranks, the modified rings
spread it along the neighbour diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.obs.analysis.loaders import ProfileInput, distinct_rows


@dataclass
class CommMatrix:
    """Aggregated point-to-point traffic for one trace."""

    num_ranks: int
    bytes_by_pair: Dict[Tuple[int, int], int] = field(default_factory=dict)
    msgs_by_pair: Dict[Tuple[int, int], int] = field(default_factory=dict)
    bytes_by_phase: Dict[str, int] = field(default_factory=dict)
    intra_bytes: int = 0
    inter_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_pair.values())

    @property
    def total_messages(self) -> int:
        return sum(self.msgs_by_pair.values())

    def matrix(self) -> List[List[int]]:
        """Dense bytes matrix, ``m[src][dst]``."""
        m = [[0] * self.num_ranks for _ in range(self.num_ranks)]
        for (src, dst), b in self.bytes_by_pair.items():
            if 0 <= src < self.num_ranks and 0 <= dst < self.num_ranks:
                m[src][dst] = b
        return m

    def top_pairs(self, n: int = 10) -> List[Tuple[int, int, int, int]]:
        """Heaviest (src, dst, bytes, msgs) pairs, descending by bytes."""
        pairs = sorted(self.bytes_by_pair.items(), key=lambda kv: -kv[1])
        return [
            (src, dst, b, self.msgs_by_pair.get((src, dst), 0))
            for (src, dst), b in pairs[:n]
        ]


def comm_matrix(spans, num_ranks: int) -> CommMatrix:
    """Build the communication matrix from a span set (a
    :class:`~repro.obs.analysis.loaders.ProfileInput`, a tracer or a
    list of spans)."""
    t = ProfileInput.of(spans)
    at = np.flatnonzero(t.xfers)
    ids, names = t.phases
    # Sum per distinct (src, dst, phase, intra), then fill the dicts in
    # first-seen order — the order the per-span loop inserted keys in.
    first, kind_of = distinct_rows(t.rank[at], t.x_dst[at], ids[at], t.x_intra[at])
    size = np.zeros(len(first), dtype=np.int64)
    np.add.at(size, kind_of, t.x_bytes[at])
    msgs = np.bincount(kind_of, minlength=len(first))
    cm = CommMatrix(num_ranks=num_ranks)
    for k in np.argsort(first).tolist():
        i = at[first[k]]
        nbytes, pair, phase = int(size[k]), (int(t.rank[i]), int(t.x_dst[i])), names[ids[i]]
        cm.bytes_by_pair[pair] = cm.bytes_by_pair.get(pair, 0) + nbytes
        cm.msgs_by_pair[pair] = cm.msgs_by_pair.get(pair, 0) + int(msgs[k])
        cm.bytes_by_phase[phase] = cm.bytes_by_phase.get(phase, 0) + nbytes
        if t.x_intra[i]:
            cm.intra_bytes += nbytes
        else:
            cm.inter_bytes += nbytes
    return cm
