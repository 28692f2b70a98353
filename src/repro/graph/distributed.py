"""Distribution helpers for graphs on the SPMD virtual machine.

Simulator memory idiom
----------------------
A real cluster holds ``P`` rank-local slices whose union is the graph;
aggregate memory is O(n + m).  Our virtual ranks live in one process,
so per-rank *copies* of shared read-only structures would inflate
memory by P×.  The convention used by every distributed algorithm in
this library is therefore:

* mutable per-rank state (owned coordinates, owned labels, ghost
  buffers) is genuinely rank-local and sized O(n/P);
* immutable structures (the CSR arrays of the current level's graph,
  ownership maps) are passed by *reference* through collectives wrapped
  in :class:`Shared`, which the engine's payload delivery and reduction
  copies deliberately pass through.  Mutating the payload of a ``Shared`` is a bug.

Communication *costs* are always charged for the honest distributed
payload (the arrays a real implementation would move), either because
the payload really is the rank-local slice, or through the explicit
``words=`` override documented at each call site.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph

__all__ = [
    "Shared",
    "block_starts",
    "block_of",
    "owner_by_block",
    "adjacency_slots",
    "block_adjacency_slots",
]


class Shared:
    """Reference wrapper: payloads the engine must not deep-copy.

    Use only for immutable data (see module docstring).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Shared({type(self.value).__name__})"


def block_starts(n: int, p: int) -> np.ndarray:
    """Start offsets of a near-equal block distribution (length p+1).

    Rank ``r`` owns global ids ``[starts[r], starts[r+1])``; the first
    ``n % p`` ranks get one extra element.
    """
    if p < 1:
        raise GraphError("block distribution needs p >= 1")
    base, extra = divmod(n, p)
    sizes = np.full(p, base, dtype=np.int64)
    sizes[:extra] += 1
    starts = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts


def block_of(starts: np.ndarray, rank: int) -> Tuple[int, int]:
    """Owned id range of ``rank``."""
    return int(starts[rank]), int(starts[rank + 1])


def owner_by_block(starts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Owning rank of each global id under a block distribution."""
    return np.searchsorted(starts, np.asarray(ids), side="right") - 1


def block_adjacency_slots(
    graph: CSRGraph, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened adjacency of the contiguous vertex block ``[lo, hi)``.

    Same contract as :func:`adjacency_slots` but for the block
    distribution every rank-local kernel actually uses: the slot range
    is one CSR slice, so ``dst`` and ``w`` are *views* of the graph's
    arrays (zero copy, zero gather) and only ``src_pos`` is materialised.
    """
    if not (0 <= lo <= hi <= graph.num_vertices):
        raise GraphError(f"block [{lo}, {hi}) out of range")
    deg = np.diff(graph.indptr[lo : hi + 1])
    src_pos = np.repeat(np.arange(hi - lo, dtype=np.int64), deg)
    sl = slice(int(graph.indptr[lo]), int(graph.indptr[hi]))
    return src_pos, lo + src_pos, graph.indices[sl], graph.ewgt[sl]


def adjacency_slots(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened adjacency of a vertex subset.

    Returns ``(src_pos, src, dst, w)`` where ``src_pos`` indexes into
    ``vertices`` (i.e. a *local* row id), ``src``/``dst`` are global
    endpoint ids and ``w`` the edge weights — the working arrays of
    every per-rank vectorised kernel (forces, gains, matching).

    Contiguous ascending id ranges (the block-distribution common case)
    are detected and served by :func:`block_adjacency_slots`, which
    slices the CSR arrays directly instead of gathering per-slot.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    k = vertices.shape[0]
    if k and vertices[-1] - vertices[0] + 1 == k and bool(
        np.all(np.diff(vertices) == 1)
    ):
        return block_adjacency_slots(
            graph, int(vertices[0]), int(vertices[-1]) + 1
        )
    deg = graph.indptr[vertices + 1] - graph.indptr[vertices]
    total = int(deg.sum())
    src_pos = np.repeat(np.arange(k), deg)
    if total == 0:
        e = np.zeros(0, dtype=np.int64)
        return src_pos, e, e.copy(), np.zeros(0)
    base = np.repeat(graph.indptr[vertices], deg)
    offset = np.arange(total) - np.repeat(np.cumsum(deg) - deg, deg)
    slots = base + offset
    return src_pos, vertices[src_pos], graph.indices[slots], graph.ewgt[slots]
