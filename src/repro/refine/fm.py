"""Fiduccia–Mattheyses bisection refinement.

The paper applies FM [7] in two places: the strip refinement of
ScalaPart ("such refinement is known to reduce the size of the edge
separator", §3) and inside the multilevel baselines (ParMetis/Pt-Scotch
refine every uncoarsening level with FM-family passes).

This implementation is *boundary FM* with balance constraints:

* the gain of moving ``v`` to the other side is ``ED(v) − ID(v)``
  (external minus internal incident edge weight);
* candidates start at the cut boundary and grow as moves create new
  boundary vertices — interior vertices are never examined, so the
  scalar loop of a pass is near ``O(cut · log n)`` instead of
  ``O(n log n)``;
* a pass tentatively moves vertices in best-gain-first order (each
  vertex at most once per pass), tracking the best prefix that satisfies
  the balance constraint, then rolls back to it;
* gains live in a lazy max-heap (stale entries are skipped on pop),
  which supports the float edge weights produced by contraction without
  the integer-bucket restriction of the original FM;
* the pass starts from vectorised gains and boundary, then runs as a
  scalar loop over Python lists.

``movable`` restricts moves to a vertex subset — exactly what the strip
refinement needs (only strip vertices may move; the rest of the graph
is frozen but still contributes to gains through its edges).  The pass
then sets up only the movable rows and their adjacency slots, in a
local id space (see :func:`_fm_pass`), so a whole pass is near
``O(strip · log n)``, and the strip is a small multiple of the cut.
What stays ``O(n)`` per pass is three vectorised scans (the mask, the
global-to-local id map and the side-1 weight sum), no per-vertex
Python work.  Without a mask the set-up covers every slot, as a k-way
pair refinement, where every vertex may move, needs anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CSRGraph
from ..graph.distributed import adjacency_slots
from ..graph.partition import Bisection

__all__ = ["FMResult", "fm_refine"]


@dataclass(frozen=True)
class FMResult:
    """Outcome of :func:`fm_refine`.

    The cuts are computed on first read: a k-way pair refinement reads
    only the sides, and each cut is a scan of every adjacency slot.
    """

    bisection: Bisection
    start: Bisection
    passes: int
    moves: int

    @cached_property
    def initial_cut(self) -> float:
        return self.start.cut_weight

    @cached_property
    def final_cut(self) -> float:
        return self.bisection.cut_weight

    @property
    def improvement(self) -> float:
        return self.initial_cut - self.final_cut


def fm_refine(
    bisection: Bisection,
    max_imbalance: float = 0.05,
    max_passes: int = 8,
    movable: Optional[np.ndarray] = None,
    stall_limit: Optional[int] = None,
) -> FMResult:
    """Refine a bisection with FM passes.

    Parameters
    ----------
    max_imbalance:
        allowed ``imbalance`` of the result (see
        :func:`repro.graph.partition.imbalance`).  If the input is
        *more* unbalanced than this, moves that reduce imbalance are
        preferred until the constraint is met.
    max_passes:
        passes run until one yields no improvement (at most this many).
    movable:
        boolean mask of vertices allowed to move (default: all).
    stall_limit:
        abandon a pass after this many consecutive non-improving moves
        (default ``max(64, n // 50)``); bounds pass cost on large graphs.

    Raises :class:`PartitionError` for a ``movable`` mask of the wrong
    shape, a negative or non-finite ``max_imbalance``, a negative
    ``max_passes`` or a ``stall_limit`` below 1.
    """
    g = bisection.graph
    n = g.num_vertices
    if movable is not None:
        movable = np.asarray(movable, dtype=bool)
        if movable.shape != (n,):
            raise PartitionError("movable mask must have one entry per vertex")
    if not (math.isfinite(max_imbalance) and max_imbalance >= 0):
        raise PartitionError(
            f"max_imbalance must be finite and >= 0, got {max_imbalance}"
        )
    if max_passes < 0:
        raise PartitionError(f"max_passes must be >= 0, got {max_passes}")
    if stall_limit is None:
        stall_limit = max(64, n // 50)
    elif stall_limit < 1:
        raise PartitionError(f"stall_limit must be >= 1, got {stall_limit}")

    side = bisection.side.astype(np.int8).copy()
    indptr, indices, ewgt, vwgt = g.indptr, g.indices, g.ewgt, g.vwgt
    total_w = g.total_vertex_weight
    w_limit = (1.0 + max_imbalance) * total_w / 2.0

    total_moves = 0
    passes = 0

    for _ in range(max_passes):
        passes += 1
        improved = _fm_pass(
            g, side, indptr, indices, ewgt, vwgt, total_w, w_limit,
            movable, stall_limit,
        )
        total_moves += improved[1]
        if improved[0] <= 1e-12:
            break

    return FMResult(
        bisection=Bisection(g, side),
        start=bisection,
        passes=passes,
        moves=total_moves,
    )


def _gains(g: CSRGraph, side: np.ndarray) -> np.ndarray:
    """ED − ID for every vertex (vectorised)."""
    src = g.edge_sources()
    ext = side[src] != side[g.indices]
    signed = np.where(ext, g.ewgt, -g.ewgt)
    return np.bincount(src, weights=signed, minlength=g.num_vertices)


def _fm_pass(
    g, side, indptr, indices, ewgt, vwgt, total_w, w_limit, movable, stall_limit
):
    """One FM pass; mutates ``side`` in place.

    Returns ``(improvement, accepted_moves)``.

    The pass works in a local id space: the rows that may move, in
    ascending global order (every vertex when ``movable`` is None), so
    its set-up — gains, boundary and the side/gain/stamp/lock lists —
    touches only those rows and their adjacency slots.  A neighbour
    outside the row set maps to the sentinel id ``m``, whose lock is
    set, so the gain update skips it exactly as it skips a moved
    vertex (a frozen vertex's gain is never read).  Local ids keep the
    global order, so the heap pops in the same total order on
    ``(-gain, v, stamp)``, and each gain is the same sequential sum
    over the row's slots, so the moves are those of a pass over every
    vertex.  Kept moves are written back by global id.

    Gain, side, stamp and lock live in Python lists for the pass and
    the heap holds Python scalars: the pass is one scalar loop, and
    indexing a list is several times cheaper than indexing a numpy
    array.  Without a mask the vertex weights stay numpy: they are read
    once per pop, and converting all ``n`` would cost more than the
    pops.
    """
    if movable is None:
        rows = None
        m = g.num_vertices
        lptr, nbr, wts = indptr, indices, ewgt
        src = g.edge_sources()
        ext = side[src] != side[indices]
        sd = side.tolist()
        vw = vwgt
    else:
        rows = np.flatnonzero(movable)
        m = rows.shape[0]
        src, _, dst, wts = adjacency_slots(g, rows)
        lptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(indptr[rows + 1] - indptr[rows], out=lptr[1:])
        row_side = side[rows]
        ext = row_side[src] != side[dst]
        local = np.full(g.num_vertices, m, dtype=np.int64)
        local[rows] = np.arange(m)
        nbr = local[dst]
        sd = row_side.tolist()
        vw = vwgt[rows].tolist()
    gain = np.bincount(
        src, weights=np.where(ext, wts, -wts), minlength=m
    ).tolist()
    w1 = float(vwgt[side == 1].sum())
    w0 = total_w - w1

    # candidate heap entries: (-gain, v, stamp); stale entries are
    # skipped via stamp.  All entries are distinct, so the pop order
    # does not depend on how the heap was built.
    stamp = [0] * m
    locked = [False] * m + [True]
    # seed with current boundary vertices
    bnd = np.unique(src[ext])
    heap = [(-gain[v], v, 0) for v in bnd.tolist()]
    heapify(heap)

    moves: list = []
    cum = 0.0
    best = 0.0
    best_idx = 0
    since_best = 0
    # when the input violates the balance constraint, the pass may also
    # accept a prefix purely because it improves balance (rebalancing)
    init_maxw = max(w0, w1)
    best_feasible = init_maxw <= w_limit
    best_maxw = init_maxw

    while heap and since_best < stall_limit:
        ng, v, st = heappop(heap)
        if locked[v] or st != stamp[v]:
            continue
        gv = -ng
        # balance feasibility of moving v off its side
        old = sd[v]
        cv = float(vw[v])
        if old == 0:
            nw0, nw1 = w0 - cv, w1 + cv
        else:
            nw0, nw1 = w0 + cv, w1 - cv
        locked[v] = True
        if max(nw0, nw1) > w_limit and max(nw0, nw1) >= max(w0, w1):
            # move would worsen an already-tight balance; skip permanently
            # for this pass (vertex may reappear via gain updates)
            continue
        # apply tentative move
        sd[v] = 1 - old
        w0, w1 = nw0, nw1
        cum += gv
        moves.append(v)
        # update neighbour gains
        beg, end = lptr[v], lptr[v + 1]
        for u, w in zip(nbr[beg:end].tolist(), wts[beg:end].tolist()):
            if locked[u]:
                continue
            if sd[u] == old:
                gu = gain[u] + 2.0 * w
            else:
                gu = gain[u] - 2.0 * w
            gain[u] = gu
            stamp[u] += 1
            heappush(heap, (-gu, u, stamp[u]))
        feasible = max(w0, w1) <= w_limit
        record = False
        if feasible:
            if not best_feasible or cum > best + 1e-12:
                record = True
        elif not best_feasible and max(w0, w1) < best_maxw - 1e-12:
            # both prefixes infeasible: prefer the better-balanced one
            record = True
        if record:
            best = cum
            best_idx = len(moves)
            best_feasible = feasible
            best_maxw = max(w0, w1)
            since_best = 0
        else:
            since_best += 1

    # keep the best prefix (each vertex moves at most once per pass)
    kept = np.asarray(moves[:best_idx], dtype=np.int64)
    if rows is not None:
        kept = rows[kept]
    side[kept] = 1 - side[kept]
    improvement = max(best, init_maxw - best_maxw)
    return improvement, best_idx
