"""Distributed multilevel coarsening (rank programs for the VM).

ScalaPart coarsens "in the same manner as in ParMetis" with the graph
distributed over P ranks.  The distributed matching here is the
*mutual-proposal* (locally dominant edge) algorithm used by parallel
matchers: each round every rank computes, for its owned unmatched
vertices, the best-rated unmatched neighbour; proposals are exchanged
and an edge whose endpoints propose each other becomes matched.  Two to
three rounds capture most of the matching weight; remaining vertices
stay unmatched for this level (standard in ParMetis).  The rating and
the tie rule are ``hem-vec``'s (:mod:`repro.coarsen.matching`):
expansion*² ``(w + t)² / (c(u)·c(v))``, the first CSR slot attaining a
vertex's best rating wins, and a best rating of -inf or NaN proposes
nothing.  The proposal is a segmented argmax over the block's CSR slots
(no sort).

Folding: with ``keep_every_other=True`` two matchings fuse per retained
level and the active rank set shrinks to a quarter (``P^i ≈ P^{i-1}/4``,
paper §3), so per-rank work stays ~``m/P`` at every level.  Ranks that
fold out wait at the final hierarchy broadcast.

Simulator notes (see :mod:`repro.graph.distributed`): graph objects are
immutable and travel by :class:`Shared` reference.  Two steps are
executed functionally at the subtree root and *charged* as the
distributed algorithm: the mutual-match step of every round (root
folds the gathered proposals into a new ``(match, matched)`` pair; the
broadcast carries the proposal allgather's volume and every rank
charges ``n/P``), and the contraction (each rank charges its owned
adjacency for the edge relabel, and the broadcast carries the coarse
graph's redistribution volume).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np

from ..errors import GraphError
from ..graph.csr import CSRGraph
from ..graph.distributed import block_adjacency_slots, block_of, block_starts
from ..parallel.engine import Comm
from ..parallel.patterns import allgather_words, share_from_root
from .hierarchy import _STALL_RATIO
from .contract import contract
from .matching import _edge_rating, _segment_argmax

__all__ = ["dist_matching_round", "dist_match", "dist_build_hierarchy"]

#: mutual-proposal rounds per matching sweep.
_ROUNDS = 3


def _block_slots(graph: CSRGraph, lo: int, hi: int, salt: int):
    """Owned adjacency of block [lo, hi) as ``(src_pos, src, dst, r)``
    with ``r`` the slot's expansion*² rating (:func:`_edge_rating`).

    The rating's symmetric pseudo-random tie-break keeps unweighted
    regular graphs from making every vertex propose in the same
    direction (then almost no proposal is mutual).  It is a pure
    function of the endpoint pair, so both owners of an edge rate it
    identically.  The salt is fixed for one :func:`dist_match`, so this
    is computed once, not per round.
    """
    src_pos, src, dst, w = block_adjacency_slots(graph, lo, hi)
    return src_pos, src, dst, _edge_rating(src, dst, w, graph.vwgt,
                                           np.uint64(salt))


def _local_proposals(slots, owned: int, matched: np.ndarray) -> np.ndarray:
    """Best-rated-unmatched-neighbour proposal for the ``owned``
    vertices of a block (``slots`` from :func:`_block_slots`); -1 where
    no proposal is possible.

    Slots arrive grouped by source in CSR order, so the argmax is one
    segmented ``np.maximum.reduceat`` with no sort
    (:func:`_segment_argmax`: first slot wins, -inf/NaN propose
    nothing).
    """
    src_pos, src, dst, r = slots
    prop = np.full(owned, -1, dtype=np.int64)
    valid = ~matched[dst] & ~matched[src]
    if not valid.any():
        return prop
    sp = src_pos[valid]
    idx = _segment_argmax(sp, r[valid])
    prop[sp[idx]] = dst[valid][idx]
    return prop


def dist_matching_round(comm: Comm, graph: CSRGraph, slots,
                        match: np.ndarray, matched: np.ndarray):
    """One mutual-proposal round; returns the new ``(match, matched)``
    pair, one immutable object shared by every rank.

    Matching is a pure function of the proposal array (match v↔u iff
    ``prop[v] == u`` and ``prop[u] == v``), so root derives it once
    between the proposal gather and the broadcast (functional folding)
    instead of every rank repeating the O(n) step.  The broadcast
    carries the proposal allgather's volume and every rank still
    charges its ``n/P`` share, as in the distributed algorithm.
    """
    n = graph.num_vertices
    comm.set_phase("coarsen/match")
    lo, hi = block_of(block_starts(n, comm.size), comm.rank)
    local_prop = _local_proposals(slots, hi - lo, matched)
    # charge the sweep: every owned adjacency slot is examined once
    comm.charge(float(graph.indptr[hi] - graph.indptr[lo]) + (hi - lo))
    parts = yield from comm.gather(local_prop, root=0, words=0)
    pair = None
    if comm.rank == 0:
        prop = np.concatenate(parts)
        ids = np.arange(n, dtype=np.int64)
        ok = prop >= 0
        mutual = ok.copy()
        mutual[ok] = prop[prop[ok]] == ids[ok]
        new_match = match.copy()
        new_match[mutual] = prop[mutual]
        pair = (new_match, new_match != ids)
    pair = yield from share_from_root(comm, pair,
                                      words=allgather_words(comm, local_prop))
    comm.charge(float(n) / comm.size)
    return pair


def dist_match(comm: Comm, graph: CSRGraph, rounds: int = _ROUNDS,
               salt: int = 0):
    """Distributed expansion*² matching (mutual proposals, few rounds).

    ``salt`` perturbs the tie-break hash: passing the processor count
    (as the hierarchy driver does) makes the matching — and hence the
    final cut — vary with P, which is how the paper's per-method
    cut-size *ranges* across processor counts arise.
    """
    _check_rounds(rounds)
    n = graph.num_vertices
    lo, hi = block_of(block_starts(n, comm.size), comm.rank)
    slots = _block_slots(graph, lo, hi, salt)
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    for _ in range(rounds):
        match, matched = yield from dist_matching_round(
            comm, graph, slots, match, matched)
    return match


def _check_rounds(rounds: int) -> None:
    if rounds < 1:
        raise GraphError(f"rounds must be >= 1, got {rounds}")


def _dist_contract(comm: Comm, graph: CSRGraph, match: np.ndarray):
    """Contract under a (globally known) matching.

    Functional work at rank 0 (simulator memory idiom); every rank
    charges its owned adjacency for the edge relabelling, and the
    result broadcast carries the coarse graph's redistribution volume.
    """
    n = graph.num_vertices
    comm.set_phase("coarsen/contract")
    starts = block_starts(n, comm.size)
    lo, hi = block_of(starts, comm.rank)
    comm.charge(float(graph.indptr[hi] - graph.indptr[lo]) + (hi - lo))
    result = None
    if comm.rank == 0:
        result = contract(graph, match)
    # Redistribution volume: the coarse graph's ~3 words per adjacency
    # slot (endpoints + weight) move through every rank's port *in
    # parallel*, so the per-port serialised volume is 3m/p; the
    # broadcast tree contributes the log-p latency factor.
    volume_guess = 3.0 * graph.indices.shape[0] / (2.0 * comm.size)
    coarse, cmap = (yield from share_from_root(comm, result, words=volume_guess))
    return coarse, cmap


def dist_build_hierarchy(
    comm: Comm,
    graph: CSRGraph,
    *,
    coarsest_size: int = 160,
    keep_every_other: bool = True,
    rounds: int = _ROUNDS,
):
    """Distributed analogue of :func:`repro.coarsen.build_hierarchy`.

    Returns ``(graphs, cmaps)`` — identical lists on every rank of
    ``comm``.  The active rank set quarters (halves for
    ``keep_every_other=False``) per retained level, mirroring
    ``P^i ≈ P^{i-1}/4``; folded-out ranks idle until the final
    broadcast, exactly like processes outside ``G^i(P^i)`` in the paper.
    Every retained level is strictly smaller than the one before, so the
    level loop needs no cap.
    """
    if coarsest_size < 1:
        raise GraphError("coarsest_size must be >= 1")
    _check_rounds(rounds)
    graphs: List[CSRGraph] = [graph]
    cmaps: List[np.ndarray] = []
    active: Optional[Comm] = comm
    steps = 2 if keep_every_other else 1
    shrink = 4 if keep_every_other else 2

    for _level in itertools.count():
        if active is None:
            break
        current = graphs[-1]
        if current.num_vertices <= coarsest_size:
            break
        composed: Optional[np.ndarray] = None
        nxt = current
        stalled = False
        # Mutual-proposal matching leaves more vertices unmatched than
        # sequential HEM, especially on small/contracted graphs; keep
        # matching (up to 2·steps sweeps) until this level reaches its
        # ~1/4 (or ~1/2) size target so level counts stay close to the
        # paper's quartering schedule.
        target = max(coarsest_size, int(current.num_vertices / (3.2 if keep_every_other else 1.7)))
        for _s in range(2 * steps):
            if composed is not None and nxt.num_vertices <= target:
                break
            match = yield from dist_match(active, nxt, rounds=rounds,
                                          salt=comm.size + 31 * _level + _s)
            coarse, cmap = yield from _dist_contract(active, nxt, match)
            if coarse.num_vertices > _STALL_RATIO * nxt.num_vertices:
                stalled = True
                if coarse.num_vertices == nxt.num_vertices:
                    break
            nxt = coarse
            composed = cmap if composed is None else cmap[composed]
        if composed is None or nxt.num_vertices == current.num_vertices:
            break
        graphs.append(nxt)
        cmaps.append(composed)
        if stalled:
            break
        if active.size >= 2 * shrink:
            keep = max(1, active.size // shrink)
            sub = yield from active.split(0 if active.rank < keep else None)
            active = sub  # None for folded-out ranks: they exit the loop
    # synchronise the hierarchy across the full communicator (folded-out
    # ranks have a stale prefix); rank 0 is active at every level
    comm.set_phase("coarsen/share")
    payload = (graphs, cmaps) if comm.rank == 0 else None
    full = yield from share_from_root(comm, payload, words=float(len(graphs) * 4))
    return full
