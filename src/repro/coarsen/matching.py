"""Vertex matchings for multilevel coarsening.

ScalaPart "coarsens graphs in the same manner as in ParMetis", i.e.
*heavy-edge matching* (HEM): vertices are visited in random order and
each unmatched vertex is matched with the unmatched neighbour connected
by the heaviest edge.  HEM maximises the weight of contracted edges so
that the coarse graph exposes as little cut weight as possible — the
property that makes multilevel partitioners work.

Two implementations are provided:

* :func:`heavy_edge_matching` — the sequential greedy rule (one vertex
  at a time in a random permutation), the literal ParMetis semantics;
* :func:`heavy_edge_matching_vec` — a round-based *locally dominant
  edge* formulation: every round each unmatched vertex points at its
  heaviest free neighbour (one segmented ``np.maximum.reduceat`` over
  the CSR adjacency), mutual proposals lock in, and rounds repeat until
  no proposal lands.  Identical in spirit to the distributed matcher in
  :mod:`repro.coarsen.parallel`, but engine-free and ~an order of
  magnitude faster than the greedy loop on 100k+ vertex graphs.

A matching is encoded as an array ``match`` with ``match[v]`` the mate
of ``v`` (or ``v`` itself for unmatched vertices); it is an involution
(``match[match[v]] == v``) and every matched pair is an edge.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graph.csr import CSRGraph
from ..rng import SeedLike, as_generator

__all__ = [
    "heavy_edge_matching",
    "heavy_edge_matching_vec",
    "validate_matching",
]


def heavy_edge_matching(graph: CSRGraph, seed: SeedLike = None) -> np.ndarray:
    """Heavy-edge matching (the ParMetis/METIS coarsening rule).

    Visits vertices in a random permutation; an unmatched vertex grabs
    its unmatched neighbour of maximum edge weight (first such neighbour
    on ties, which is arbitrary but deterministic given the seed).
    """
    n = graph.num_vertices
    rng = as_generator(seed)
    match = np.arange(n, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    indptr, indices, ewgt = graph.indptr, graph.indices, graph.ewgt
    order = rng.permutation(n)
    for v in order:
        if matched[v]:
            continue
        beg, end = indptr[v], indptr[v + 1]
        nbrs = indices[beg:end]
        if nbrs.shape[0] == 0:
            continue
        free = ~matched[nbrs]
        if not free.any():
            continue
        w = np.where(free, ewgt[beg:end], -np.inf)
        u = int(nbrs[int(np.argmax(w))])
        match[v], match[u] = u, v
        matched[v] = matched[u] = True
    return match


def _edge_tiebreak(
    src: np.ndarray, dst: np.ndarray, salt: np.uint64
) -> np.ndarray:
    """Symmetric pseudo-random perturbation in ``[0, 0.5)`` per edge.

    A pure function of the (unordered) endpoint pair and ``salt``, so
    both stored directions of an undirected edge perturb identically —
    the property that makes ties resolve *mutually* in proposal rounds.
    Being strictly below 0.5 it never reorders integer-valued weights.
    """
    elo = np.minimum(src, dst).astype(np.uint64)
    ehi = np.maximum(src, dst).astype(np.uint64)
    h = (
        elo * np.uint64(2654435761)
        + ehi * np.uint64(40503)
        + (salt + np.uint64(1)) * np.uint64(2246822519)
    ) & np.uint64(0xFFFFFFFF)
    return h.astype(np.float64) / float(2**32) * 0.5


def _segment_max_slots(seg: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ascending indices of the slots attaining the maximum ``w`` of
    their segment, where segments are the runs of equal ``seg``
    (nonempty input).  NaN counts as largest: a segment holding NaN hits
    exactly its NaN slots."""
    first = np.empty(seg.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(seg[1:], seg[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    best = np.maximum.reduceat(w, starts)  # NaN propagates
    hit = w == np.repeat(best, np.diff(starts, append=seg.shape[0]))
    if np.isnan(best).any():
        hit |= np.isnan(w)
    return np.flatnonzero(hit)


def heavy_edge_matching_vec(
    graph: CSRGraph, seed: SeedLike = None, max_stall_rounds: int = 4
) -> np.ndarray:
    """Round-based vectorised heavy-edge matching (locally dominant edges).

    Each round every unmatched vertex proposes to its heaviest free
    neighbour, found with segmented reductions over the *live* slots
    (both endpoints still free) kept in CSR order: ``np.maximum.reduceat``
    gives the best weight and the *first* slot attaining it wins.  A
    vertex whose best weight is -inf or NaN makes no proposal.
    Proposals that are mutual become matched pairs.  A slot that dies
    never comes back, so the slot arrays are compacted every round and
    later rounds touch only what is left.  Rounds repeat until no vertex
    can propose, so on termination the matching is maximal (every
    remaining unmatched vertex has only matched neighbours) except in
    the astronomically unlikely event of ``max_stall_rounds``
    consecutive tie-break collisions.

    The globally heaviest free edge is always mutual (both endpoints see
    it as their best), so every round matches at least one pair and the
    loop terminates.  Ties are broken by a seed-salted symmetric hash of
    the endpoint pair, making the result deterministic given ``seed``
    and — like the greedy rule's random visit order — varying across
    seeds.
    """
    if max_stall_rounds < 1:
        raise GraphError(f"max_stall_rounds must be >= 1, got {max_stall_rounds}")
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    if n == 0:
        return match
    rng = as_generator(seed)
    base_salt = int(rng.integers(0, 2**31))
    ids = np.arange(n, dtype=np.int64)
    # live slots in CSR order: proposing vertex, neighbour, weight
    src = np.repeat(ids, np.diff(graph.indptr))
    dst, ewgt = graph.indices, graph.ewgt
    stalled = 0
    round_no = 0
    while True:
        free = match == ids
        live = free[src] & free[dst]
        if not live.all():
            src, dst, ewgt = src[live], dst[live], ewgt[live]
        if src.shape[0] == 0:
            break
        w_eff = ewgt + _edge_tiebreak(src, dst, np.uint64(base_salt + round_no))
        # slot of the best proposal: first live slot attaining the max;
        # a best weight of -inf or NaN makes no proposal
        idx = _segment_max_slots(src, w_eff)
        hs = src[idx]
        lead = np.ones(hs.shape[0], dtype=bool)
        lead[1:] = hs[1:] != hs[:-1]
        best = idx[lead]
        best = best[w_eff[best] > -np.inf]
        prop = np.full(n, -1, dtype=np.int64)
        prop[src[best]] = dst[best]
        ok = prop >= 0
        mutual = ok.copy()
        mutual[ok] = prop[prop[ok]] == ids[ok]
        if not mutual.any():
            # only possible on a tie-break hash collision cycle; re-salt
            stalled += 1
            if stalled >= max_stall_rounds:
                break
        else:
            stalled = 0
            match[mutual] = prop[mutual]
        round_no += 1
    return match


def validate_matching(graph: CSRGraph, match: np.ndarray) -> None:
    """Raise :class:`GraphError` unless ``match`` is a valid matching."""
    n = graph.num_vertices
    match = np.asarray(match)
    if match.shape != (n,):
        raise GraphError("matching must have one entry per vertex")
    ids = np.arange(n)
    if not np.array_equal(match[match], ids):
        raise GraphError("matching is not an involution")
    # CSR membership test: a slot (u → w) witnesses u's matched edge iff
    # w == match[u]; every matched vertex needs such a witness
    if n:
        src = graph.edge_sources()
        witnessed = np.zeros(n, dtype=bool)
        witnessed[src[match[src] == graph.indices]] = True
        bad = np.flatnonzero((match != ids) & ~witnessed)
        if bad.size:
            v = int(bad[0])
            raise GraphError(f"matched pair ({v}, {match[v]}) is not an edge")

