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
  best-rated free neighbour (one segmented ``np.maximum.reduceat`` over
  the CSR adjacency), mutual proposals lock in, and rounds repeat until
  no proposal lands.  ~An order of magnitude faster than the greedy
  loop on 100k+ vertex graphs.

The round-based matcher and the distributed one in
:mod:`repro.coarsen.parallel` share one rating and one tie rule.  The
rating is expansion*², ``(w + t)² / (c(u)·c(v))`` (:func:`_edge_rating`):
the heavy-edge weight divided by the endpoint weights, so contraction
does not snowball weight onto a few super-vertices and every matching
step keeps shrinking the graph ~2×.  The tie rule
(:func:`_segment_argmax`) takes the first CSR slot attaining a vertex's
best rating, and a vertex whose best rating is -inf or NaN proposes
nothing.

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


def _edge_rating(
    src: np.ndarray, dst: np.ndarray, ewgt: np.ndarray, vwgt: np.ndarray,
    salt: np.uint64,
) -> np.ndarray:
    """The expansion*² rating of every slot ``src → dst``:
    ``(w + t)² / (c(src)·c(dst))``, with ``t`` the symmetric tie-break
    of :func:`_edge_tiebreak` and ``c`` the vertex weight (Safro, Sanders
    and Schulz, "Advanced Coarsening Schemes for Graph Partitioning").

    Dividing by the endpoint weights is what keeps a hierarchy shrinking
    ~2× per matching: a plain heavy-edge rating piles the edge weight of
    each contraction onto a few super-vertices, every neighbour proposes
    to them, and most vertices are never matched again.  The square is
    signed, ``w·|w|``, so a negative weight still rates below a positive
    one and -inf and NaN weights stay -inf and NaN; a zero weight
    product counts as the smallest positive float.  Symmetric in the
    endpoints, so both stored directions of an edge rate identically.
    """
    w = ewgt + _edge_tiebreak(src, dst, salt)
    c = vwgt[src] * vwgt[dst]
    np.maximum(c, np.finfo(np.float64).tiny, out=c)
    return w * np.abs(w) / c


def _segment_argmax(seg: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Proposal slot per segment (runs of equal ``seg``, nonempty
    input): the *first* slot attaining the segment's maximum ``r``.  A
    segment whose maximum is -inf or NaN proposes nothing (NaN poisons
    its segment through ``np.maximum.reduceat``)."""
    first = np.empty(seg.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(seg[1:], seg[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    best = np.maximum.reduceat(r, starts)
    hit = np.flatnonzero(r == np.repeat(best, np.diff(starts, append=seg.shape[0])))
    hs = seg[hit]
    lead = np.ones(hs.shape[0], dtype=bool)
    lead[1:] = hs[1:] != hs[:-1]
    idx = hit[lead]
    return idx[r[idx] > -np.inf]


def heavy_edge_matching_vec(
    graph: CSRGraph, seed: SeedLike = None, max_stall_rounds: int = 4
) -> np.ndarray:
    """Round-based vectorised matching (locally dominant edges).

    Each round every unmatched vertex proposes to its best-rated free
    neighbour under :func:`_edge_rating`, found with one segmented
    reduction over the *live* slots (both endpoints still free) kept in
    CSR order (:func:`_segment_argmax`: the first slot attaining the
    maximum wins; a best rating of -inf or NaN makes no proposal).
    Proposals that are mutual become matched pairs.  A slot that dies
    never comes back, so the slot arrays are compacted every round and
    later rounds touch only what is left.  Rounds repeat until no vertex
    can propose, so on termination the matching is maximal (every
    remaining unmatched vertex has only matched neighbours) except in
    the astronomically unlikely event of ``max_stall_rounds``
    consecutive tie-break collisions.

    The rating is symmetric, so the globally best-rated free edge is
    always mutual and every round matches at least one pair: the loop
    terminates.  The tie-break hash is salted per round from ``seed``,
    making the result deterministic given ``seed`` and — like the
    greedy rule's random visit order — varying across seeds.
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
    dst, ewgt, vwgt = graph.indices, graph.ewgt, graph.vwgt
    stalled = 0
    round_no = 0
    while True:
        free = match == ids
        live = free[src] & free[dst]
        if not live.all():
            src, dst, ewgt = src[live], dst[live], ewgt[live]
        if src.shape[0] == 0:
            break
        best = _segment_argmax(
            src, _edge_rating(src, dst, ewgt, vwgt, np.uint64(base_salt + round_no)))
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

