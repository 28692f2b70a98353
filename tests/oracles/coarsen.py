"""Oracles for the coarsening matchers.

``local_proposals_reference`` is the sort-based proposal kernel (a
two-key ``np.lexsort`` of the owned slots, last slot of each source
wins) that the segmented argmax replaced.  ``dist_matching_round_
reference`` is the round in which every rank derives the mutual matches
from the allgathered proposals itself, updating ``matched``/``match``
in place; ``dist_match_reference`` drives it with the production
signature, so a test installs it with ``monkeypatch.setattr`` on
:mod:`repro.coarsen.parallel` and compares whole hierarchies and
ledgers.  ``heavy_edge_matching_vec_reference`` is the vectorised
sequential matcher that re-hashed and reduced all 2m slots every round.
"""

from __future__ import annotations

import numpy as np

from repro.coarsen.parallel import _ROUNDS
from repro.graph.csr import CSRGraph
from repro.graph.distributed import block_adjacency_slots, block_of, block_starts
from repro.parallel.engine import Comm
from repro.parallel.patterns import allgather_concat
from repro.rng import SeedLike, as_generator


def local_proposals_reference(
    graph: CSRGraph, lo: int, hi: int, matched: np.ndarray, salt: int = 0
) -> np.ndarray:
    """Heaviest-unmatched-neighbour proposal for owned vertices
    [lo, hi); -1 where no proposal is possible."""
    prop = np.full(hi - lo, -1, dtype=np.int64)
    if hi <= lo:
        return prop
    src_pos, src, dst, w = block_adjacency_slots(graph, lo, hi)
    valid = ~matched[dst] & ~matched[src]
    if not valid.any():
        return prop
    sp, d, ww = src_pos[valid], dst[valid], w[valid]
    s = src[valid]
    elo = np.minimum(s, d).astype(np.uint64)
    ehi = np.maximum(s, d).astype(np.uint64)
    h = (
        elo * np.uint64(2654435761)
        + ehi * np.uint64(40503)
        + np.uint64((salt + 1) * 2246822519)
    ) & np.uint64(0xFFFFFFFF)
    ww = ww + h.astype(np.float64) / float(2**32) * 0.5
    order = np.lexsort((ww, sp))  # ascending weight within each source
    sp_s, d_s = sp[order], d[order]
    last = np.ones(sp_s.shape[0], dtype=bool)
    last[:-1] = sp_s[1:] != sp_s[:-1]
    prop[sp_s[last]] = d_s[last]  # heaviest (last) proposal per source
    return prop


def dist_matching_round_reference(comm: Comm, graph: CSRGraph,
                                  matched: np.ndarray, match: np.ndarray,
                                  salt: int = 0):
    """One mutual-proposal round; updates ``matched``/``match`` in place
    on every rank."""
    n = graph.num_vertices
    comm.set_phase("coarsen/match")
    starts = block_starts(n, comm.size)
    lo, hi = block_of(starts, comm.rank)
    local_prop = local_proposals_reference(graph, lo, hi, matched, salt)
    comm.charge(float(graph.indptr[hi] - graph.indptr[lo]) + (hi - lo))
    prop = yield from allgather_concat(comm, local_prop)
    ids = np.arange(n, dtype=np.int64)
    ok = prop >= 0
    mutual = ok.copy()
    mutual[ok] = prop[prop[ok]] == ids[ok]
    match[mutual] = prop[mutual]
    matched[:] = match != ids
    comm.charge(float(n) / comm.size)


def dist_match_reference(comm: Comm, graph: CSRGraph, rounds: int = _ROUNDS,
                         salt: int = 0):
    """``dist_match`` built on the per-rank mutual step."""
    n = graph.num_vertices
    matched = np.zeros(n, dtype=bool)
    match = np.arange(n, dtype=np.int64)
    for _ in range(max(1, rounds)):
        yield from dist_matching_round_reference(comm, graph, matched, match, salt)
    return match


def _edge_tiebreak(src, dst, salt):
    elo = np.minimum(src, dst).astype(np.uint64)
    ehi = np.maximum(src, dst).astype(np.uint64)
    h = (
        elo * np.uint64(2654435761)
        + ehi * np.uint64(40503)
        + (salt + np.uint64(1)) * np.uint64(2246822519)
    ) & np.uint64(0xFFFFFFFF)
    return h.astype(np.float64) / float(2**32) * 0.5


def heavy_edge_matching_vec_reference(
    graph: CSRGraph, seed: SeedLike = None, max_stall_rounds: int = 4
) -> np.ndarray:
    """Round-based heavy-edge matching over the full adjacency each round."""
    n = graph.num_vertices
    match = np.arange(n, dtype=np.int64)
    if n == 0:
        return match
    rng = as_generator(seed)
    base_salt = int(rng.integers(0, 2**31))
    indptr, indices, ewgt = graph.indptr, graph.indices, graph.ewgt
    deg = np.diff(indptr)
    nz = np.flatnonzero(deg > 0)
    if nz.size == 0:
        return match
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    starts = indptr[nz]
    seg_pos = np.repeat(np.arange(nz.size, dtype=np.int64), deg[nz])
    ids = np.arange(n, dtype=np.int64)
    nslots = indices.shape[0]
    stalled = 0
    round_no = 0
    while True:
        free = match == ids
        valid = free[src] & free[indices]
        if not valid.any():
            break
        w_eff = np.where(
            valid,
            ewgt + _edge_tiebreak(src, indices,
                                  np.uint64(base_salt + round_no)),
            -np.inf,
        )
        seg_best = np.maximum.reduceat(w_eff, starts)
        hit = w_eff == seg_best[seg_pos]
        slot_ids = np.where(hit, np.arange(nslots), nslots)
        best_slot = np.minimum.reduceat(slot_ids, starts)
        has = seg_best > -np.inf
        prop = np.full(n, -1, dtype=np.int64)
        prop[nz[has]] = indices[best_slot[has]]
        ok = prop >= 0
        mutual = ok.copy()
        mutual[ok] = prop[prop[ok]] == ids[ok]
        if not mutual.any():
            stalled += 1
            if stalled >= max_stall_rounds:
                break
        else:
            stalled = 0
            match[mutual] = prop[mutual]
        round_no += 1
    return match
