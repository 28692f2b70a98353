"""Direct geometric k-way assignment (balanced spherical K-means).

Generalises the great-circle split: instead of one circle cutting the
lifted sphere in two, the embedding is split into K cells around K
centroids.  The pipeline mirrors the 2-way geometric stage:

* normalise the coordinates and lift them onto the sphere;
* seed K centroids with cost-weighted k-means++ (distance
  ``1 − ⟨u, c⟩``, the spherical analogue of squared distance);
* a few Lloyd iterations move the centroids to the cost-weighted mean
  of their cells (projected back onto the sphere);
* with centroids frozen, *bias balancing* iterates
  ``part[v] = argmax_j (⟨u_v, c_j⟩ − bias_j)`` and raises the bias of
  overloaded cells (``bias_j += lr · (cost_j/target − 1)``) until the
  CostModel-weighted part costs meet the balance target — the additive
  bias trades a sliver of geometric locality for balance, exactly like
  the median shift of the 2-way candidates.

The distributed rank program follows the SP-PG7-NL recipe: one sample
allgather fixes a shared normalisation and shared seed centroids, each
Lloyd/bias iteration is one small ``(k)``-sized allreduce of per-part
sums, and every rank applies identical updates — so sim and procs
backends produce bit-identical partitions.  The k-way refinement
allgathers the labelling; the root runs the greedy sweeps (boundary
work is proportional to the separator, not the graph) and shares the
swept labels.  The pairwise FM phase then runs on every rank: each wave
of part-disjoint pairs (:class:`repro.refine.kway.PairRounds`) is
dealt out round-robin, one gather plus a share carries the results,
and every rank commits them in round order — the labels of the
sequential :func:`repro.refine.kway.kway_refine`, for every P.  The
root sweeps once more and broadcasts the result.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import GeometryError
from ..graph.csr import CSRGraph
from ..graph.distributed import block_of, block_starts
from ..graph.partition import KWayPartition
from ..parallel.engine import Comm, payload_words
from ..parallel.patterns import allgather_concat, share_from_root
from ..refine.kway import (
    PAIRWISE_ROUNDS,
    REFINE_PASSES,
    KWayRefinement,
    PairRounds,
    part_limit,
    subgraph_rows,
)
from ..rng import SeedLike, as_generator, derive_seed
from .centerpoint import CENTERPOINT_SAMPLE
from .gmt import normalize_coords
from .stereo import lift

__all__ = ["BALANCE_ITERS", "LLOYD_ITERS", "dist_kway_geometric",
           "kway_geometric_assign", "seed_centroids"]

#: bias learning-rate schedule: large first steps, gentle tail so the
#: assignment settles instead of oscillating between cells
_BIAS_LR0 = 0.12
_BIAS_DECAY = 0.97

#: Lloyd iterations that move the seeded centroids
LLOYD_ITERS = 4
#: bias-balancing iterations (at most) with the centroids frozen
BALANCE_ITERS = 48


def _bias_lr(it: int) -> float:
    return _BIAS_LR0 * (_BIAS_DECAY ** it)


def seed_centroids(
    upoints: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Cost-weighted k-means++ seeding on the unit sphere.

    Picks K of the given points, each with probability proportional to
    ``weight · (1 − ⟨u, nearest chosen⟩)`` — spread-out heavy regions
    get centroids first.
    """
    upoints = np.asarray(upoints, dtype=np.float64)
    n = upoints.shape[0]
    if n < k:
        raise GeometryError(
            f"need at least k={k} points to seed centroids, got {n}"
        )
    rng = as_generator(derive_seed(seed, 0x4B17))
    w = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    if float(w.sum()) <= 0:
        w = np.ones(n)
    centroids = np.empty((k, 3))
    first = int(rng.choice(n, p=w / w.sum()))
    centroids[0] = upoints[first]
    d = 1.0 - upoints @ centroids[0]
    for j in range(1, k):
        scores = np.maximum(d, 0.0) * w
        s = float(scores.sum())
        idx = int(rng.choice(n, p=scores / s)) if s > 0 else int(rng.integers(n))
        centroids[j] = upoints[idx]
        d = np.minimum(d, 1.0 - upoints @ centroids[j])
    return centroids


def _updated_centroids(tot: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """New centroids from reduced ``(k, 4)`` per-part [x, y, z, cost]
    sums; cells that emptied keep their previous centroid."""
    out = centroids.copy()
    norms = np.linalg.norm(tot[:, :3], axis=1)
    ok = (tot[:, 3] > 0) & (norms > 1e-12)
    out[ok] = tot[ok, :3] / norms[ok, None]
    return out


def _affinities(u: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``u @ centroids.T`` for ``(n, 3)`` points and ``(k, 3)``
    centroids, as a sum of three scaled columns.

    With an inner dimension of 3 a BLAS call gains nothing, and in a
    rank process its thread pool contends with the other ranks for the
    cores, which made it several times slower than this sum.  The sum
    is a fixed ``(x·cx + y·cy) + z·cz`` per entry, where a BLAS kernel
    may fuse multiply-adds differently per machine.
    """
    out = u[:, 0, None] * centroids[:, 0]
    out += u[:, 1, None] * centroids[:, 1]
    out += u[:, 2, None] * centroids[:, 2]
    return out


def _part_sums(
    u: np.ndarray, costs: np.ndarray, parts: np.ndarray, k: int
) -> np.ndarray:
    """Per-part ``[Σ cost·x, Σ cost·y, Σ cost·z, Σ cost]`` as (k, 4)."""
    sums = np.zeros((k, 4))
    for d in range(3):
        sums[:, d] = np.bincount(parts, weights=costs * u[:, d], minlength=k)
    sums[:, 3] = np.bincount(parts, weights=costs, minlength=k)
    return sums


def kway_geometric_assign(
    graph: CSRGraph,
    coords: np.ndarray,
    k: int,
    *,
    costs: Optional[np.ndarray] = None,
    seed: SeedLike = None,
    lloyd_iters: int = LLOYD_ITERS,
    balance_iters: int = BALANCE_ITERS,
    balance_tol: float = 0.02,
) -> Tuple[np.ndarray, dict]:
    """Sequential direct k-way assignment of an embedded graph.

    Returns ``(parts, info)`` — an int64 labelling in ``[0, k)`` plus
    convergence diagnostics.  ``costs`` is the per-vertex balance cost
    (``graph.vwgt`` when ``None``).
    """
    n = graph.num_vertices
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    if n < k:
        raise GeometryError(f"cannot split {n} vertices into {k} parts")
    if k == 1:
        return np.zeros(n, dtype=np.int64), {"assign_imbalance": 0.0,
                                             "assign_iters": 0}
    c = graph.vwgt if costs is None else np.asarray(costs, dtype=np.float64)
    u = lift(normalize_coords(coords))
    centroids = seed_centroids(u, c, k, seed=seed)
    target = float(c.sum()) / k
    if target <= 0:
        c = np.ones(n)
        target = n / k

    for _ in range(lloyd_iters):
        parts = np.argmax(_affinities(u, centroids), axis=1)
        centroids = _updated_centroids(_part_sums(u, c, parts, k), centroids)

    aff = _affinities(u, centroids)
    bias = np.zeros(k)
    best_key = (np.inf, np.inf)
    best_parts = None
    iters = 0
    for it in range(balance_iters):
        iters = it + 1
        parts = np.argmax(aff - bias, axis=1)
        pc = np.bincount(parts, weights=c, minlength=k)
        imb = float(pc.max() / target - 1.0)
        key = (float((pc <= 0).sum()), imb)
        if key < best_key:
            best_key, best_parts = key, parts
        if key[0] == 0 and imb <= balance_tol:
            break
        bias += _bias_lr(it) * (pc / target - 1.0)
    if best_parts is None:
        best_parts = np.argmax(aff, axis=1)
    info = {
        "assign_imbalance": float(best_key[1]),
        "assign_iters": iters,
        "lloyd_iters": lloyd_iters,
    }
    return best_parts.astype(np.int64), info


def dist_kway_geometric(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    *,
    k: int,
    costs: Optional[np.ndarray] = None,
    config=None,
    seed: SeedLike = None,
    max_imbalance: Optional[float] = None,
):
    """Rank program: distributed direct k-way of an embedded graph.

    ``pos_full`` is the level-0 embedding (shared read-only reference;
    per-rank *work* touches only the owned block).  Returns
    ``(parts, info)`` with the refined labelling on every rank.
    """
    from ..core.config import ScalaPartConfig

    cfg = config or ScalaPartConfig()
    n = graph.num_vertices
    p = comm.size
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    if n < k:
        raise GeometryError(f"cannot split {n} vertices into {k} parts")
    if k == 1:
        return np.zeros(n, dtype=np.int64), {"assign_imbalance": 0.0}
    starts = block_starts(n, p)
    lo, hi = block_of(starts, comm.rank)
    owned = np.arange(lo, hi, dtype=np.int64)
    costs_full = graph.vwgt if costs is None else np.asarray(costs, np.float64)

    # ---- shared sample: normalisation + seed centroids ---------------
    comm.set_phase("partition/sample")
    rng = np.random.default_rng(derive_seed(seed, 0xD158))
    per_rank = max(4, CENTERPOINT_SAMPLE // p)
    take = min(per_rank, owned.shape[0])
    sample_ids = (
        owned[rng.choice(owned.shape[0], size=take, replace=False)]
        if take
        else owned
    )
    comm.charge(float(take) * 4)
    packed = np.column_stack([pos_full[sample_ids], costs_full[sample_ids]])
    sample = yield from allgather_concat(comm, packed.ravel())
    sample = sample.reshape(-1, 3)
    centre = np.median(sample[:, :2], axis=0)
    radii = np.linalg.norm(sample[:, :2] - centre, axis=1)
    scale = float(np.median(radii)) or 1.0
    u_samp = lift((sample[:, :2] - centre) / scale)
    centroids = seed_centroids(u_samp, sample[:, 2], k, seed=seed)

    own_u = lift((pos_full[lo:hi] - centre) / scale)
    own_costs = np.ascontiguousarray(costs_full[lo:hi], dtype=np.float64)
    comm.charge(float(hi - lo) * 12)
    target = float(costs_full.sum()) / k
    if target <= 0:
        costs_full = np.ones(n)
        own_costs = np.ones(hi - lo)
        target = n / k

    # ---- Lloyd iterations: one (k, 4) allreduce each ------------------
    comm.set_phase("partition/centroids")
    for _ in range(LLOYD_ITERS):
        parts_own = np.argmax(_affinities(own_u, centroids), axis=1)
        comm.charge(float(hi - lo) * (3 * k + 4))
        tot = yield from comm.allreduce(
            _part_sums(own_u, own_costs, parts_own, k), words=4 * k
        )
        centroids = _updated_centroids(tot, centroids)

    # ---- bias balancing: one (k,) allreduce each ----------------------
    comm.set_phase("partition/assign")
    aff = _affinities(own_u, centroids)
    comm.charge(float(hi - lo) * 3 * k)
    bias = np.zeros(k)
    best_key = (np.inf, np.inf)
    best_parts = np.zeros(hi - lo, dtype=np.int64)
    iters = 0
    for it in range(BALANCE_ITERS):
        iters = it + 1
        parts_own = np.argmax(aff - bias, axis=1)
        pc_own = np.bincount(parts_own, weights=own_costs, minlength=k)
        comm.charge(float(hi - lo) * 2)
        pc = yield from comm.allreduce(pc_own, words=k)
        imb = float(pc.max() / target - 1.0)
        # pc is identical on every rank, so best_key / break agree too
        key = (float((pc <= 0).sum()), imb)
        if key < best_key:
            best_key, best_parts = key, parts_own
        if key[0] == 0 and imb <= 0.02:
            break
        bias += _bias_lr(it) * (pc / target - 1.0)

    # ---- k-way refinement: sweeps on the root, pair FM on every rank --
    comm.set_phase("partition/kway-refine")
    parts_full = yield from allgather_concat(
        comm, best_parts.astype(np.int64)
    )
    bound = cfg.max_imbalance if max_imbalance is None else max_imbalance
    info = {
        "assign_imbalance": float(best_key[1]),
        "assign_iters": iters,
        "lloyd_iters": LLOYD_ITERS,
    }
    kp = KWayPartition(graph, parts_full, k, costs=costs)
    ref, swept, words = None, None, 0.0
    if comm.rank == 0:
        ref = KWayRefinement(kp, bound)
        ref.sweeps()
        rows = subgraph_rows(graph)
        # boundary work is proportional to the separator, not the graph;
        # the order check of subgraph_rows reads every slot
        comm.charge(float(k) * math.sqrt(max(n, 1.0)) * REFINE_PASSES
                    + float(graph.indices.shape[0]))
        # the pair graphs' source goes by reference, only when it is
        # not the graph itself
        rows = None if rows is graph else rows
        swept = (ref.parts.copy(), ref.part_cost.copy(), rows)
        words = float(n + k) + (0.0 if rows is None else payload_words(
            (rows.indptr, rows.indices, rows.ewgt, rows.vwgt)))
    labels, part_cost, rows = yield from share_from_root(comm, swept,
                                                         words=words)
    pcosts = kp.balance_costs
    pairs = PairRounds(graph, labels.copy(), pcosts, part_cost.copy(), k,
                       part_limit(pcosts, k, bound), PAIRWISE_ROUNDS,
                       rows=graph if rows is None else rows)
    wave = pairs.next_wave()
    while wave:
        # wave pairs are part-disjoint, so any rank may evaluate any of
        # them; every rank commits all results in round order
        mine = range(comm.rank, len(wave), p)
        comm.charge(float(sum(pairs.pair_slots(*wave[i]) for i in mine)))
        found = [pairs.evaluate(*wave[i]) for i in mine]
        per_rank = yield from comm.gather(found, root=0)
        results = None
        if comm.rank == 0:
            results = [per_rank[i % p][i // p] for i in range(len(wave))]
        results = yield from share_from_root(comm, results,
                                             words=payload_words(results))
        pairs.commit(wave, results)
        wave = pairs.next_wave()

    result = None
    if comm.rank == 0:
        ref.parts, ref.part_cost = pairs.parts, pairs.part_cost
        ref.add_pair_moves(pairs.moves)
        refined = ref.result()
        result = (
            np.asarray(refined.partition.parts),
            {
                **info,
                "geometric_cut": refined.initial_cut,
                "refine_passes": refined.passes,
                "refine_moves": refined.moves,
            },
        )
    parts_final, final_info = (yield from share_from_root(
        comm, result,
        words=float(n) / max(1.0, math.log2(p) if p > 1 else 1.0),
    ))
    comm.set_phase("partition")
    return parts_final, final_info
