"""Distributed geometric partitioning + strip refinement (SP-PG7-NL).

Parallel formulation of the Gilbert–Miller–Teng partitioner following
paper §3 exactly:

* "we use sampling across processors to calculate the centerpoint
  fast" — every rank contributes a small sample of its owned lifted
  points (one allgather); each rank then computes the *same*
  centerpoint and conformal map redundantly from the shared sample;
* "multiple great circles ... are computed redundantly on each
  processor" — the candidate normals come from a shared seed;
* "each processor computes its contribution to the measure of cut
  quality for all separators, before a reduction involving all
  processors to select the best cut" — a histogram allreduce fixes the
  balanced threshold of every candidate, then one allreduce sums the
  per-rank cut contributions and part weights.  A rank's contribution
  costs its owned rows, its slots and its ghosts: each candidate's
  side is taken once per vertex (owned rows from the projections the
  histogram already used, ghost endpoints mapped to the sphere like
  the owned block) and every slot reads its two endpoints' sides by
  gather, so no rank touches the other ranks' vertices.

Only sphere separators are computed ("avoids the eigenvector
calculation needed for a line separator in the interests of parallel
scalability").  The strip refinement gathers the (small) strip to the
subtree root, runs Fiduccia–Mattheyses there and broadcasts the result
— its serial cost is negligible because "the strip contains a small
multiple of the number of vertices in the edge separator".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.distributed import adjacency_slots, block_of, block_starts
from ..graph.partition import Bisection
from ..parallel.engine import Comm
from ..parallel.patterns import allgather_concat, share_from_root
from ..refine.strip import strip_refine
from ..rng import SeedLike, derive_seed
from .centerpoint import CENTERPOINT_SAMPLE, approx_centerpoint
from .circles import random_unit_vectors
from .stereo import lift, project, rotation_to_south

if TYPE_CHECKING:
    from ..core.config import ScalaPartConfig

__all__ = ["DistGeoSelection", "dist_geometric", "dist_strip_refine"]

_HIST_BINS = 128


@dataclass(frozen=True)
class DistGeoSelection:
    """Per-rank outcome of the distributed circle selection.

    The winning separator is fully described by each rank's signed
    distances over its owned block (``sd_own``) plus the globally
    agreed cut weight — exactly what the strip-refinement stage needs.
    """

    #: signed distance of the owned block to the winning circle
    sd_own: np.ndarray
    #: globally reduced cut weight of the winning candidate
    best_cut: float
    #: number of candidate separators evaluated
    candidates: int


def dist_geometric(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    *,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
):
    """Rank program: distributed great-circle selection (stage 3 alone).

    ``pos_full`` is the level-0 embedding (shared read-only reference;
    per-rank *work* touches only the owned block).  Returns a
    :class:`DistGeoSelection` for :func:`dist_strip_refine`.
    """
    from ..core.config import ScalaPartConfig

    cfg = config or ScalaPartConfig()
    n = graph.num_vertices
    p = comm.size
    starts = block_starts(n, p)
    lo, hi = block_of(starts, comm.rank)
    owned = np.arange(lo, hi, dtype=np.int64)

    # ---- sampled centerpoint & conformal map (redundant per rank) ----
    comm.set_phase("partition/sample")
    rng = np.random.default_rng(derive_seed(seed, 0xD157))
    per_rank = max(4, CENTERPOINT_SAMPLE // p)
    take = min(per_rank, owned.shape[0])
    sample_ids = (
        owned[rng.choice(owned.shape[0], size=take, replace=False)]
        if take
        else owned
    )
    comm.charge(float(take) * 4)
    sample = yield from allgather_concat(comm, pos_full[sample_ids].ravel())
    sample = sample.reshape(-1, 2)
    # normalisation from the shared sample (median centre, median radius)
    centre = np.median(sample, axis=0)
    radii = np.linalg.norm(sample - centre, axis=1)
    scale = float(np.median(radii)) or 1.0
    lifted_sample = lift((sample - centre) / scale)
    cp = approx_centerpoint(lifted_sample, seed=derive_seed(seed, 0xCE27))
    comm.charge(float(lifted_sample.shape[0]) * 8)

    # map the owned points with the same conformal transform
    own_lift = lift((pos_full[lo:hi] - centre) / scale)
    rot = rotation_to_south(cp) if np.linalg.norm(cp) > 1e-15 else np.eye(3)
    r = min(float(np.linalg.norm(cp)), 1.0 - 1e-9)
    alpha = math.sqrt((1.0 + r) / (1.0 - r))
    own_u = lift(project(own_lift @ rot.T) * alpha)
    comm.charge(float(hi - lo) * 12)

    # ---- candidate circles: shared seed => identical normals --------
    normals = random_unit_vectors(
        np.random.default_rng(derive_seed(seed, 0x6C1)), cfg.ncircles, 3
    )
    sval_own = own_u @ normals.T  # (n_own, ncircles)
    comm.charge(float(hi - lo) * cfg.ncircles * 3)

    comm.set_phase("partition/select")
    # Balanced thresholds via a global histogram reduction per candidate.
    # No min/max pre-reduction is needed: the projections are dot
    # products of unit vectors, so every value lies in [-1, 1] — which
    # is how the parallel partitioner stays at the paper's "3 reductions".
    smin = np.full(cfg.ncircles, -1.0)
    span = np.full(cfg.ncircles, 2.0)
    hist = np.zeros((cfg.ncircles, _HIST_BINS))
    for cidx in range(cfg.ncircles):
        bins = np.clip(
            ((sval_own[:, cidx] - smin[cidx]) / span[cidx] * _HIST_BINS).astype(int),
            0, _HIST_BINS - 1,
        )
        hist[cidx] = np.bincount(bins, weights=graph.vwgt[lo:hi],
                                 minlength=_HIST_BINS)
    comm.charge(float(hi - lo) * cfg.ncircles)
    hist = yield from comm.allreduce(hist, words=cfg.ncircles * _HIST_BINS)
    cum = np.cumsum(hist, axis=1)
    half = cum[:, -1:] / 2.0
    kbin = np.argmax(cum >= half, axis=1)
    thresholds = smin + (kbin + 1) / _HIST_BINS * span

    # ---- per-rank cut contributions, one reduction -------------------
    # the side of a vertex is a pure function of its coordinates and the
    # shared (threshold, normal) data, so ghost sides need no extra
    # communication beyond the coordinates the embedding already holds.
    # Sides are taken once per vertex — owned rows from ``sval_own``,
    # then the rank's ghosts mapped like the owned block — and every
    # adjacency slot reads its two endpoints' sides by gather.
    src_pos, _, dst, w = adjacency_slots(graph, owned)
    ghost = (dst < lo) | (dst >= hi)
    ghost_ids, ghost_row = np.unique(dst[ghost], return_inverse=True)
    dst_row = dst - lo
    dst_row[ghost] = (hi - lo) + ghost_row
    ghost_u = lift(project(lift((pos_full[ghost_ids] - centre) / scale)
                           @ rot.T) * alpha)
    comm.charge(float(dst.shape[0]) * 12)
    above = np.ascontiguousarray(
        (np.vstack([sval_own, ghost_u @ normals.T]) > thresholds).T
    )
    own_w = graph.vwgt[lo:hi]
    cuts = np.zeros(cfg.ncircles)
    bal = np.zeros(cfg.ncircles)
    for cidx in range(cfg.ncircles):
        side = above[cidx]
        cuts[cidx] = float(w[side[src_pos] != side[dst_row]].sum()) / 2.0
        bal[cidx] = float(own_w[side[: hi - lo]].sum())
    comm.charge(float(dst.shape[0] + (hi - lo)) * cfg.ncircles)
    totals = yield from comm.allreduce(
        np.vstack([cuts, bal]), words=2 * cfg.ncircles
    )
    cuts_g, bal_g = totals[0], totals[1]
    total_w = graph.total_vertex_weight
    imb = np.abs(2 * bal_g / total_w - 1.0)
    feasible = imb <= max(cfg.max_imbalance, float(imb.min()) + 1e-12)
    order = np.where(feasible, cuts_g, np.inf)
    best = int(np.argmin(order))
    return DistGeoSelection(
        sd_own=sval_own[:, best] - thresholds[best],
        best_cut=float(cuts_g[best]),
        candidates=cfg.ncircles,
    )


def dist_strip_refine(
    comm: Comm,
    graph: CSRGraph,
    selection: DistGeoSelection,
    *,
    config: Optional[ScalaPartConfig] = None,
):
    """Rank program: strip refinement of a selected separator (stage 4).

    Assembles the winning side from the per-rank signed distances, then
    gathers the (small) strip to the subtree root, runs FM there and
    broadcasts the result.  Returns ``(side, info)``.
    """
    from ..core.config import ScalaPartConfig

    cfg = config or ScalaPartConfig()
    p = comm.size
    comm.set_phase("partition/strip")
    sd_full = yield from allgather_concat(comm, selection.sd_own)
    side = (sd_full > 0).astype(np.int8)
    result = None
    if comm.rank == 0:
        bis = Bisection(graph, side)
        refined = strip_refine(
            bis, sd_full,
            factor=cfg.strip_factor,
            max_imbalance=cfg.max_imbalance,
        )
        result = (
            refined.bisection.side,
            {
                "geometric_cut": selection.best_cut,
                "strip_size": refined.strip_size,
                "strip_factor": refined.strip_factor,
                "candidates": selection.candidates,
            },
        )
    # strip work is proportional to the strip, not the graph
    sep_guess = max(1.0, selection.best_cut)
    comm.charge(cfg.strip_factor * sep_guess * 8 / p)
    side_final, info = (yield from share_from_root(
        comm, result,
        words=cfg.strip_factor * sep_guess
        / max(1.0, math.log2(p) if p > 1 else 1.0),
    ))
    comm.set_phase("partition")
    return side_final, info

