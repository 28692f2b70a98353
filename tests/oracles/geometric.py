"""Oracles for :mod:`repro.geometric`.

* The per-group Radon reduction the stacked kernel replaced: one
  ``np.linalg.svd`` call per ``(d+2)``-point group, the λ⁺ combination
  summed over ``lam[pos]``, and a per-group centroid fallback.  The
  production kernel reduces all groups of a pass in one call and must
  reproduce these bit for bit.
* :func:`lift_reference`, the row-sum ``‖p‖²`` of
  :func:`repro.geometric.stereo.lift`.
* :func:`dist_geometric_reference`, the circle selection that maps
  every adjacency slot's far endpoint to the sphere and takes one
  mat-vec per candidate over all slots.  The production rank program
  reads each slot's side from per-vertex sides (owned rows plus the
  rank's ghosts) and must select the same circle with the same cut.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.config import ScalaPartConfig
from repro.errors import GeometryError
from repro.geometric.centerpoint import CENTERPOINT_SAMPLE, approx_centerpoint
from repro.geometric.circles import random_unit_vectors
from repro.geometric.parallel import _HIST_BINS, DistGeoSelection
from repro.geometric.stereo import project, rotation_to_south
from repro.graph.csr import CSRGraph
from repro.graph.distributed import adjacency_slots, block_of, block_starts
from repro.parallel.engine import Comm
from repro.parallel.patterns import allgather_concat
from repro.rng import SeedLike, as_generator, derive_seed


def radon_point_reference(points: np.ndarray) -> np.ndarray:
    """Radon point of ``d+2`` points in ℝ^d, one group per call."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 2:
        raise GeometryError(f"radon_point needs (d+2, d) points, got {pts.shape}")
    d = pts.shape[1]
    a = np.vstack([np.ones((1, d + 2)), pts.T])  # (d+1, d+2)
    _, _, vh = np.linalg.svd(a)
    lam = vh[-1]
    pos = lam > 0
    s_pos = lam[pos].sum()
    if s_pos <= 1e-300 or pos.all():
        # numerically degenerate configuration: fall back to centroid
        return pts.mean(axis=0)
    return (lam[pos, None] * pts[pos]).sum(axis=0) / s_pos


def approx_centerpoint_reference(
    points: np.ndarray,
    seed: SeedLike = None,
    sample_size: int = CENTERPOINT_SAMPLE,
) -> np.ndarray:
    """Iterated Radon reduction with a Python loop over the groups."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise GeometryError("approx_centerpoint expects (n, d) points")
    n, d = pts.shape
    if n == 0:
        raise GeometryError("cannot take the centerpoint of no points")
    g = d + 2
    if n <= g:
        return pts.mean(axis=0)
    rng = as_generator(seed)
    if n > sample_size:
        pts = pts[rng.choice(n, size=sample_size, replace=False)]
    current = pts
    while current.shape[0] > g:
        order = rng.permutation(current.shape[0])
        current = current[order]
        ngroups = current.shape[0] // g
        reduced = [
            radon_point_reference(current[i * g : (i + 1) * g])
            for i in range(ngroups)
        ]
        leftover = current[ngroups * g :]
        current = np.vstack([np.asarray(reduced), leftover]) if reduced else leftover
    return current.mean(axis=0)


def lift_reference(points: np.ndarray) -> np.ndarray:
    """Inverse stereographic projection with a row-sum ``‖p‖²``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise GeometryError(f"lift expects (n, 2) points, got {points.shape}")
    r2 = (points * points).sum(axis=1)
    denom = r2 + 1.0
    out = np.empty((points.shape[0], 3))
    out[:, 0] = 2.0 * points[:, 0] / denom
    out[:, 1] = 2.0 * points[:, 1] / denom
    out[:, 2] = (r2 - 1.0) / denom
    return out


def dist_geometric_reference(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    *,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
):
    """Rank program: circle selection with per-slot side evaluation."""
    cfg = config or ScalaPartConfig()
    n = graph.num_vertices
    p = comm.size
    starts = block_starts(n, p)
    lo, hi = block_of(starts, comm.rank)
    owned = np.arange(lo, hi, dtype=np.int64)

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
    centre = np.median(sample, axis=0)
    radii = np.linalg.norm(sample - centre, axis=1)
    scale = float(np.median(radii)) or 1.0
    lifted_sample = lift_reference((sample - centre) / scale)
    cp = approx_centerpoint(lifted_sample, seed=derive_seed(seed, 0xCE27))
    comm.charge(float(lifted_sample.shape[0]) * 8)

    own_lift = lift_reference((pos_full[lo:hi] - centre) / scale)
    rot = rotation_to_south(cp) if np.linalg.norm(cp) > 1e-15 else np.eye(3)
    r = min(float(np.linalg.norm(cp)), 1.0 - 1e-9)
    alpha = math.sqrt((1.0 + r) / (1.0 - r))
    own_u = lift_reference(project(own_lift @ rot.T) * alpha)
    comm.charge(float(hi - lo) * 12)

    normals = random_unit_vectors(
        np.random.default_rng(derive_seed(seed, 0x6C1)), cfg.ncircles, 3
    )
    sval_own = own_u @ normals.T
    comm.charge(float(hi - lo) * cfg.ncircles * 3)

    comm.set_phase("partition/select")
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

    full_norm = (pos_full - centre) / scale
    src_pos, src, dst, w = adjacency_slots(graph, owned)
    dst_u = (
        lift_reference(project(lift_reference(full_norm[dst]) @ rot.T) * alpha)
        if dst.size else np.zeros((0, 3))
    )
    comm.charge(float(dst.shape[0]) * 12)
    cuts = np.zeros(cfg.ncircles)
    bal = np.zeros(cfg.ncircles)
    for cidx in range(cfg.ncircles):
        side_src = sval_own[:, cidx][src_pos] > thresholds[cidx]
        side_dst = (dst_u @ normals[cidx]) > thresholds[cidx]
        cuts[cidx] = float(w[side_src != side_dst].sum()) / 2.0
        own_side = sval_own[:, cidx] > thresholds[cidx]
        bal[cidx] = float(graph.vwgt[lo:hi][own_side].sum())
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
