"""Oracles for :mod:`repro.geometric.centerpoint`.

The per-group Radon reduction the stacked kernel replaced: one
``np.linalg.svd`` call per ``(d+2)``-point group, the λ⁺ combination
summed over ``lam[pos]``, and a per-group centroid fallback.  The
production kernel reduces all groups of a pass in one call and must
reproduce these bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometric.centerpoint import CENTERPOINT_SAMPLE
from repro.rng import SeedLike, as_generator


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
