"""Approximate centerpoints via iterated Radon reduction.

A *centerpoint* of a point set in ℝ^d is a point such that every
halfspace containing it contains ≥ n/(d+1) of the points; GMT's balance
guarantee for great-circle separators rests on cutting through one.
Exact centerpoints are expensive; the standard approximation (Clarkson
et al., used by the meshpart implementation the paper builds on) is
*Radon reduction*: repeatedly replace random groups of d+2 points by
their Radon point — a point common to the convex hulls of both halves
of a Radon partition — until few points remain; their centroid is the
answer.  The paper's parallel formulation computes this "fast using
sampling across processors", which
:func:`repro.geometric.parallel` reuses directly via ``sample_size``.

Every rank of the distributed geometric stage reduces the same sample,
so each pass reduces all of its groups at once: one stacked
``np.linalg.svd`` and masked λ⁺ sums (:func:`_radon_points`), with the
bits of a LAPACK call per group for ``d ≤ 6``.
"""

from __future__ import annotations


import numpy as np

from ..errors import GeometryError
from ..rng import SeedLike, as_generator

__all__ = ["CENTERPOINT_SAMPLE", "radon_point", "approx_centerpoint",
           "centerpoint_depth"]


def _radon_points(groups: np.ndarray) -> np.ndarray:
    """Radon points of a stack of ``(d+2)``-point groups.

    ``groups`` is ``(G, d+2, d)``; returns ``(G, d)``.  All ``G`` null
    spaces come from one stacked ``np.linalg.svd`` call, which runs the
    same LAPACK routine on each ``(d+1, d+2)`` matrix as a call per
    group would.  The λ⁺ sums are masked sums in index order: numpy
    sums fewer than eight terms left to right, so for ``d ≤ 6`` each
    group's result is bit-identical to reducing ``lam[pos]`` and
    ``lam[pos, None] * pts[pos]`` of that group alone (at ``d ≥ 7``
    numpy sums ``lam[pos]`` pairwise and the last bit can differ; the
    callers use ``d = 2`` and ``3``).  Both sums start
    from ``+0.0`` as numpy's do, and adding ``-0.0`` in place of a
    masked-out term leaves every partial sum unchanged, signed zeros
    included.
    """
    ngroups, g, d = groups.shape
    a = np.empty((ngroups, d + 1, g))
    a[:, 0, :] = 1.0
    a[:, 1:, :] = groups.transpose(0, 2, 1)
    lam = np.linalg.svd(a)[2][:, -1, :]  # (G, d+2) null vectors
    pos = lam > 0
    s_pos = np.zeros(ngroups)
    acc = np.zeros((ngroups, d))
    for i in range(g):
        s_pos += np.where(pos[:, i], lam[:, i], 0.0)
        acc += np.where(pos[:, i, None], lam[:, i, None] * groups[:, i], -0.0)
    # numerically degenerate configuration: fall back to the centroid
    fallback = (s_pos <= 1e-300) | pos.all(axis=1)
    out = acc / np.where(fallback, 1.0, s_pos)[:, None]
    if fallback.any():
        out[fallback] = groups[fallback].mean(axis=1)
    return out


def radon_point(points: np.ndarray) -> np.ndarray:
    """Radon point of ``d+2`` points in ℝ^d.

    Solves ``Σλ_i = 0, Σλ_i p_i = 0`` for a nontrivial λ (null space of
    the ``(d+1) × (d+2)`` system); the Radon point is the convex
    combination of the positive-λ points with weights λ⁺.  A one-group
    call of the stacked kernel :func:`approx_centerpoint` reduces with.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 2:
        raise GeometryError(f"radon_point needs (d+2, d) points, got {pts.shape}")
    return _radon_points(pts[None])[0]


#: points the approximate centerpoint reduces (the sequential sample,
#: and the total the distributed partitioners gather over all ranks)
CENTERPOINT_SAMPLE = 1000


def approx_centerpoint(
    points: np.ndarray,
    seed: SeedLike = None,
    sample_size: int = CENTERPOINT_SAMPLE,
) -> np.ndarray:
    """Approximate centerpoint by iterated Radon reduction.

    A random sample of ``sample_size`` points is repeatedly reduced:
    each pass shuffles the current set, groups it into (d+2)-tuples and
    replaces every tuple by its Radon point; leftovers carry over.  The
    final handful is averaged.  Each pass is one stacked call of the
    Radon kernel over all its groups.
    """
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
        cut = current.shape[0] // g * g
        reduced = _radon_points(current[:cut].reshape(-1, g, d))
        current = np.vstack([reduced, current[cut:]])
    return current.mean(axis=0)


def centerpoint_depth(points: np.ndarray, cp: np.ndarray, ntrials: int = 200,
                      seed: SeedLike = None) -> float:
    """Empirical Tukey-depth lower bound of ``cp`` (testing helper).

    Samples random directions and returns the minimum fraction of
    points on the lighter side of the hyperplane through ``cp``.  A true
    centerpoint in ℝ^d has depth ≥ 1/(d+1).
    """
    pts = np.asarray(points, dtype=np.float64)
    cp = np.asarray(cp, dtype=np.float64)
    rng = as_generator(seed)
    dirs = rng.normal(size=(ntrials, pts.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = (pts - cp) @ dirs.T  # (n, ntrials)
    frac_pos = (proj > 0).mean(axis=0)
    return float(np.minimum(frac_pos, 1.0 - frac_pos).min())
