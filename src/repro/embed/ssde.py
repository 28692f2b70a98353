"""Sampled spectral distance embedding (SSDE, Çivril et al. 2007).

The paper's conclusions propose this exact extension: "Embedding times
may also potentially decrease if sampled spectral distance embedding
schemes can be combined with our current approach."  SSDE embeds a
graph by (1) sampling a small set of *landmark* vertices, (2) computing
BFS (hop) distances from each landmark, (3) positioning the landmarks
by classical multidimensional scaling of their mutual distances, and
(4) placing every other vertex by least-squares triangulation against
the landmark frame.

Here it serves two roles: the start of the coarsest-graph layout in
both ScalaPart drivers (:func:`repro.embed.multilevel.coarsest_layout`
scales it into a ``√n`` box and smooths it with Hu's layout, so the
multilevel scheme begins from the graph's global shape), and an
ablation subject (``benchmarks/bench_ablation_ssde.py``) quantifying
the paper's conjecture on our suite.
"""

from __future__ import annotations


import numpy as np

from ..errors import EmbeddingError
from ..graph.csr import CSRGraph
from ..rng import SeedLike, as_generator

__all__ = ["bfs_hops", "ssde_embedding"]


def bfs_hops(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (-1 if unreachable).

    Level-synchronous BFS over the CSR arrays; each frontier expansion
    is vectorised.
    """
    n = graph.num_vertices
    if not (0 <= source < n):
        raise EmbeddingError(f"BFS source {source} out of range")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        level += 1
        # gather all neighbours of the frontier
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        base = np.repeat(indptr[frontier], counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        nbrs = indices[base + offs]
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        dist[fresh] = level
        frontier = fresh
    return dist


def ssde_embedding(
    graph: CSRGraph,
    landmarks: int = 12,
    seed: SeedLike = None,
    dim: int = 2,
) -> np.ndarray:
    """SSDE coordinates for every vertex (``(n, dim)``).

    Landmarks are sampled with a max-min (farthest-point) strategy so
    they spread over the graph; disconnected vertices fall back to
    random positions near the centroid.
    """
    n = graph.num_vertices
    if n <= 1:
        return np.zeros((n, dim))
    rng = as_generator(seed)
    k = int(min(max(dim + 1, landmarks), n))

    # farthest-point landmark selection
    first = int(rng.integers(n))
    lm = [first]
    dists = [bfs_hops(graph, first)]
    while len(lm) < k:
        stack = np.stack([np.where(d < 0, 0, d) for d in dists])
        far = int(np.argmax(stack.min(axis=0)))
        if far in lm:
            far = int(rng.integers(n))
        lm.append(far)
        dists.append(bfs_hops(graph, far))
    d = np.stack(dists, axis=1).astype(np.float64)  # (n, k)
    unreachable = d < 0
    if unreachable.any():
        d[unreachable] = d[~unreachable].max() + 1 if (~unreachable).any() else 1.0

    # classical MDS on the landmark-landmark distances
    dl = d[lm, :]  # (k, k)
    d2 = dl**2
    j = np.eye(k) - np.ones((k, k)) / k
    b = -0.5 * j @ d2 @ j
    w, v = np.linalg.eigh(b)
    order = np.argsort(w)[::-1][:dim]
    lam = np.maximum(w[order], 1e-12)
    lpos = v[:, order] * np.sqrt(lam)  # (k, dim)

    # triangulate everyone else: least squares against landmark frame
    # ||x - l_i||^2 = d_i^2  =>  2(l_1 - l_i)x = d_i^2 - d_1^2 + |l_1|^2...
    # standard linearisation against the first landmark
    a = 2.0 * (lpos[1:] - lpos[0])  # (k-1, dim)
    l2 = (lpos**2).sum(axis=1)
    rhs = (d[:, :1] ** 2 - d[:, 1:] ** 2).T + (l2[1:] - l2[0])[:, None]  # (k-1, n)
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    pos = sol.T  # (n, dim)
    # pin the landmarks to their MDS positions exactly
    pos[lm] = lpos
    # degenerate graphs (no edges): scatter randomly
    bad = ~np.isfinite(pos).all(axis=1)
    if bad.any():
        centre = pos[~bad].mean(axis=0) if (~bad).any() else np.zeros(dim)
        pos[bad] = centre + rng.normal(scale=1.0, size=(int(bad.sum()), dim))
    return pos
