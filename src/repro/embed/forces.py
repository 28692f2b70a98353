"""Force laws of the embedding (Hu 2006, as adapted by the paper).

The paper (§2) uses attractive forces between neighbours and repulsive
forces between all pairs:

.. math::

    F_a(i) = \\sum_{(i,j) \\in E} \\frac{\\lVert c_i - c_j \\rVert^2}{K},
    \\qquad
    F_r(i) = -\\sum_{j \\ne i} \\frac{C K^2}{\\lVert c_i - c_j \\rVert}

with "twiddle factors" C and K.  These are force *magnitudes*; in
vector form the attractive force on ``i`` from neighbour ``j`` is
``(c_j − c_i) · ‖c_j − c_i‖ / K`` and the repulsive force is
``(c_i − c_j) · C K² μ_i μ_j / ‖c_i − c_j‖²`` (masses enter in the
multilevel/aggregated setting where a vertex stands for μ original
vertices; μ ≡ 1 recovers the formulas above).

This module provides the exact (all-pairs) implementations used as
ground truth for the approximations in :mod:`repro.embed.quadtree`
(Barnes–Hut) and :mod:`repro.embed.lattice` (the paper's fixed lattice).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import EmbeddingError
from ..graph.csr import CSRGraph

__all__ = [
    "DEFAULT_C",
    "AttractiveWorkspace",
    "attractive_forces",
    "repulsive_forces_exact",
    "spring_energy",
]

#: Hu's default repulsion strength.
DEFAULT_C = 0.2

#: Softening added to squared distances so coincident points do not blow up.
_EPS2 = 1e-12


class AttractiveWorkspace:
    """Reusable scratch for :func:`attractive_forces`.

    Caches the per-slot source-vertex array (``edge_sources`` is a
    ``repeat`` the layout loop would otherwise rebuild every iteration)
    and the per-slot float scratch, keyed by the graph's adjacency
    identity.  One workspace serves one graph at a time; handing it a
    different graph re-sizes the buffers.
    """

    __slots__ = ("_indices_id", "src", "dx", "dy", "mag", "t", "out")

    def __init__(self) -> None:
        self._indices_id = None
        self.src = None

    def bind(self, graph: CSRGraph) -> None:
        if self._indices_id == id(graph.indices) and self.src is not None:
            return
        nslots = graph.indices.shape[0]
        self.src = graph.edge_sources()
        self.dx = np.empty(nslots)
        self.dy = np.empty(nslots)
        self.mag = np.empty(nslots)
        self.t = np.empty(nslots)
        self.out = np.empty((graph.num_vertices, 2))
        self._indices_id = id(graph.indices)


def attractive_forces(
    graph: CSRGraph,
    pos: np.ndarray,
    k: float = 1.0,
    *,
    workspace: Optional[AttractiveWorkspace] = None,
) -> np.ndarray:
    """Spring attraction along edges: ``(c_j − c_i)·‖d‖/K`` summed over
    incident edges, weighted by edge weight (coarse graphs carry
    accumulated weights).

    The per-source scatter is a ``bincount`` segment sum (bit-identical
    to the ``np.add.at`` it replaces — both accumulate in slot order —
    and ~6x faster: ``add.at`` is a buffered per-row scatter).  With a
    ``workspace`` the kernel reuses the slot scratch and the cached
    ``edge_sources`` array, making it allocation-free apart from the
    two ``bincount`` outputs.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = graph.num_vertices
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos must be ({n}, 2), got {pos.shape}")
    if k <= 0:
        raise EmbeddingError("K must be positive")
    ws = workspace if workspace is not None else AttractiveWorkspace()
    ws.bind(graph)
    src, dst = ws.src, graph.indices
    px, py = pos[:, 0], pos[:, 1]
    # d = pos[dst] - pos[src], column-wise into reusable buffers
    np.subtract(px[dst], px[src], out=ws.dx)
    np.subtract(py[dst], py[src], out=ws.dy)
    # dist = ||d||; dx² + dy² matches (d*d).sum(axis=1) bit for bit
    np.multiply(ws.dx, ws.dx, out=ws.mag)
    mag = ws.mag
    np.multiply(ws.dy, ws.dy, out=ws.t)
    np.add(mag, ws.t, out=mag)
    np.sqrt(mag, out=mag)
    # |F| = ||d||^2/K; the unit vector contributes another /||d||
    np.divide(mag, k, out=mag)
    np.multiply(mag, graph.ewgt, out=mag)
    np.multiply(ws.dx, mag, out=ws.dx)
    np.multiply(ws.dy, mag, out=ws.dy)
    out = ws.out
    out[:, 0] = np.bincount(src, weights=ws.dx, minlength=n)
    out[:, 1] = np.bincount(src, weights=ws.dy, minlength=n)
    return out


def repulsive_forces_exact(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
) -> np.ndarray:
    """All-pairs repulsion (O(n²), vectorised): ground truth for the
    Barnes–Hut and fixed-lattice approximations, and the scheme actually
    used on the (small) coarsest graph.

    The pair terms live in transposed matrices, ``dx[j, i] = x_i − x_j``,
    so the sum over ``j`` is a reduction over axis 0.  numpy reduces an
    outer axis row by row: the same sequential-over-``j`` order as a
    middle-axis reduction of the ``(n, n, 2)`` difference tensor (the
    oracle the tests compare against bit for bit), with contiguous rows
    and no short inner axis.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if n == 0:
        return np.zeros((0, 2))
    x, y = pos[:, 0], pos[:, 1]
    dx = x[None, :] - x[:, None]  # dx[j, i] = x_i - x_j
    dy = y[None, :] - y[:, None]
    r2 = dx * dx
    r2 += dy * dy
    r2 += _EPS2
    np.fill_diagonal(r2, np.inf)  # no self-repulsion
    scale = (c * k * k) * (masses[None, :] * masses[:, None])
    scale /= r2
    dx *= scale
    dy *= scale
    out = np.empty((n, 2))
    out[:, 0] = dx.sum(axis=0)
    out[:, 1] = dy.sum(axis=0)
    return out


def spring_energy(
    graph: CSRGraph,
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
) -> float:
    """Total system energy (attractive + repulsive potential).

    Used by Hu's adaptive step-length control: the step shrinks when a
    move fails to decrease energy.  O(n²); only called on small graphs
    and in tests.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    src = graph.edge_sources()
    d = pos[graph.indices] - pos[src]
    dist = np.sqrt((d * d).sum(axis=1))
    # attractive potential: integral of d^2/K is d^3/(3K); each edge twice
    e_att = float((graph.ewgt * dist**3).sum()) / (6.0 * k)
    if n > 1:
        dd = pos[:, None, :] - pos[None, :, :]
        r = np.sqrt((dd * dd).sum(axis=2) + _EPS2)
        np.fill_diagonal(r, 1.0)  # log(1) = 0: no self-potential
        # repulsive potential: integral of CK^2/d is CK^2 ln d
        e_rep = -float(
            (c * k * k * masses[:, None] * masses[None, :] * np.log(r)).sum()
        ) / 2.0
    else:
        e_rep = 0.0
    return e_att + e_rep
