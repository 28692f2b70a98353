"""Oracles for the embedding kernels of :mod:`repro.embed`.

The pre-optimisation bodies of the attraction kernel, the layout loop,
the β field and the fixed-lattice repulsion.  The production kernels
reuse workspaces and fuse passes; they must reproduce these bit for
bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.embed.box import Box, cell_ids
from repro.embed.fdl import (
    _PROGRESS_LIMIT,
    _T,
    LayoutResult,
    RepulsionLike,
    _resolve_repulsion,
)
from repro.embed.forces import DEFAULT_C, _EPS2
from repro.embed.lattice import LatticeStats, lattice_stats
from repro.errors import EmbeddingError
from repro.graph.csr import CSRGraph


def attractive_forces_reference(
    graph: CSRGraph, pos: np.ndarray, k: float = 1.0
) -> np.ndarray:
    """Pre-optimisation attraction (``np.add.at`` scatter): the
    workspace-backed kernel must match it on every graph family."""
    pos = np.asarray(pos, dtype=np.float64)
    n = graph.num_vertices
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos must be ({n}, 2), got {pos.shape}")
    if k <= 0:
        raise EmbeddingError("K must be positive")
    src = graph.edge_sources()
    dst = graph.indices
    d = pos[dst] - pos[src]
    dist = np.sqrt((d * d).sum(axis=1))
    mag = dist / k * graph.ewgt
    f = d * mag[:, None]
    out = np.zeros((n, 2))
    np.add.at(out, src, f)
    return out


def force_directed_layout_reference(
    graph: CSRGraph,
    pos0: np.ndarray,
    *,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    max_iters: int = 100,
    tol: float = 1e-3,
    step0: Optional[float] = None,
    repulsion: RepulsionLike = "auto",
    fixed: Optional[np.ndarray] = None,
) -> LayoutResult:
    """Pre-optimisation layout loop (fresh temporaries every iteration,
    ``np.add.at`` attraction): the workspace-backed loop must match it."""
    n = graph.num_vertices
    pos = np.array(pos0, dtype=np.float64, copy=True)
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos0 must be ({n}, 2), got {pos.shape}")
    if max_iters < 0:
        raise EmbeddingError("max_iters must be nonnegative")
    if masses is None:
        masses = graph.vwgt
    masses = np.asarray(masses, dtype=np.float64)
    if fixed is not None:
        fixed = np.asarray(fixed, dtype=bool)
        if fixed.shape != (n,):
            raise EmbeddingError("fixed mask must have one entry per vertex")
        if fixed.all():
            return LayoutResult(pos, 0, True, 0.0, 0.0)
    rep = _resolve_repulsion(repulsion, n)

    step = float(step0) if step0 is not None else k
    energy_prev = np.inf
    progress = 0
    converged = False
    it = 0
    energy = 0.0
    for it in range(1, max_iters + 1):
        f = attractive_forces_reference(graph, pos, k) + rep(pos, masses, c, k)
        if fixed is not None:
            f[fixed] = 0.0
        norms = np.sqrt((f * f).sum(axis=1))
        energy = float((norms * norms).sum())
        move = np.zeros_like(pos)
        active = norms > 1e-300
        move[active] = f[active] / norms[active, None] * step
        pos += move
        if energy < energy_prev:
            progress += 1
            if progress >= _PROGRESS_LIMIT:
                progress = 0
                step /= _T
        else:
            progress = 0
            step *= _T
        energy_prev = energy
        if step < tol * k:
            converged = True
            break
    return LayoutResult(pos, it, converged, step, energy)


def beta_force_field_reference(
    stats: LatticeStats, c: float = DEFAULT_C, k: float = 1.0
) -> np.ndarray:
    """Pre-optimisation field kernel (full ``(B, B, 2)`` temporaries)."""
    com, mass = stats.com, stats.mass
    d = com[:, None, :] - com[None, :, :]
    r2 = (d * d).sum(axis=2) + _EPS2
    np.fill_diagonal(r2, np.inf)
    w = c * k * k * mass[None, :] / r2
    field = (d * w[:, :, None]).sum(axis=1)
    field[mass == 0] = 0.0
    return field


def repulsive_forces_lattice_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    box: Optional[Box] = None,
    s: int = 16,
    stats: Optional[LatticeStats] = None,
) -> np.ndarray:
    """Pre-optimisation lattice kernel (double ``cell_ids``, ~10 fresh
    temporaries per call)."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if box is None:
        box = Box.of_points(pos)
    if stats is None:
        stats = lattice_stats(pos, masses, box, s)
    elif stats.s != s:
        raise EmbeddingError(f"stats built for s={stats.s}, requested s={s}")

    field = beta_force_field_reference(stats, c, k)
    cid = cell_ids(pos, box, s)
    out = field[cid] * masses[:, None]

    d = pos - stats.com[cid]
    r2 = (d * d).sum(axis=1) + _EPS2
    m_other = np.maximum(stats.mass[cid] - masses, 0.0)
    out += d * (c * k * k * masses * m_other / r2)[:, None]
    return out
