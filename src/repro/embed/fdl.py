"""Adaptive force-directed layout (Hu 2006).

One smoothing engine drives every embedding in the library: the
coarsest-graph embedding, the per-level smoothing of the multilevel
scheme, and (through the ``repulsion`` hook) both the Barnes–Hut and
the paper's fixed-lattice approximations.

Per iteration each vertex moves a fixed *step length* in the direction
of its net force; the step adapts with Hu's schedule — shrink by ``t``
when the system's energy (Σ‖F‖², the standard cheap proxy) fails to
decrease, grow by ``1/t`` after five consecutive decreases.  The layout
converges when the step falls below ``tol · K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import EmbeddingError
from ..graph.csr import CSRGraph
from ..rng import SeedLike, as_generator
from .forces import (
    DEFAULT_C,
    AttractiveWorkspace,
    attractive_forces,
    repulsive_forces_exact,
)
from .quadtree import repulsive_forces_bh

__all__ = ["LayoutResult", "force_directed_layout", "random_positions"]

RepulsionLike = Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]

#: Hu's step-shrink factor.
_T = 0.9
#: consecutive energy decreases before the step grows again.
_PROGRESS_LIMIT = 5
#: graphs up to this size use the exact repulsion under ``repulsion="auto"``.
_AUTO_EXACT_CUTOFF = 600


@dataclass(frozen=True)
class LayoutResult:
    """Final positions plus convergence diagnostics."""

    pos: np.ndarray
    iterations: int
    converged: bool
    final_step: float
    final_energy: float


def random_positions(n: int, seed: SeedLike = None, span: Optional[float] = None) -> np.ndarray:
    """Random initial coordinates in a square of side ``span``
    (default ``√n``, giving unit expected point density as the force
    laws with K=1 assume)."""
    rng = as_generator(seed)
    if span is None:
        span = max(1.0, float(np.sqrt(max(n, 1))))
    return rng.random((n, 2)) * span


def _resolve_repulsion(repulsion: RepulsionLike, n: int):
    if callable(repulsion):
        return repulsion
    if repulsion == "exact":
        return lambda pos, m, c, k: repulsive_forces_exact(pos, m, c, k)
    if repulsion == "bh":
        return lambda pos, m, c, k: repulsive_forces_bh(pos, m, c, k)
    if repulsion == "auto":
        if n <= _AUTO_EXACT_CUTOFF:
            return lambda pos, m, c, k: repulsive_forces_exact(pos, m, c, k)
        return lambda pos, m, c, k: repulsive_forces_bh(pos, m, c, k)
    raise EmbeddingError(f"unknown repulsion scheme {repulsion!r}")


def force_directed_layout(
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
) -> LayoutResult:
    """Run Hu's adaptive FDL from ``pos0``.

    ``repulsion`` is ``"exact"``, ``"bh"``, ``"auto"`` or a callable
    ``f(pos, masses, c, k) -> (n,2) forces`` (the lattice scheme plugs
    in here).  Returns new positions; ``pos0`` is not mutated.
    """
    n = graph.num_vertices
    pos = np.array(pos0, dtype=np.float64, copy=True)
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos0 must be ({n}, 2), got {pos.shape}")
    if max_iters < 0:
        raise EmbeddingError("max_iters must be nonnegative")
    if masses is None:
        masses = graph.vwgt
    masses = np.asarray(masses, dtype=np.float64)
    rep = _resolve_repulsion(repulsion, n)

    # Preallocated step workspace: at steady state one smoothing
    # iteration performs no array allocations beyond the two bincount
    # outputs inside attractive_forces (DESIGN §11).
    att_ws = AttractiveWorkspace()
    f = np.empty((n, 2))
    norms = np.empty(n)
    sq = np.empty(n)
    move = np.empty((n, 2))

    step = float(step0) if step0 is not None else k
    energy_prev = np.inf
    progress = 0
    converged = False
    it = 0
    energy = 0.0
    for it in range(1, max_iters + 1):
        att = attractive_forces(graph, pos, k, workspace=att_ws)
        np.add(att, rep(pos, masses, c, k), out=f)
        # norms = ||f|| row-wise; fx² + fy² matches (f*f).sum(axis=1)
        np.multiply(f[:, 0], f[:, 0], out=norms)
        np.multiply(f[:, 1], f[:, 1], out=sq)
        np.add(norms, sq, out=norms)
        np.sqrt(norms, out=norms)
        np.multiply(norms, norms, out=sq)
        energy = float(sq.sum())
        move.fill(0.0)
        active = norms > 1e-300
        np.divide(f, norms[:, None], out=move, where=active[:, None])
        np.multiply(move, step, out=move)
        pos += move
        # Hu's adaptive schedule
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
