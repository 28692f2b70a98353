"""Multilevel graph embedding: projection + fixed-lattice smoothing.

Sequential form of the paper's embedding pipeline (§3, "Multilevel
Fixed Lattice Parallel Graph Embedding" and "Multilevel Projection and
Smoothing"):

1. coarsen with heavy-edge matching, retaining every other graph so
   sizes drop ~4× per level;
2. embed the coarsest graph (a few hundred vertices) with the exact
   force-directed scheme from random initial coordinates;
3. walking back up, every fine vertex inherits its super-vertex's
   coordinates *scaled by 2 per axis* (the bounding box quadruples in
   area as the vertex count quadruples) plus a small random translation,
   and the level is smoothed with a few fixed-lattice FDL iterations.

The same function doubles as our stand-in for Hu's Mathematica layout
code (which the paper uses to give coordinates to RCB and the
sequential geometric partitioners): :func:`hu_layout` simply runs it
with Barnes–Hut smoothing for a few extra iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from ..coarsen import Hierarchy, build_hierarchy, heavy_edge_matching
from ..errors import EmbeddingError
from ..graph.csr import CSRGraph
from ..rng import SeedLike, as_generator, derive_seed
from .box import Box
from .fdl import LayoutResult, force_directed_layout, random_positions
from .lattice import LatticeWorkspace, repulsive_forces_lattice
from .quadtree import repulsive_forces_bh

__all__ = ["EmbeddingResult", "multilevel_embedding", "hu_layout", "lattice_side_for"]


@dataclass(frozen=True)
class EmbeddingResult:
    """Coordinates for the input graph plus per-level diagnostics."""

    pos: np.ndarray
    hierarchy: Hierarchy
    level_iterations: List[int]
    coarsest_result: LayoutResult

    @property
    def num_levels(self) -> int:
        return self.hierarchy.num_levels


#: stop coarsening near this many vertices (paper §3: "hundreds or few
#: thousands"); shared with the distributed driver
COARSEST_SIZE = 160
#: jitter of inherited child coordinates (× K) during projection
JITTER = 0.25

#: average vertices per lattice cell on the sequential refined levels
LATTICE_PER_CELL = 32.0
#: largest lattice side the sequential smoother uses
LATTICE_MAX_SIDE = 64


def lattice_side_for(n: int) -> int:
    """Lattice side so cells hold ~:data:`LATTICE_PER_CELL` vertices on
    average (at most :data:`LATTICE_MAX_SIDE` cells per axis).

    The distributed algorithm fixes ``s = √P``; the sequential smoother
    picks the side from the level size instead (finer graphs get finer
    lattices, mirroring how P grows as levels refine).
    """
    if n < 1:
        return 1
    s = int(np.sqrt(n / LATTICE_PER_CELL)) or 1
    return int(min(LATTICE_MAX_SIDE, max(2, s)))


def multilevel_embedding(
    graph: CSRGraph,
    *,
    seed: SeedLike = None,
    coarsest_iters: int = 300,
    smooth_iters: int = 16,
    repulsion: str = "lattice",
    matcher=heavy_edge_matching,
) -> EmbeddingResult:
    """Embed an arbitrary graph in the plane.

    ``repulsion`` selects the smoothing kernel for the refined levels:
    ``"lattice"`` (the paper's scheme) or ``"bh"`` (Barnes–Hut, the
    higher-fidelity reference used for the ablation benchmarks).
    ``matcher`` is the matching kernel handed to
    :func:`~repro.coarsen.build_hierarchy` (the ScalaPart pipeline
    passes :func:`~repro.coarsen.heavy_edge_matching_vec`).
    """
    if repulsion not in ("lattice", "bh"):
        raise EmbeddingError(f"unknown repulsion {repulsion!r}")
    if graph.num_vertices == 0:
        empty = np.zeros((0, 2))
        return EmbeddingResult(
            empty, Hierarchy([graph], []), [],
            LayoutResult(empty, 0, True, 0.0, 0.0),
        )
    rng = as_generator(derive_seed(seed, 0xE3BED))
    h = build_hierarchy(
        graph, coarsest_size=COARSEST_SIZE, keep_every_other=True, seed=seed,
        matcher=matcher,
    )

    # -- coarsest level: exact forces from random coordinates ----------
    coarsest = h.coarsest
    pos = random_positions(coarsest.num_vertices, rng)
    coarse_res = force_directed_layout(
        coarsest,
        pos,
        masses=coarsest.vwgt,
        max_iters=coarsest_iters,
        repulsion="auto",
    )
    pos = coarse_res.pos
    level_iters = [coarse_res.iterations]

    # -- uncoarsen: inherit (scaled), jitter, smooth --------------------
    # One lattice workspace shared across all levels: buffers grow to
    # the finest level's size once and are reused (DESIGN §11).
    lat_ws = LatticeWorkspace()
    for level in range(h.num_levels - 2, -1, -1):
        g = h.graphs[level]
        cmap = h.cmaps[level]
        pos = 2.0 * pos[cmap]  # box scales by 2 per axis (paper §3)
        pos = pos + rng.normal(scale=JITTER, size=pos.shape)
        if repulsion == "lattice":
            s = lattice_side_for(g.num_vertices)
            box = Box.of_points(pos).expanded(1.05)
            kernel = partial(_lattice_kernel, box=box, s=s, ws=lat_ws)
        else:
            kernel = repulsive_forces_bh
        res = force_directed_layout(
            g,
            pos,
            masses=g.vwgt,
            max_iters=smooth_iters,
            step0=1.0,
            repulsion=kernel,
        )
        pos = res.pos
        level_iters.append(res.iterations)

    return EmbeddingResult(pos, h, level_iters, coarse_res)


def _lattice_kernel(pos, masses, c, k, box, s, ws=None):
    return repulsive_forces_lattice(pos, masses, c, k, box=box, s=s, workspace=ws)


def hu_layout(graph: CSRGraph, seed: SeedLike = None, smooth_iters: int = 30) -> np.ndarray:
    """High-quality multilevel force-directed coordinates.

    Stand-in for the Mathematica/Hu layout the paper uses to provide
    coordinates to RCB, G30, G7 and G7-NL (§4: "We provide such
    coordinates using the force-based graph drawing code ... developed
    by Hu").  Uses Barnes–Hut smoothing, which is closer to Hu's
    original algorithm than the fixed lattice.
    """
    return multilevel_embedding(
        graph, seed=seed, repulsion="bh", smooth_iters=smooth_iters
    ).pos
