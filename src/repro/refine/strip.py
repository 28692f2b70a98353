"""Coordinate-strip extraction and strip-restricted FM refinement.

ScalaPart's refinement (paper §3, Figure 2): after the geometric
partitioner picks its best separating circle, "we select circles
neighboring the separating circle to identify a strip" — the set of
vertices whose (signed) distance to the separator is small — and apply
Fiduccia–Mattheyses restricted to that strip.  The paper notes the strip
"contains a small multiple of the number of vertices in the edge
separator" (5.6× in Figure 2), so the refinement cost is negligible.

This differs from Pt-Scotch's band graph only in how the band is
selected: by *coordinate distance* to the separator instead of by hop
count from cut edges.

The FM passes run over the strip alone: :func:`repro.refine.fm.fm_refine`
with a ``movable`` mask sets up gains, boundary and its working lists
for the movable rows and their adjacency slots only, so a pass costs
the strip, not the graph.  Selecting the strip (one ``argpartition`` of
the distances and the boundary) and checking the cut before and after
stay whole-graph vectorised scans, once per refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from ..graph.partition import Bisection
from .fm import FMResult, fm_refine

__all__ = ["StripResult", "strip_mask", "strip_refine"]


@dataclass(frozen=True)
class StripResult:
    """Outcome of :func:`strip_refine`."""

    bisection: Bisection
    strip_size: int
    separator_vertices: int
    initial_cut: float
    final_cut: float

    @property
    def strip_factor(self) -> float:
        """Strip size as a multiple of the separator vertex count
        (Figure 2 reports 5.6 for delaunay_n16)."""
        if self.separator_vertices == 0:
            return 0.0
        return self.strip_size / self.separator_vertices


def strip_mask(
    signed_distance: np.ndarray,
    bisection: Bisection,
    factor: float = 6.0,
    min_size: int = 32,
) -> np.ndarray:
    """Boolean mask of the strip around the separator.

    Takes the vertices closest to the separating surface (smallest
    ``|signed_distance|``) until the strip holds ``factor`` times the
    number of separator vertices (at least ``min_size``); all boundary
    vertices are always included so FM can move every cut endpoint.
    """
    sdist = np.asarray(signed_distance, dtype=np.float64)
    n = bisection.graph.num_vertices
    if sdist.shape != (n,):
        raise PartitionError("signed_distance must have one entry per vertex")
    if factor <= 0:
        raise PartitionError("strip factor must be positive")
    boundary = bisection.boundary_vertices()
    target = int(min(n, max(min_size, factor * boundary.shape[0])))
    mask = np.zeros(n, dtype=bool)
    if target > 0:
        nearest = np.argpartition(np.abs(sdist), min(target, n) - 1)[:target]
        mask[nearest] = True
    mask[boundary] = True
    return mask


def strip_refine(
    bisection: Bisection,
    signed_distance: np.ndarray,
    factor: float = 6.0,
    max_imbalance: float = 0.05,
    max_passes: int = 6,
) -> StripResult:
    """FM refinement restricted to the coordinate strip.

    Vertices outside the strip are frozen: they contribute to gains
    through their edges but never move, so the refinement cost scales
    with the separator size, not the graph size.
    """
    mask = strip_mask(signed_distance, bisection, factor=factor)
    sep = bisection.boundary_vertices().shape[0]
    fm: FMResult = fm_refine(
        bisection,
        max_imbalance=max_imbalance,
        max_passes=max_passes,
        movable=mask,
    )
    return StripResult(
        bisection=fm.bisection,
        strip_size=int(mask.sum()),
        separator_vertices=sep,
        initial_cut=fm.initial_cut,
        final_cut=fm.final_cut,
    )
