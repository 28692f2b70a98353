"""Geometric mesh partitioning (Gilbert–Miller–Teng) drivers.

The sequential partitioner the paper calls G30 / G7 / G7-NL (§4):

* normalise the coordinates, lift them onto the sphere;
* for each of ``ncenterpoints`` approximate centerpoints, conformally
  centre the point set and draw random great circles through the centre;
* optionally add random line separators in the plane (the "-NL"
  variants drop these, as does ScalaPart's parallel formulation, "in
  the interests of parallel scalability");
* every candidate is balance-shifted to the weighted median; the
  candidate with the smallest cut wins.

Naming follows the paper exactly:

===========  ========  ======  ============
variant      circles   lines   centerpoints
===========  ========  ======  ============
``g30``      23        7       2
``g7``       5         2       1
``g7_nl``    5         0       1
===========  ========  ======  ============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import GeometryError
from ..graph.csr import CSRGraph
from ..graph.partition import Bisection
from ..rng import SeedLike, as_generator, derive_seed
from .centerpoint import CENTERPOINT_SAMPLE, approx_centerpoint
from .circles import Candidate, circle_candidates, evaluate_cuts, line_candidates
from .stereo import conformal_to_center, lift

__all__ = ["GMTResult", "normalize_coords", "geometric_partition", "g30", "g7", "g7_nl"]


@dataclass(frozen=True)
class GMTResult:
    """Best separator found by the geometric partitioner."""

    bisection: Bisection
    sdist: np.ndarray  # signed-distance proxy of the winning separator
    kind: str  # "circle" or "line"
    cut: float
    candidates: int

    @property
    def cut_size(self) -> int:
        return self.bisection.cut_size


def normalize_coords(coords: np.ndarray) -> np.ndarray:
    """Centre at the coordinate-wise median and scale to median radius 1.

    The stereographic lift is scale-sensitive: points far from the
    origin crowd the north pole.  This normalisation (same role as
    meshpart's) spreads the lifted points over the sphere.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise GeometryError(f"coords must be (n, 2), got {coords.shape}")
    centred = coords - np.median(coords, axis=0)
    radii = np.linalg.norm(centred, axis=1)
    scale = float(np.median(radii))
    if scale <= 1e-300:
        scale = float(radii.max()) or 1.0
    return centred / scale


def geometric_partition(
    graph: CSRGraph,
    coords: np.ndarray,
    *,
    ncircles: int = 5,
    nlines: int = 0,
    ncenterpoints: int = 1,
    seed: SeedLike = None,
    sample_size: int = CENTERPOINT_SAMPLE,
) -> GMTResult:
    """Run the GMT partitioner with the given candidate budget."""
    n = graph.num_vertices
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (n, 2):
        raise GeometryError(f"coords must be ({n}, 2), got {coords.shape}")
    if ncircles < 0 or nlines < 0 or ncenterpoints < 1:
        raise GeometryError("candidate counts must be nonnegative (>=1 centerpoint)")
    if ncircles + nlines == 0:
        raise GeometryError("need at least one candidate separator")
    if n < 2:
        raise GeometryError("cannot bisect a graph with fewer than 2 vertices")
    rng = as_generator(derive_seed(seed, 0x93))

    norm = normalize_coords(coords)
    upts = lift(norm)
    candidates: List[Candidate] = []

    # distribute the circle budget over the centerpoints
    share = [ncircles // ncenterpoints] * ncenterpoints
    for i in range(ncircles % ncenterpoints):
        share[i] += 1
    for i, k in enumerate(share):
        if k == 0:
            continue
        cp = approx_centerpoint(upts, seed=derive_seed(seed, 0xC0, i),
                                sample_size=sample_size)
        mapped, _, _ = conformal_to_center(upts, cp)
        candidates.extend(circle_candidates(mapped, graph.vwgt, k, rng))
    if nlines:
        candidates.extend(line_candidates(norm, graph.vwgt, nlines, rng))

    cuts = evaluate_cuts(graph, candidates)
    best = int(np.argmin(cuts))
    c = candidates[best]
    return GMTResult(
        bisection=Bisection(graph, c.side),
        sdist=c.sdist,
        kind=c.kind,
        cut=float(cuts[best]),
        candidates=len(candidates),
    )


def g30(graph: CSRGraph, coords: np.ndarray, seed: SeedLike = None) -> GMTResult:
    """Best of 30 tries: 23 great circles (2 centerpoints) + 7 lines."""
    return geometric_partition(
        graph, coords, ncircles=23, nlines=7, ncenterpoints=2, seed=seed
    )


def g7(graph: CSRGraph, coords: np.ndarray, seed: SeedLike = None) -> GMTResult:
    """Best of 7 tries: 5 great circles (1 centerpoint) + 2 lines."""
    return geometric_partition(
        graph, coords, ncircles=5, nlines=2, ncenterpoints=1, seed=seed
    )


def g7_nl(graph: CSRGraph, coords: np.ndarray, seed: SeedLike = None) -> GMTResult:
    """G7 without line separators — the variant ScalaPart parallelises."""
    return geometric_partition(
        graph, coords, ncircles=5, nlines=0, ncenterpoints=1, seed=seed
    )
