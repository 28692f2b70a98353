"""The three ScalaPart pipeline stages as reusable objects.

Paper §3's pipeline — multilevel embedding, geometric partitioning,
strip refinement — used to be written out twice: once sequentially in
:mod:`repro.core.scalapart` and once as rank programs in
:mod:`repro.core.parallel`.  This module expresses each stage as one
object with both faces:

* :meth:`Stage.run` — the sequential form, returning a typed
  :class:`StageArtifact` with wall-clock ``seconds``;
* :meth:`Stage.run_dist` — the distributed form, a rank-program
  generator for the SPMD engine (timing comes from the engine's phase
  accounting, so distributed artifacts carry ``seconds == 0``).

Both drivers consume the *same* stage instances (``EMBED_STAGE``,
``GEOMETRIC_STAGE``, ``STRIP_REFINE_STAGE``), so there is exactly one
place that encodes what a stage needs and what it produces.

Artifacts are re-feedable: an :class:`EmbeddingArtifact` captured from
one run can be handed to any coordinate-consuming method (SP-PG7-NL,
RCB, G30/G7/G7-NL) in place of a raw coordinate array — the Figure-4
comparison runs both partitioners on *identical* coordinates without
recomputing the embedding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..coarsen.matching import heavy_edge_matching_vec
from ..embed.multilevel import multilevel_embedding
from ..embed.parallel import dist_multilevel_embedding
from ..errors import GeometryError
from ..geometric.gmt import geometric_partition
from ..geometric.kway import dist_kway_geometric, kway_geometric_assign
from ..geometric.parallel import dist_geometric, dist_strip_refine
from ..graph.csr import CSRGraph
from ..graph.partition import Bisection, KWayPartition
from ..parallel.engine import Comm
from ..refine.kway import kway_refine
from ..refine.strip import strip_refine
from ..rng import SeedLike, derive_seed
from .config import ScalaPartConfig

__all__ = [
    "StageArtifact",
    "EmbeddingArtifact",
    "GeometricArtifact",
    "KWayArtifact",
    "RefineArtifact",
    "as_coords",
    "Stage",
    "EmbedStage",
    "GeometricStage",
    "KWayGeometricStage",
    "KWayRefineStage",
    "StripRefineStage",
    "EMBED_STAGE",
    "GEOMETRIC_STAGE",
    "KWAY_GEOMETRIC_STAGE",
    "KWAY_REFINE_STAGE",
    "STRIP_REFINE_STAGE",
    "SCALAPART_STAGES",
    "PARTITION_STAGES",
    "KWAY_STAGES",
]


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StageArtifact:
    """Typed output of one pipeline stage.

    ``seconds`` is the sequential wall-clock cost of producing the
    artifact (0 for distributed runs, where the engine's phase
    accounting is authoritative); ``info`` carries the stage's
    diagnostics in the same keys the drivers expose via
    ``PartitionResult.extras``.
    """

    stage: str
    seconds: float = 0.0
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EmbeddingArtifact(StageArtifact):
    """Planar coordinates for every vertex (the embed stage's output)."""

    coords: np.ndarray = None  # (n, 2)


@dataclass(frozen=True)
class GeometricArtifact(StageArtifact):
    """Winning separator of the geometric stage, plus its signed
    distances (what the strip stage refines within)."""

    bisection: Bisection = None
    sdist: np.ndarray = None
    cut: float = 0.0


@dataclass(frozen=True)
class RefineArtifact(StageArtifact):
    """Final bisection after strip-restricted FM."""

    bisection: Bisection = None


@dataclass(frozen=True)
class KWayArtifact(StageArtifact):
    """K-way labelling from the direct geometric assignment or the
    greedy boundary refinement."""

    partition: KWayPartition = None


def as_coords(obj) -> np.ndarray:
    """Coerce a coordinate source to an ``(n, 2)`` array.

    Accepts a raw array or an :class:`EmbeddingArtifact` — the hook
    that lets one captured embedding feed several methods.
    """
    if obj is None:
        raise GeometryError("this method needs coordinates (or an "
                            "EmbeddingArtifact), got None")
    if isinstance(obj, EmbeddingArtifact):
        return obj.coords
    if isinstance(obj, StageArtifact):
        raise GeometryError(
            f"expected an EmbeddingArtifact, got a {obj.stage!r} artifact"
        )
    return np.asarray(obj, dtype=np.float64)


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------

class Stage:
    """One pipeline stage with a sequential and a distributed face.

    ``upstream`` is the previous stage's artifact (``None`` for the
    first stage).  ``run`` returns a :class:`StageArtifact`;
    ``run_dist`` is a rank-program generator whose return value feeds
    the next stage's ``run_dist`` (the final stage returns the
    ``(side, info)`` pair the host packagers expect).
    """

    name: str = "stage"

    def run(self, graph: CSRGraph, upstream,
            config: Optional[ScalaPartConfig] = None,
            seed: SeedLike = None) -> StageArtifact:
        raise NotImplementedError

    def run_dist(self, comm: Comm, graph: CSRGraph, upstream,
                 config: Optional[ScalaPartConfig] = None,
                 seed: SeedLike = None):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class EmbedStage(Stage):
    """Stages 1–2: coarsen + multilevel fixed-lattice embedding."""

    name = "embed"

    def run(self, graph, upstream=None, config=None, seed=None):
        cfg = config or ScalaPartConfig()
        t0 = time.perf_counter()
        emb = multilevel_embedding(
            graph,
            seed=derive_seed(seed, 0xE3BED0),
            coarsest_iters=cfg.coarsest_iters,
            smooth_iters=cfg.smooth_iters,
            repulsion="lattice",
            matcher=heavy_edge_matching_vec,
        )
        return EmbeddingArtifact(
            stage=self.name,
            seconds=time.perf_counter() - t0,
            info={"levels": emb.num_levels},
            coords=emb.pos,
        )

    def run_dist(self, comm, graph, upstream=None, config=None, seed=None):
        cfg = config or ScalaPartConfig()
        pos, emb_info = yield from dist_multilevel_embedding(
            comm,
            graph,
            coarsest_iters=cfg.coarsest_iters,
            smooth_iters=cfg.smooth_iters,
            block_size=cfg.block_size,
            seed=derive_seed(seed, 0xE3BED0),
        )
        return EmbeddingArtifact(stage=self.name, info=emb_info, coords=pos)


class GeometricStage(Stage):
    """Stage 3: great-circle separators on the embedded graph.

    ``upstream`` is the coordinate source — an
    :class:`EmbeddingArtifact` or a raw ``(n, 2)`` array (the SP-PG7-NL
    entry point, where coordinates already exist).
    """

    name = "partition"

    def run(self, graph, upstream, config=None, seed=None):
        cfg = config or ScalaPartConfig()
        coords = as_coords(upstream)
        t0 = time.perf_counter()
        gmt = geometric_partition(
            graph,
            coords,
            ncircles=cfg.ncircles,
            nlines=0,
            ncenterpoints=1,
            seed=derive_seed(seed, 0x5B),
        )
        return GeometricArtifact(
            stage=self.name,
            seconds=time.perf_counter() - t0,
            info={"geometric_cut": gmt.cut},
            bisection=gmt.bisection,
            sdist=gmt.sdist,
            cut=gmt.cut,
        )

    def run_dist(self, comm, graph, upstream, config=None, seed=None):
        cfg = config or ScalaPartConfig()
        coords = as_coords(upstream)
        comm.set_phase(self.name)
        return (yield from dist_geometric(comm, graph, coords,
                                          config=cfg, seed=seed))


class StripRefineStage(Stage):
    """Stage 4: FM restricted to the strip around the winning circle."""

    name = "refine"

    def run(self, graph, upstream: GeometricArtifact, config=None, seed=None):
        cfg = config or ScalaPartConfig()
        t0 = time.perf_counter()
        refined = strip_refine(
            upstream.bisection,
            upstream.sdist,
            factor=cfg.strip_factor,
            max_imbalance=cfg.max_imbalance,
        )
        return RefineArtifact(
            stage=self.name,
            seconds=time.perf_counter() - t0,
            info={
                "strip_size": refined.strip_size,
                "strip_factor": refined.strip_factor,
            },
            bisection=refined.bisection,
        )

    def run_dist(self, comm, graph, upstream, config=None, seed=None):
        cfg = config or ScalaPartConfig()
        return (yield from dist_strip_refine(comm, graph, upstream,
                                             config=cfg))


class KWayGeometricStage(Stage):
    """Stage 3, K-way form: split the embedding into K centroid cells.

    Generalises :class:`GeometricStage` from one great circle to a
    balanced spherical K-means assignment.  ``upstream`` is the
    coordinate source; ``k`` and the resolved cost array arrive as
    keyword arguments from the driver.
    """

    name = "partition"

    def run(self, graph, upstream, config=None, seed=None, *,
            k: int = 2, costs=None):
        coords = as_coords(upstream)
        t0 = time.perf_counter()
        parts, info = kway_geometric_assign(
            graph,
            coords,
            k,
            costs=costs,
            seed=derive_seed(seed, 0x5B),
        )
        return KWayArtifact(
            stage=self.name,
            seconds=time.perf_counter() - t0,
            info=info,
            partition=KWayPartition(graph, parts, k, costs=costs),
        )

    def run_dist(self, comm, graph, upstream, config=None, seed=None, *,
                 k: int = 2, costs=None, max_imbalance=None):
        # the distributed form folds the root-side k-way refinement in
        # (like dist_strip_refine) and returns the final (parts, info)
        # pair the host packagers expect
        cfg = config or ScalaPartConfig()
        coords = as_coords(upstream)
        comm.set_phase(self.name)
        return (yield from dist_kway_geometric(
            comm, graph, coords,
            k=k, costs=costs, config=cfg,
            seed=derive_seed(seed, 0x5B),
            max_imbalance=max_imbalance,
        ))


class KWayRefineStage(Stage):
    """Stage 4, K-way form: greedy boundary refinement."""

    name = "refine"

    def run(self, graph, upstream: KWayArtifact, config=None, seed=None, *,
            max_imbalance=None):
        cfg = config or ScalaPartConfig()
        bound = cfg.max_imbalance if max_imbalance is None else max_imbalance
        t0 = time.perf_counter()
        refined = kway_refine(upstream.partition, max_imbalance=bound)
        return KWayArtifact(
            stage=self.name,
            seconds=time.perf_counter() - t0,
            info={
                "geometric_cut": refined.initial_cut,
                "refine_passes": refined.passes,
                "refine_moves": refined.moves,
            },
            partition=refined.partition,
        )


#: the shared singletons both drivers compose
EMBED_STAGE = EmbedStage()
GEOMETRIC_STAGE = GeometricStage()
STRIP_REFINE_STAGE = StripRefineStage()
KWAY_GEOMETRIC_STAGE = KWayGeometricStage()
KWAY_REFINE_STAGE = KWayRefineStage()

#: full ScalaPart pipeline (coarsen+embed → partition → refine)
SCALAPART_STAGES = (EMBED_STAGE, GEOMETRIC_STAGE, STRIP_REFINE_STAGE)
#: SP-PG7-NL: stages 3–4 only, coordinates supplied by the caller
PARTITION_STAGES = (GEOMETRIC_STAGE, STRIP_REFINE_STAGE)
#: direct k-way: coarsen+embed → K-cell assignment → boundary refine
KWAY_STAGES = (EMBED_STAGE, KWAY_GEOMETRIC_STAGE, KWAY_REFINE_STAGE)
