"""Tests for the shared pipeline stages.

Both drivers (sequential ``scalapart`` and the registered SPMD rank
program of ScalaPart) are thin compositions of the same three Stage objects; these tests run
the stages by hand and check the composition reproduces the drivers
bit-for-bit, which is what makes the stages safe to mix and match
(e.g. embed once, partition many ways).
"""

import numpy as np
import pytest

from repro.core import ScalaPartConfig, scalapart
from repro.core.methods import get_method
from repro.core.stages import (
    EMBED_STAGE,
    GEOMETRIC_STAGE,
    PARTITION_STAGES,
    SCALAPART_STAGES,
    STRIP_REFINE_STAGE,
    EmbeddingArtifact,
    GeometricArtifact,
    RefineArtifact,
)
from repro.graph.generators import random_delaunay
from repro.parallel.engine import run_spmd
from repro.rng import derive_seed

CFG = ScalaPartConfig(coarsest_iters=50, smooth_iters=5)


@pytest.fixture(scope="module")
def graph():
    return random_delaunay(350, seed=9).graph


class TestStageArtifacts:
    def test_embed_stage(self, graph):
        art = EMBED_STAGE.run(graph, None, CFG, seed=4)
        assert isinstance(art, EmbeddingArtifact)
        assert art.stage == "embed"
        assert art.coords.shape == (graph.num_vertices, 2)
        assert art.seconds > 0
        assert art.info["levels"] >= 1

    def test_geometric_stage(self, graph):
        emb = EMBED_STAGE.run(graph, None, CFG, seed=4)
        geo = GEOMETRIC_STAGE.run(graph, emb, CFG, seed=4)
        assert isinstance(geo, GeometricArtifact)
        assert geo.stage == "partition"
        assert geo.cut == geo.bisection.cut_size
        assert geo.sdist.shape == (graph.num_vertices,)

    def test_refine_stage_improves_or_matches(self, graph):
        emb = EMBED_STAGE.run(graph, None, CFG, seed=4)
        geo = GEOMETRIC_STAGE.run(graph, emb, CFG, seed=4)
        ref = STRIP_REFINE_STAGE.run(graph, geo, CFG, seed=4)
        assert isinstance(ref, RefineArtifact)
        assert ref.stage == "refine"
        assert ref.bisection.cut_size <= geo.cut

    def test_stage_tuples(self):
        assert SCALAPART_STAGES == (EMBED_STAGE, GEOMETRIC_STAGE,
                                    STRIP_REFINE_STAGE)
        assert PARTITION_STAGES == (GEOMETRIC_STAGE, STRIP_REFINE_STAGE)


class TestCompositionMatchesDrivers:
    def test_sequential_composition(self, graph):
        """Running the three stages by hand == scalapart()."""
        upstream = None
        for stage in SCALAPART_STAGES:
            upstream = stage.run(graph, upstream, CFG, seed=8)
        res = scalapart(graph, CFG, seed=8)
        assert upstream.bisection.side.tobytes() == \
            res.bisection.side.tobytes()
        assert upstream.bisection.cut_size == res.bisection.cut_size

    def test_distributed_composition(self, graph):
        """Hand-composed run_dist chain == the registered ScalaPart
        program (same sides, same simulated schedule)."""

        def composed(comm, g):
            emb = yield from EMBED_STAGE.run_dist(comm, g, None, CFG, seed=8)
            sel = yield from GEOMETRIC_STAGE.run_dist(comm, g, emb,
                                                      CFG, seed=8)
            side, _info = yield from STRIP_REFINE_STAGE.run_dist(
                comm, g, sel, CFG, seed=8)
            return side

        spec = get_method("ScalaPart")
        engine_seed = derive_seed(8, spec.seed_salt)
        a = run_spmd(composed, 4, graph, seed=engine_seed)
        b = run_spmd(
            lambda comm, g: spec.distributed(comm, g, config=CFG, seed=8),
            4, graph, seed=engine_seed,
        )
        side_b, _info = b.values[0]
        assert np.array_equal(a.values[0], side_b)
        # the composed run performs the same communication schedule
        assert np.array_equal(a.clocks, b.clocks)

    def test_dist_embedding_feeds_sequential_stages(self, graph):
        """An artifact captured on the distributed face drops straight
        into the sequential face — the faces share the artifact types."""

        def prog(comm, g):
            art = yield from EMBED_STAGE.run_dist(comm, g, None, CFG, seed=5)
            return art

        art = run_spmd(prog, 4, graph, seed=0).values[0]
        assert isinstance(art, EmbeddingArtifact)
        assert art.coords.shape == (graph.num_vertices, 2)
        geo = GEOMETRIC_STAGE.run(graph, art, CFG, seed=5)
        ref = STRIP_REFINE_STAGE.run(graph, geo, CFG, seed=5)
        assert ref.bisection.cut_size <= geo.cut
