"""Tests for the sequential ScalaPart pipeline."""

import numpy as np
import pytest

from repro.core import ScalaPartConfig, scalapart, sp_pg7_nl
from repro.errors import ConfigError, PartitionError
from repro.graph import CSRGraph
from repro.graph.generators import grid2d, random_delaunay


class TestConfig:
    def test_defaults_valid(self):
        cfg = ScalaPartConfig()
        assert cfg.block_size in range(2, 9)
        assert cfg.ncircles == 5

    @pytest.mark.parametrize(
        "kw",
        [
            {"coarsest_iters": -1},
            {"block_size": 0},
            {"ncircles": 0},
            {"strip_factor": 0},
            {"max_imbalance": 1.5},
            {"smooth_iters": -1},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            ScalaPartConfig(**kw)


class TestSPPG7NL:
    def test_partitions_coordinate_graph(self):
        g, pts = random_delaunay(1500, seed=0)
        res = sp_pg7_nl(g, pts, seed=1)
        res.validate(max_imbalance=0.06)
        assert res.method == "SP-PG7-NL"
        assert res.cut_size < 5 * np.sqrt(1500)

    def test_strip_refinement_improves_geometric_cut(self):
        g, pts = random_delaunay(2000, seed=2)
        res = sp_pg7_nl(g, pts, seed=3)
        assert res.cut_weight <= res.extras["geometric_cut"] + 1e-9

    def test_stage_timings(self):
        g, pts = grid2d(20, 20)
        res = sp_pg7_nl(g, pts, seed=4)
        assert set(res.stage_seconds) == {"partition", "refine"}

    def test_strip_factor_small_multiple(self):
        g, pts = random_delaunay(2500, seed=5)
        res = sp_pg7_nl(g, pts, seed=6)
        # Fig 2: the strip holds a small multiple of the separator
        assert res.extras["strip_size"] < 0.5 * g.num_vertices


class TestScalaPart:
    def test_full_pipeline_on_mesh(self):
        g = random_delaunay(2000, seed=7).graph
        res = scalapart(g, seed=8)
        res.validate(max_imbalance=0.06)
        assert res.method == "ScalaPart"
        # embedding + geometric cut on a planar mesh: O(sqrt(n))-ish
        assert res.cut_size < 8 * np.sqrt(2000)

    def test_no_coordinates_needed(self):
        # kkt-like graphs have no native coordinates; SP must still work
        from repro.graph.generators import kkt_power_like

        g = kkt_power_like(18, seed=9).graph
        res = scalapart(g, seed=10)
        res.validate(max_imbalance=0.06)

    def test_stages_reported(self):
        g = grid2d(24, 24).graph
        res = scalapart(g, seed=11)
        assert "embed" in res.stage_seconds
        assert "partition" in res.stage_seconds
        assert "refine" in res.stage_seconds
        assert res.extras["levels"] >= 1

    def test_embedding_dominates_time(self):
        """Fig 7: embedding is by far the largest ScalaPart component."""
        g = random_delaunay(3000, seed=12).graph
        res = scalapart(g, seed=13)
        assert res.stage_seconds["embed"] > res.stage_seconds["partition"]

    def test_deterministic(self):
        g = random_delaunay(600, seed=14).graph
        a = scalapart(g, seed=15)
        b = scalapart(g, seed=15)
        assert np.array_equal(a.bisection.side, b.bisection.side)

    def test_rejects_tiny_graph(self):
        with pytest.raises(PartitionError):
            scalapart(CSRGraph.empty(1))

    def test_custom_config(self):
        g = grid2d(16, 16).graph
        cfg = ScalaPartConfig(smooth_iters=4, coarsest_iters=60, ncircles=3)
        res = scalapart(g, cfg, seed=16)
        res.validate(max_imbalance=0.06)
