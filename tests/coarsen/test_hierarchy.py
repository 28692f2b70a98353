"""Unit tests for multilevel hierarchies."""

import numpy as np
import pytest

from repro.coarsen import Hierarchy, build_hierarchy, heavy_edge_matching_vec
from repro.errors import GraphError
from repro.graph import cut_weight
from repro.graph.generators import complete_graph, grid2d, random_delaunay


class TestBuildHierarchy:
    def test_reaches_coarsest_size(self):
        g = grid2d(32, 32).graph
        h = build_hierarchy(g, coarsest_size=100, seed=1)
        assert h.coarsest.num_vertices <= 100 or h.num_levels == 1
        assert h.finest is g

    def test_every_other_quarters(self):
        g = random_delaunay(4000, seed=2).graph
        h = build_hierarchy(g, coarsest_size=100, keep_every_other=True, seed=3)
        sizes = h.sizes()
        # each retained level ~quarter of the previous (two matchings);
        # the last level may shrink less because HEM stalls at tiny sizes
        for a, b in zip(sizes[:-2], sizes[1:-1]):
            assert b < 0.45 * a
        assert sizes[-1] < 0.75 * sizes[-2]

    def test_classic_halves(self):
        g = random_delaunay(4000, seed=2).graph
        h = build_hierarchy(g, coarsest_size=100, keep_every_other=False, seed=3)
        sizes = h.sizes()
        for a, b in zip(sizes, sizes[1:]):
            assert 0.3 * a < b < 0.75 * a

    def test_vertex_weight_conserved_every_level(self):
        g = grid2d(20, 20).graph
        h = build_hierarchy(g, coarsest_size=20, seed=4)
        for gr in h.graphs:
            assert gr.total_vertex_weight == pytest.approx(400.0)

    def test_small_graph_single_level(self):
        g = grid2d(3, 3).graph
        h = build_hierarchy(g, coarsest_size=100, seed=5)
        assert h.num_levels == 1
        assert h.coarsest is g

    def test_max_levels_respected(self):
        g = random_delaunay(5000, seed=6).graph
        h = build_hierarchy(g, coarsest_size=2, max_levels=2, seed=6)
        assert h.num_levels <= 3

    def test_stalls_on_complete_graph(self):
        # K_n shrinks ~2x per matching but eventually stalls at tiny sizes
        g = complete_graph(32).graph
        h = build_hierarchy(g, coarsest_size=2, seed=7)
        assert h.coarsest.num_vertices >= 1

    def test_custom_matcher(self):
        g = grid2d(10, 10).graph
        h = build_hierarchy(g, coarsest_size=30,
                            matcher=heavy_edge_matching_vec, seed=8)
        assert h.coarsest.num_vertices < 100

    def test_invalid_coarsest_size(self):
        with pytest.raises(GraphError):
            build_hierarchy(grid2d(4, 4).graph, coarsest_size=0)


class TestProjection:
    def test_project_to_finest_preserves_cut(self):
        g = random_delaunay(1000, seed=9).graph
        h = build_hierarchy(g, coarsest_size=50, seed=10)
        rng = np.random.default_rng(0)
        cside = rng.integers(0, 2, h.coarsest.num_vertices).astype(np.int8)
        fside = h.project_to_finest(cside, h.num_levels - 1)
        assert fside.shape[0] == g.num_vertices
        assert cut_weight(h.coarsest, cside) == pytest.approx(cut_weight(g, fside))

    def test_project_one_level(self):
        g = grid2d(16, 16).graph
        h = build_hierarchy(g, coarsest_size=30, seed=11)
        if h.num_levels < 2:
            pytest.skip("graph too small to coarsen")
        lv = h.num_levels - 1
        vals = np.arange(h.graphs[lv].num_vertices)
        fine = h.project_one_level(vals, lv)
        assert fine.shape[0] == h.graphs[lv - 1].num_vertices

    def test_level_bounds_checked(self):
        g = grid2d(8, 8).graph
        h = build_hierarchy(g, coarsest_size=10, seed=12)
        with pytest.raises(GraphError):
            h.project_to_finest(np.zeros(1), h.num_levels)
        with pytest.raises(GraphError):
            h.project_one_level(np.zeros(1), 0)

    def test_mismatched_cmaps_rejected(self):
        g = grid2d(4, 4).graph
        with pytest.raises(GraphError):
            Hierarchy([g, g], [])
