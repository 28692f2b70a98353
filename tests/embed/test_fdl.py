"""Tests for the adaptive layout driver and the multilevel embedding."""

import numpy as np
import pytest

from repro.coarsen import heavy_edge_matching_vec
from repro.embed import (
    coarsest_layout,
    force_directed_layout,
    hu_layout,
    lattice_side_for,
    multilevel_embedding,
    random_positions,
    spring_energy,
)
from repro.errors import EmbeddingError
from repro.graph import CSRGraph
from repro.graph.generators import cycle_graph, grid2d, path_graph, random_delaunay


def edge_length_stats(graph, pos):
    edges, _ = graph.edge_list()
    d = np.linalg.norm(pos[edges[:, 0]] - pos[edges[:, 1]], axis=1)
    return d.mean(), d.std()


class TestFDL:
    def test_converges_on_small_cycle(self):
        g = cycle_graph(12).graph
        res = force_directed_layout(
            g, random_positions(12, seed=0), max_iters=400, repulsion="exact"
        )
        assert res.converged
        assert res.iterations <= 400

    def test_reduces_energy(self):
        g = grid2d(6, 6).graph
        p0 = random_positions(36, seed=1)
        res = force_directed_layout(g, p0, max_iters=200, repulsion="exact")
        assert spring_energy(g, res.pos) < spring_energy(g, p0)

    def test_uniformises_edge_lengths_on_grid(self):
        g = grid2d(7, 7).graph
        res = force_directed_layout(
            g, random_positions(49, seed=2), max_iters=500, repulsion="exact"
        )
        mean, std = edge_length_stats(g, res.pos)
        assert std / mean < 0.5  # near-uniform springs

    def test_input_not_mutated(self):
        g = path_graph(4).graph
        p0 = random_positions(4, seed=5)
        keep = p0.copy()
        force_directed_layout(g, p0, max_iters=10)
        assert np.array_equal(p0, keep)

    def test_zero_iters(self):
        g = path_graph(3).graph
        p0 = random_positions(3, seed=6)
        res = force_directed_layout(g, p0, max_iters=0)
        assert np.allclose(res.pos, p0)
        assert not res.converged

    def test_validation(self):
        g = path_graph(3).graph
        with pytest.raises(EmbeddingError):
            force_directed_layout(g, np.zeros((2, 2)))
        with pytest.raises(EmbeddingError):
            force_directed_layout(g, np.zeros((3, 2)), repulsion="magic")

    def test_custom_repulsion_callable(self):
        g = path_graph(4).graph
        calls = []

        def rep(pos, m, c, k):
            calls.append(1)
            return np.zeros_like(pos)

        force_directed_layout(g, random_positions(4, seed=7), repulsion=rep, max_iters=3)
        assert len(calls) == 3


class TestLatticeSide:
    def test_monotone_in_n(self):
        assert lattice_side_for(100) <= lattice_side_for(10000)

    def test_bounds(self):
        assert lattice_side_for(0) == 1
        assert lattice_side_for(10) >= 2
        assert lattice_side_for(10**9) == 64


class TestMultilevel:
    def test_embedding_shape_and_finiteness(self):
        g = random_delaunay(800, seed=8).graph
        res = multilevel_embedding(g, seed=1)
        assert res.pos.shape == (800, 2)
        assert np.isfinite(res.pos).all()
        assert res.num_levels >= 2

    def test_embedding_separates_mesh(self):
        # a good mesh embedding has near-uniform edge lengths
        g = grid2d(16, 16).graph
        res = multilevel_embedding(g, seed=2, smooth_iters=30)
        mean, std = edge_length_stats(g, res.pos)
        assert std / mean < 0.8

    def test_deterministic(self):
        g = random_delaunay(300, seed=9).graph
        a = multilevel_embedding(g, seed=3).pos
        b = multilevel_embedding(g, seed=3).pos
        assert np.allclose(a, b)

    def test_bh_variant(self):
        g = random_delaunay(400, seed=10).graph
        res = multilevel_embedding(g, seed=4, repulsion="bh", smooth_iters=5)
        assert np.isfinite(res.pos).all()

    def test_invalid_repulsion(self):
        g = grid2d(4, 4).graph
        with pytest.raises(EmbeddingError):
            multilevel_embedding(g, repulsion="exact2")

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        res = multilevel_embedding(g)
        assert res.pos.shape == (0, 2)

    def test_hu_layout_wrapper(self):
        g = grid2d(10, 10).graph
        pos = hu_layout(g, seed=5, smooth_iters=8)
        assert pos.shape == (100, 2)
        assert np.isfinite(pos).all()

    def test_embedding_preserves_locality(self):
        """Neighbouring grid vertices should land near each other:
        mean edge length must be well below the layout diameter."""
        g = grid2d(12, 12).graph
        res = multilevel_embedding(g, seed=6, smooth_iters=25)
        mean, _ = edge_length_stats(g, res.pos)
        diam = np.linalg.norm(res.pos.max(axis=0) - res.pos.min(axis=0))
        assert mean < diam / 4


class TestCoarsestLayout:
    def test_tiny_graphs(self):
        for g in (CSRGraph.empty(0), CSRGraph.empty(1), path_graph(2).graph):
            res = coarsest_layout(g, seed=1, max_iters=20)
            assert res.pos.shape == (g.num_vertices, 2)
            assert np.isfinite(res.pos).all()

    def test_deterministic_given_seed(self):
        g = random_delaunay(150, seed=3).graph
        a = coarsest_layout(g, seed=4).pos
        assert a.tobytes() == coarsest_layout(g, seed=4).pos.tobytes()
        assert a.tobytes() != coarsest_layout(g, seed=5).pos.tobytes()

    def test_spectral_start_unfolds_a_path(self):
        # the SSDE start already lies along the path, so the layout
        # keeps the two ends far apart instead of folding it
        g = path_graph(120).graph
        pos = coarsest_layout(g, seed=2).pos
        ends = np.linalg.norm(pos[0] - pos[-1])
        diam = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
        assert ends > 0.8 * diam

    def test_isolated_vertices_do_not_coincide(self):
        # SSDE gives every landmark-free component the same distances;
        # the jitter separates them so repulsion can act
        edges = np.array([[i, i + 1] for i in range(9)])
        g = CSRGraph.from_edges(40, edges)
        pos = coarsest_layout(g, seed=1).pos
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        assert d[np.triu_indices(40, 1)].min() > 0

    def test_no_barnes_hut_on_a_four_x_hierarchy(self, monkeypatch):
        from repro.embed import fdl

        def boom(*args, **kwargs):
            raise AssertionError("Barnes-Hut ran")

        monkeypatch.setattr(fdl, "repulsive_forces_bh", boom)
        res = multilevel_embedding(grid2d(100, 100).graph, seed=1,
                                   smooth_iters=2,
                                   matcher=heavy_edge_matching_vec)
        assert res.hierarchy.coarsest.num_vertices <= 600
