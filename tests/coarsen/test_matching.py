"""Unit and property tests for matchings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coarsen import (
    heavy_edge_matching,
    heavy_edge_matching_vec,
    validate_matching,
)
from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.generators import (
    grid2d,
    path_graph,
    preferential_attachment,
    random_delaunay,
    star_graph,
)


def _matching_weight(g, m):
    """Total weight of the matched edges (each edge counted once)."""
    src = g.edge_sources()
    sel = (m[src] == g.indices) & (src < g.indices)
    return float(g.ewgt[sel].sum())


class TestHeavyEdgeMatching:
    def test_valid_on_grid(self):
        g = grid2d(8, 8).graph
        m = heavy_edge_matching(g, seed=1)
        validate_matching(g, m)

    def test_matches_most_of_a_grid(self):
        g = grid2d(10, 10).graph
        m = heavy_edge_matching(g, seed=2)
        matched = (m != np.arange(g.num_vertices)).sum()
        assert matched >= 0.8 * g.num_vertices

    def test_prefers_heavy_edges(self):
        # C6 with alternating weights 10/1: regardless of visit order,
        # HEM must select exactly the three disjoint heavy edges
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
        w = np.array([10.0, 1.0, 10.0, 1.0, 10.0, 1.0])
        g = CSRGraph.from_edges(6, edges, w)
        for seed in range(5):
            m = heavy_edge_matching(g, seed=seed)
            assert m.tolist() == [1, 0, 3, 2, 5, 4]

    def test_isolated_vertices_unmatched(self):
        g = CSRGraph.empty(4)
        m = heavy_edge_matching(g, seed=0)
        assert np.array_equal(m, np.arange(4))

    def test_star_matches_single_pair(self):
        g = star_graph(6).graph
        m = heavy_edge_matching(g, seed=4)
        matched = (m != np.arange(6)).sum()
        assert matched == 2  # the hub can only pair with one leaf

    def test_deterministic_given_seed(self):
        g = random_delaunay(300, seed=5).graph
        assert np.array_equal(
            heavy_edge_matching(g, seed=7), heavy_edge_matching(g, seed=7)
        )

    def test_different_seeds_differ(self):
        g = grid2d(12, 12).graph
        a = heavy_edge_matching(g, seed=1)
        b = heavy_edge_matching(g, seed=2)
        assert not np.array_equal(a, b)


class TestVectorisedHEM:
    """Round-based vectorised heavy-edge matching (``hem-vec``)."""

    def test_valid_on_grid(self):
        g = grid2d(16, 16).graph
        m = heavy_edge_matching_vec(g, seed=1)
        validate_matching(g, m)

    def test_involution_and_no_self_edges(self):
        g = random_delaunay(400, seed=9).graph
        m = heavy_edge_matching_vec(g, seed=3)
        ids = np.arange(g.num_vertices)
        assert np.array_equal(m[m], ids)

    def test_maximal(self):
        # no edge may have both endpoints unmatched
        for gg in (grid2d(13, 11).graph,
                   random_delaunay(350, seed=2).graph,
                   preferential_attachment(300, m=3, seed=4).graph):
            m = heavy_edge_matching_vec(gg, seed=5)
            src = gg.edge_sources()
            both_free = (m[src] == src) & (m[gg.indices] == gg.indices)
            assert not both_free.any()

    def test_prefers_heavy_edges(self):
        # same C6 case the sequential kernel must solve: the three
        # disjoint weight-10 edges dominate for every seed
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
        w = np.array([10.0, 1.0, 10.0, 1.0, 10.0, 1.0])
        g = CSRGraph.from_edges(6, edges, w)
        for seed in range(5):
            m = heavy_edge_matching_vec(g, seed=seed)
            assert m.tolist() == [1, 0, 3, 2, 5, 4]

    def test_deterministic_given_seed(self):
        g = random_delaunay(300, seed=5).graph
        assert np.array_equal(
            heavy_edge_matching_vec(g, seed=7),
            heavy_edge_matching_vec(g, seed=7),
        )

    def test_isolated_vertices_unmatched(self):
        g = CSRGraph.empty(4)
        m = heavy_edge_matching_vec(g, seed=0)
        assert np.array_equal(m, np.arange(4))

    @pytest.mark.parametrize("max_stall_rounds", [0, -1])
    def test_rejects_max_stall_rounds_below_one(self, max_stall_rounds):
        g = grid2d(4, 4).graph
        with pytest.raises(GraphError, match="max_stall_rounds"):
            heavy_edge_matching_vec(g, seed=0, max_stall_rounds=max_stall_rounds)

    def test_quality_parity_with_sequential_hem(self):
        # the round-based rule must land in the same quality band as the
        # greedy visit-order rule: matched-edge weight within 25% on a
        # weighted mesh (both pick locally heavy edges; they differ only
        # in tie-resolution order)
        for gg in (random_delaunay(600, seed=11).graph,
                   preferential_attachment(500, m=4, seed=12).graph):
            w_seq = _matching_weight(gg, heavy_edge_matching(gg, seed=3))
            w_vec = _matching_weight(gg, heavy_edge_matching_vec(gg, seed=3))
            assert w_vec >= 0.75 * w_seq, (w_vec, w_seq)


class TestValidation:
    def test_rejects_non_involution(self):
        g = path_graph(3).graph
        with pytest.raises(GraphError):
            validate_matching(g, np.array([1, 2, 0]))

    def test_rejects_non_edges(self):
        g = path_graph(4).graph
        with pytest.raises(GraphError):
            validate_matching(g, np.array([3, 1, 2, 0]))

    def test_rejects_wrong_length(self):
        g = path_graph(3).graph
        with pytest.raises(GraphError):
            validate_matching(g, np.array([0, 1]))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 40),
    density=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**31),
)
def test_hem_always_valid_on_random_graphs(n, density, seed):
    rng = np.random.default_rng(seed)
    m = max(1, int(density * n * (n - 1) / 2))
    edges = rng.integers(0, n, size=(m, 2))
    g = CSRGraph.from_edges(n, edges)
    match = heavy_edge_matching(g, seed=seed)
    validate_matching(g, match)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 40),
    density=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**31),
)
def test_hem_vec_always_valid_and_maximal(n, density, seed):
    rng = np.random.default_rng(seed)
    m = max(1, int(density * n * (n - 1) / 2))
    edges = rng.integers(0, n, size=(m, 2))
    g = CSRGraph.from_edges(n, edges)
    match = heavy_edge_matching_vec(g, seed=seed)
    validate_matching(g, match)
    src = g.edge_sources()
    both_free = (match[src] == src) & (match[g.indices] == g.indices)
    assert not both_free.any()
