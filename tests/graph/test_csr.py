"""Unit tests for the CSR graph kernel."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.generators import complete_graph, cycle_graph, grid2d, path_graph


def triangle():
    return CSRGraph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


class TestConstruction:
    def test_from_edges_basic(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert sorted(g.neighbors(1).tolist()) == [0, 2]

    def test_from_edges_drops_self_loops(self):
        g = CSRGraph.from_edges(3, np.array([[0, 0], [0, 1]]))
        assert g.num_edges == 1

    def test_from_edges_dedupes_and_accumulates_weights(self):
        g = CSRGraph.from_edges(
            2, np.array([[0, 1], [1, 0], [0, 1]]), np.array([1.0, 2.0, 4.0])
        )
        assert g.num_edges == 1
        assert g.total_edge_weight == pytest.approx(7.0)

    def test_from_edges_out_of_range(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, np.array([[0, 5]]))

    def test_from_edges_bad_shape(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, np.array([[0, 1, 2]]))

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0] * 5

    def test_zero_vertex_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert g.is_connected()

    def test_from_scipy_roundtrip(self):
        g = grid2d(4, 5).graph
        g2 = CSRGraph.from_scipy(g.to_scipy())
        assert g == g2

    def test_from_networkx(self):
        nx = pytest.importorskip("networkx")
        g = CSRGraph.from_networkx(nx.path_graph(6))
        assert g.num_edges == 5
        assert g.degrees().max() == 2

    def test_validation_rejects_asymmetric(self):
        # vertex 0 lists 1 as neighbour twice, vertex 1 lists 0 once
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 3, 4]), np.array([1, 1, 0, 0]))

    def test_validation_rejects_self_loop(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validation_rejects_non_finite_edge_weight(self, bad):
        with pytest.raises(GraphError, match="edge weights must be finite"):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     ewgt=np.array([bad, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validation_rejects_non_finite_vertex_weight(self, bad):
        with pytest.raises(GraphError, match="vertex weights must be finite"):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     vwgt=np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_edges_rejects_non_finite_weights(self, bad):
        edges = np.array([[0, 1], [1, 2]])
        with pytest.raises(GraphError, match="edge weights must be finite"):
            CSRGraph.from_edges(3, edges, np.array([1.0, bad]))
        with pytest.raises(GraphError, match="vertex weights must be finite"):
            CSRGraph.from_edges(3, edges, vwgt=np.array([1.0, bad, 1.0]))

    def test_unvalidated_graph_keeps_non_finite_weights(self):
        # validate=False is the documented escape hatch (trusted callers)
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     ewgt=np.array([np.nan, np.nan]), validate=False)
        assert np.isnan(g.ewgt).all()


class TestProperties:
    def test_degrees_grid(self):
        g = grid2d(3, 3).graph
        deg = np.sort(g.degrees())
        # corners 2, edges 3, center 4
        assert deg.tolist() == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_weighted_degrees(self):
        g = CSRGraph.from_edges(
            3, np.array([[0, 1], [1, 2]]), np.array([2.0, 5.0])
        )
        assert g.weighted_degrees().tolist() == [2.0, 7.0, 5.0]

    def test_total_weights(self):
        g = triangle()
        assert g.total_edge_weight == 3.0
        assert g.total_vertex_weight == 3.0

    def test_edge_list_unique_and_ordered(self):
        g = grid2d(5, 5).graph
        edges, w = g.edge_list()
        assert edges.shape[0] == g.num_edges
        assert (edges[:, 0] < edges[:, 1]).all()
        assert w.shape[0] == edges.shape[0]

    def test_iter_edges_matches_edge_list(self):
        g = cycle_graph(6).graph
        assert sorted(
            (u, v) for u, v, _ in g.iter_edges()
        ) == sorted(map(tuple, g.edge_list()[0].tolist()))

    def test_has_edge(self):
        g = path_graph(4).graph
        assert g.has_edge(1, 2)
        assert not g.has_edge(0, 3)

    def test_edge_sources(self):
        g = triangle()
        src = g.edge_sources()
        assert src.shape[0] == 6
        assert np.bincount(src).tolist() == [2, 2, 2]


class TestDerived:
    def test_subgraph_induced(self):
        g = grid2d(4, 4).graph
        sub, ids = g.subgraph(np.array([0, 1, 2, 3]))  # a row of the grid
        assert sub.num_vertices == 4
        assert sub.num_edges == 3
        assert ids.tolist() == [0, 1, 2, 3]

    def test_subgraph_keeps_vertex_weights(self):
        g = CSRGraph.from_edges(
            4, np.array([[0, 1], [2, 3]]), vwgt=np.array([1.0, 2.0, 3.0, 4.0])
        )
        sub, _ = g.subgraph(np.array([2, 3]))
        assert sub.vwgt.tolist() == [3.0, 4.0]

    def test_subgraph_rejects_boolean_mask(self):
        g = grid2d(4, 4).graph
        mask = np.zeros(16, dtype=bool)
        mask[[5, 6, 9]] = True
        with pytest.raises(GraphError, match="flatnonzero"):
            g.subgraph(mask)

    def test_subgraph_rejects_float_ids(self):
        g = grid2d(4, 4).graph
        with pytest.raises(GraphError, match="flatnonzero"):
            g.subgraph(np.array([0.0, 1.7, 2.0]))

    def test_permute_preserves_structure(self):
        g = cycle_graph(8).graph
        perm = np.roll(np.arange(8), 3)
        p = g.permute(perm)
        assert p.num_edges == g.num_edges
        assert np.sort(p.degrees()).tolist() == np.sort(g.degrees()).tolist()

    def test_permute_rejects_non_permutation(self):
        g = path_graph(4).graph
        with pytest.raises(GraphError):
            g.permute(np.array([0, 0, 1, 2]))

    def test_connected_components(self):
        g = CSRGraph.from_edges(5, np.array([[0, 1], [2, 3]]))
        labels = g.connected_components()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_largest_component(self):
        g = CSRGraph.from_edges(6, np.array([[0, 1], [1, 2], [3, 4]]))
        big, ids = g.largest_component()
        assert big.num_vertices == 3
        assert ids.tolist() == [0, 1, 2]

    def test_is_connected(self):
        assert grid2d(3, 7).graph.is_connected()
        assert not CSRGraph.empty(2).is_connected()

    def test_to_networkx_roundtrip(self):
        pytest.importorskip("networkx")
        g = complete_graph(5).graph
        g2 = CSRGraph.from_networkx(g.to_networkx())
        assert g == g2

    def test_equality(self):
        assert triangle() == triangle()
        assert triangle() != path_graph(3).graph
