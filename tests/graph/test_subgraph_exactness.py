"""Byte-identity of the CSR-sliced :meth:`CSRGraph.subgraph`.

The production method reads only the selected rows; the edge-list body
it replaced lives in :mod:`tests.oracles.subgraph`.  Slot order matters
downstream (FM gains and heap ties follow it), so the two must agree on
every array byte for byte, floats compared through ``.view(np.int64)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsen import contract, heavy_edge_matching_vec
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from tests.oracles.subgraph import subgraph_reference


def assert_same_subgraph(g: CSRGraph, ids) -> None:
    sub, sub_ids = g.subgraph(ids)
    ref, ref_ids = subgraph_reference(g, ids)
    assert sub_ids.tobytes() == ref_ids.tobytes()
    assert sub.indptr.tobytes() == ref.indptr.tobytes()
    assert sub.indices.tobytes() == ref.indices.tobytes()
    assert sub.ewgt.view(np.int64).tobytes() == ref.ewgt.view(np.int64).tobytes()
    assert sub.vwgt.view(np.int64).tobytes() == ref.vwgt.view(np.int64).tobytes()


def _subsets(n: int, seed: int):
    """Sorted id sets of several densities, including contiguous runs."""
    rng = np.random.default_rng(seed)
    out = [np.flatnonzero(rng.random(n) < p) for p in (0.05, 0.3, 0.7, 0.97)]
    out.append(np.arange(n // 3, 2 * n // 3))
    return out


def _weighted_delaunay(n: int, seed: int) -> CSRGraph:
    """A mesh with non-integer edge and vertex weights."""
    g = random_delaunay(n, seed=seed).graph
    rng = np.random.default_rng(seed)
    edges, _ = g.edge_list()
    return CSRGraph.from_edges(
        n, edges, rng.random(edges.shape[0]) * 3.7 + 0.01,
        rng.random(n) * 2.3 + 0.1,
    )


def _shuffled_rows(g: CSRGraph, seed: int) -> CSRGraph:
    """The same graph with every neighbour list in a random order."""
    rng = np.random.default_rng(seed)
    key = g.edge_sources() + rng.random(g.indices.size)
    order = np.argsort(key, kind="stable")
    return CSRGraph(g.indptr, g.indices[order], g.ewgt[order], g.vwgt)


@pytest.mark.parametrize("name,graph", [
    ("grid", grid2d(23, 19).graph),
    ("delaunay", random_delaunay(900, seed=4).graph),
])
def test_matches_oracle_on_from_edges_graphs(name, graph):
    for ids in _subsets(graph.num_vertices, seed=len(name)):
        assert_same_subgraph(graph, ids)


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_oracle_on_contracted_weighted_graphs(seed):
    g = _weighted_delaunay(1200, seed)
    for _ in range(3):  # three levels: merged, non-integer weights
        g, _ = contract(g, heavy_edge_matching_vec(g, seed=seed))
        assert not np.all(g.ewgt == np.round(g.ewgt))
        for ids in _subsets(g.num_vertices, seed):
            assert_same_subgraph(g, ids)


def test_matches_oracle_on_rows_in_arbitrary_order():
    g = _shuffled_rows(_weighted_delaunay(700, seed=5), seed=6)
    for ids in _subsets(g.num_vertices, seed=7):
        assert_same_subgraph(g, ids)


def test_matches_oracle_on_unsorted_and_duplicated_ids():
    g = random_delaunay(500, seed=8).graph
    rng = np.random.default_rng(9)
    ids = rng.integers(0, g.num_vertices, size=300)  # duplicates
    assert_same_subgraph(g, ids)
    assert_same_subgraph(g, rng.permutation(g.num_vertices)[:200])
    assert_same_subgraph(g, [7, 3, 3, 11, 0])  # a plain list


def test_matches_oracle_on_empty_and_full_sets():
    g = random_delaunay(300, seed=10).graph
    assert_same_subgraph(g, np.zeros(0, dtype=np.int64))
    assert_same_subgraph(g, [])
    assert_same_subgraph(g, np.arange(g.num_vertices))
    sub, ids = g.subgraph([])
    assert sub.num_vertices == 0 and ids.size == 0


def test_matches_oracle_with_isolated_vertices():
    g = CSRGraph.from_edges(9, np.array([[0, 2], [2, 5], [5, 0], [7, 8]]))
    assert_same_subgraph(g, [0, 1, 2, 4, 5, 7])
    assert_same_subgraph(g, [1, 3, 4, 6])


def test_returned_ids_are_not_the_callers_array():
    g = grid2d(5, 5).graph
    ids = np.arange(4, 20)
    _, sub_ids = g.subgraph(ids)
    sub_ids[0] = -1
    assert ids[0] == 4
