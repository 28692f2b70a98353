"""The pair graphs and the wave schedule of the pairwise FM phase.

* A pair graph is a row filter of a graph whose rows are already in
  :meth:`CSRGraph.subgraph` slot order; it must equal the edge-list
  oracle subgraph byte for byte, on graphs that are in that order and
  on ones whose rows are not (then the filtered graph is the subgraph
  of every vertex, built once).
* Every wave holds part-disjoint pairs, and at P = 2 both ranks
  evaluate pairs in the first round — so the schedule does not quietly
  fall back to rank 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ScalaPartConfig, run_parallel
from repro.geometric.kway import kway_geometric_assign
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.graph.partition import KWayPartition
from repro.refine import kway as kway_module
from repro.refine.kway import (
    KWayRefinement,
    PairRounds,
    kway_refine,
    subgraph_rows,
)
from tests.oracles.refine import pairwise_fm_reference
from tests.oracles.subgraph import subgraph_reference


def _weighted(n: int, seed: int) -> CSRGraph:
    g = random_delaunay(n, seed=seed).graph
    rng = np.random.default_rng(seed)
    edges, _ = g.edge_list()
    return CSRGraph.from_edges(n, edges, rng.random(edges.shape[0]) * 3.7 + 0.01,
                               rng.random(n) * 2.3 + 0.1)


def _reversed_rows(g: CSRGraph) -> CSRGraph:
    """The same graph with every neighbour list reversed."""
    order = np.concatenate([np.arange(g.indptr[v + 1] - 1, g.indptr[v] - 1, -1)
                            for v in range(g.num_vertices)]).astype(np.int64)
    return CSRGraph(g.indptr, g.indices[order], g.ewgt[order], g.vwgt)


def _subsets(n: int, seed: int):
    rng = np.random.default_rng(seed)
    out = [np.flatnonzero(rng.random(n) < p) for p in (0.05, 0.3, 0.7, 1.0)]
    out.append(np.arange(n // 3, 2 * n // 3))
    return out


def _same_bytes(a: CSRGraph, b: CSRGraph) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("indptr", "indices", "ewgt", "vwgt"))


GRAPHS = {
    "grid": lambda: grid2d(23, 19).graph,
    "delaunay": lambda: random_delaunay(900, seed=4).graph,
    "weighted": lambda: _weighted(700, 5),
}


class TestPairGraph:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_canonical_rows_are_the_graph(self, name):
        g = GRAPHS[name]()
        assert g.in_subgraph_order()
        assert subgraph_rows(g) is g
        for ids in _subsets(g.num_vertices, 1):
            assert _same_bytes(g.filter_rows(ids), subgraph_reference(g, ids)[0])

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_reversed_rows(self, name):
        g = _reversed_rows(GRAPHS[name]())
        assert not g.in_subgraph_order()
        rows = subgraph_rows(g)
        assert rows is not g and rows.in_subgraph_order()
        for ids in _subsets(g.num_vertices, 2):
            assert _same_bytes(rows.filter_rows(ids),
                               subgraph_reference(g, ids)[0])

    def test_vertex_weights_replaced(self):
        g = _weighted(500, 6)
        ids = np.arange(100, 400)
        w = np.linspace(1.0, 2.0, ids.size)
        sub = g.filter_rows(ids, w)
        assert sub.vwgt.tobytes() == w.tobytes()
        ref = subgraph_reference(g, ids)[0]
        assert sub.indices.tobytes() == ref.indices.tobytes()

    def test_order_check_rejects(self):
        g = random_delaunay(300, seed=7).graph
        # a repeated neighbour (split edge weight)
        edges, w = g.edge_list()
        dup = np.vstack([edges, edges[:1]])
        multi = CSRGraph.from_edges(300, dup, np.r_[w, 1.0], dedupe=False)
        assert not multi.in_subgraph_order()
        # mirrored slots with different weights
        ewgt = g.ewgt.copy()
        ewgt[0] += 1.0
        assert not CSRGraph(g.indptr, g.indices, ewgt, g.vwgt,
                            validate=False).in_subgraph_order()
        # a self loop
        loop = CSRGraph(np.array([0, 1]), np.array([0]), validate=False)
        assert not loop.in_subgraph_order()
        assert CSRGraph.empty(4).in_subgraph_order()


def _kway_input(n: int, k: int, seed: int) -> KWayPartition:
    mesh = random_delaunay(n, seed=seed)
    parts, _ = kway_geometric_assign(mesh.graph, mesh.coords, k, seed=seed)
    return KWayPartition(mesh.graph, parts, k)


class TestWaves:
    @pytest.mark.parametrize("k,seed", [(6, 11), (8, 13), (16, 12)])
    def test_waves_are_part_disjoint(self, k, seed):
        ref = KWayRefinement(_kway_input(3000, k, seed), 0.03)
        ref.sweeps()
        pr = PairRounds(ref.graph, ref.parts, ref.costs, ref.part_cost, k,
                        ref.limit, 3)
        widths = []
        wave = pr.next_wave()
        while wave:
            parts = [p for pair in wave for p in pair]
            assert len(parts) == len(set(parts))
            widths.append(len(wave))
            pr.commit(wave, [pr.evaluate(a, b) for a, b in wave])
            wave = pr.next_wave()
        assert pr.moves > 0
        assert max(widths) >= 2

    def test_both_ranks_evaluate_in_the_first_round(self, monkeypatch):
        mesh = random_delaunay(2000, seed=3)
        evaluated = []
        real = PairRounds.evaluate

        def spy(self, a, b):
            evaluated.append((id(self), self._round, (a, b)))
            return real(self, a, b)

        monkeypatch.setattr(kway_module.PairRounds, "evaluate", spy)
        run_parallel("KWay-Geometric", mesh.graph, 2, coords=mesh.coords,
                     config=ScalaPartConfig(), seed=5, k=8, backend="sim")
        first = {who for who, rnd, _ in evaluated if rnd == 1}
        assert len(first) == 2  # one PairRounds per rank
        # each pair's turn in a round is evaluated by one rank only
        turns = [(rnd, pair) for _, rnd, pair in evaluated]
        assert len(turns) == len(set(turns))

    def test_unordered_rows_match_oracle(self, monkeypatch):
        """On a graph not in subgraph order the pair graphs come from its
        subgraph of every vertex."""
        kp = _kway_input(2000, 8, 13)
        g = _reversed_rows(kp.graph)
        assert not g.in_subgraph_order()
        kp = KWayPartition(g, kp.parts, 8)
        new = kway_refine(kp, max_imbalance=0.03)
        with monkeypatch.context() as m:
            m.setattr(kway_module, "_pairwise_fm", pairwise_fm_reference)
            ref = kway_refine(kp, max_imbalance=0.03)
        assert new.partition.parts.tobytes() == ref.partition.parts.tobytes()
        assert (new.moves, new.passes) == (ref.moves, ref.passes)
        assert new.final_cut < new.initial_cut
