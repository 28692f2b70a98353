"""Byte-identity of the list-backed greedy k-way sweep.

The array-backed sweep it replaced lives in :mod:`tests.oracles.refine`
as ``kway_pass_reference``; a test installs it with ``monkeypatch`` and
reruns the same :func:`kway_refine` call.  Parts, moves and passes are
compared exactly, cuts through ``.view(np.int64)`` — with and without
the pairwise FM phase, on unit and weighted meshes, with a cost array
apart from the vertex weights, from an overloaded start (the rebalancing
moves) and on a grid, whose integer gains tie all the time (the target
rule: best gain, then lightest part, then part id).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometric.kway import kway_geometric_assign
from repro.graph import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.graph.partition import KWayPartition
from repro.refine import kway as kway_module
from repro.refine.kway import kway_refine
from tests.oracles.refine import kway_pass_reference


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _both(monkeypatch, kp: KWayPartition, **kw):
    new = kway_refine(kp, **kw)
    with monkeypatch.context() as m:
        m.setattr(kway_module, "_kway_pass", kway_pass_reference)
        ref = kway_refine(kp, **kw)
    return new, ref


def assert_same(new, ref):
    assert new.partition.parts.tobytes() == ref.partition.parts.tobytes()
    assert (new.moves, new.passes) == (ref.moves, ref.passes)
    assert _bits(new.initial_cut) == _bits(ref.initial_cut)
    assert _bits(new.final_cut) == _bits(ref.final_cut)


def _weighted(n: int, seed: int):
    mesh = random_delaunay(n, seed=seed)
    rng = np.random.default_rng(seed)
    edges, _ = mesh.graph.edge_list()
    g = CSRGraph.from_edges(n, edges, rng.random(edges.shape[0]) * 3.7 + 0.01,
                            rng.integers(1, 5, size=n).astype(float))
    return g, mesh.coords


def _assign(g: CSRGraph, coords: np.ndarray, k: int, seed: int,
            costs=None) -> KWayPartition:
    parts, _ = kway_geometric_assign(g, coords, k, seed=seed)
    return KWayPartition(g, parts, k, costs=costs)


class TestKWayPassExactness:
    @pytest.mark.parametrize("k,seed", [(3, 11), (8, 13), (16, 12)])
    @pytest.mark.parametrize("rounds", [0, 3])
    def test_unit_mesh(self, monkeypatch, k, seed, rounds):
        mesh = random_delaunay(3000, seed=seed)
        kp = _assign(mesh.graph, mesh.coords, k, seed)
        new, ref = _both(monkeypatch, kp, max_imbalance=0.03,
                         pairwise_rounds=rounds)
        assert_same(new, ref)
        assert new.moves > 0

    @pytest.mark.parametrize("k,seed", [(4, 21), (8, 22), (13, 23)])
    @pytest.mark.parametrize("rounds", [0, 3])
    def test_weighted_mesh(self, monkeypatch, k, seed, rounds):
        g, coords = _weighted(2500, seed)
        kp = _assign(g, coords, k, seed)
        new, ref = _both(monkeypatch, kp, max_imbalance=0.03,
                         pairwise_rounds=rounds)
        assert_same(new, ref)
        assert new.moves > 0

    @pytest.mark.parametrize("k", [4, 9])
    def test_grid_ties(self, monkeypatch, k):
        grid = grid2d(48, 40)
        kp = _assign(grid.graph, grid.coords, k, 3)
        assert_same(*_both(monkeypatch, kp, max_imbalance=0.02))

    def test_cost_array(self, monkeypatch):
        mesh = random_delaunay(2000, seed=31)
        costs = np.random.default_rng(31).random(2000) * 2.0 + 0.05
        kp = _assign(mesh.graph, mesh.coords, 8, 31, costs=costs)
        new, ref = _both(monkeypatch, kp, max_imbalance=0.03)
        assert_same(new, ref)
        assert new.moves > 0

    @pytest.mark.parametrize("k", [3, 8])
    def test_overloaded_start(self, monkeypatch, k):
        """Three fifths of the mesh in part 0: the sweep starts in rebalancing
        mode and takes negative-gain moves out of the overloaded part."""
        mesh = random_delaunay(2000, seed=41)
        n = mesh.graph.num_vertices
        rank = np.argsort(np.argsort(mesh.coords[:, 0], kind="stable"))
        heavy = 3 * n // 5
        parts = np.where(rank < heavy, 0,
                         1 + (rank - heavy) * (k - 1) // (n - heavy))
        kp = KWayPartition(mesh.graph, parts, k)
        assert kp.imbalance > 0.5
        new, ref = _both(monkeypatch, kp, max_imbalance=0.05)
        assert_same(new, ref)
        assert new.partition.imbalance < kp.imbalance

    def test_zero_weight_vertices(self, monkeypatch):
        mesh = random_delaunay(1800, seed=51)
        vwgt = np.random.default_rng(51).integers(0, 3, size=1800)
        g = CSRGraph(mesh.graph.indptr, mesh.graph.indices, mesh.graph.ewgt,
                     vwgt.astype(float))
        assert (vwgt == 0).sum() > 300
        kp = _assign(g, mesh.coords, 6, 51)
        assert_same(*_both(monkeypatch, kp, max_imbalance=0.03))
