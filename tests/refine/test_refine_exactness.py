"""Byte-identity of the list-backed FM pass and the pairwise FM phase.

The pre-optimisation bodies live in :mod:`tests.oracles.refine`; a
test installs them with ``monkeypatch`` and reruns the same public call.
The list-backed pass must make the same moves as the array-backed one
— also with a ``movable`` mask, where it works over the movable rows
only, in a local id space —
and skipping a pair whose parts did not change since its last rejected
try must not change any k-way result: parts, moves and passes are
compared exactly, cuts through ``.view(np.int64)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import band_mask
from repro.geometric.kway import kway_geometric_assign
from repro.graph import Bisection, CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.graph.partition import KWayPartition
from repro.refine import fm as fm_module
from repro.refine import kway as kway_module
from repro.refine.fm import fm_refine
from repro.refine.kway import kway_refine
from repro.refine.strip import strip_mask
from tests.oracles.refine import fm_pass_reference, pairwise_fm_reference


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _fm_both(monkeypatch, bisection, **kw):
    new = fm_refine(bisection, **kw)
    with monkeypatch.context() as m:
        m.setattr(fm_module, "_fm_pass", fm_pass_reference)
        ref = fm_refine(bisection, **kw)
    return new, ref


def assert_same_fm(new, ref):
    assert new.bisection.side.tobytes() == ref.bisection.side.tobytes()
    assert (new.moves, new.passes) == (ref.moves, ref.passes)
    assert _bits(new.initial_cut) == _bits(ref.initial_cut)
    assert _bits(new.final_cut) == _bits(ref.final_cut)


def _weighted_mesh(n: int, seed: int) -> CSRGraph:
    g = random_delaunay(n, seed=seed).graph
    rng = np.random.default_rng(seed)
    edges, _ = g.edge_list()
    return CSRGraph.from_edges(n, edges, rng.random(edges.shape[0]) + 0.5,
                               rng.integers(1, 5, size=n).astype(float))


def _noisy_halves(g: CSRGraph, seed: int, left: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    side = (np.arange(g.num_vertices) >= left * g.num_vertices).astype(np.int8)
    flip = rng.random(g.num_vertices) < 0.1
    side[flip] = 1 - side[flip]
    return side


class TestFMPassExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unit_and_weighted_meshes(self, monkeypatch, seed):
        for g in (random_delaunay(800, seed=seed).graph,
                  _weighted_mesh(800, seed)):
            b = Bisection(g, _noisy_halves(g, seed))
            assert_same_fm(*_fm_both(monkeypatch, b, max_imbalance=0.03))

    def test_movable_mask(self, monkeypatch):
        g = _weighted_mesh(1000, 3)
        b = Bisection(g, _noisy_halves(g, 3))
        mask = np.random.default_rng(4).random(g.num_vertices) < 0.4
        new, ref = _fm_both(monkeypatch, b, movable=mask, max_passes=6)
        assert_same_fm(new, ref)
        assert new.moves > 0
        frozen = ~mask
        assert np.array_equal(new.bisection.side[frozen], b.side[frozen])

    def test_infeasible_start(self, monkeypatch):
        g = grid2d(30, 30).graph
        b = Bisection(g, _noisy_halves(g, 5, left=0.85))
        assert b.imbalance > 0.5
        new, ref = _fm_both(monkeypatch, b, max_imbalance=0.05)
        assert_same_fm(new, ref)
        assert new.bisection.imbalance < b.imbalance

    def test_zero_weight_vertices(self, monkeypatch):
        g = random_delaunay(600, seed=6).graph
        vwgt = np.random.default_rng(6).integers(0, 3, size=600).astype(float)
        g = CSRGraph(g.indptr, g.indices, g.ewgt, vwgt)
        assert (vwgt == 0).sum() > 100
        b = Bisection(g, _noisy_halves(g, 6))
        assert_same_fm(*_fm_both(monkeypatch, b, max_imbalance=0.02))

    def test_small_stall_limit(self, monkeypatch):
        g = _weighted_mesh(700, 7)
        b = Bisection(g, _noisy_halves(g, 7))
        assert_same_fm(*_fm_both(monkeypatch, b, stall_limit=3))


def _strip_input(seed: int):
    """A straight cut of a mesh and its signed distance, as the
    strip refinement receives them."""
    mesh = random_delaunay(1500, seed=seed)
    c = mesh.coords - mesh.coords.mean(axis=0)
    sd = c[:, 0] * 0.8 + c[:, 1] * 0.6
    return Bisection(mesh.graph, (sd > 0).astype(np.int8)), sd


class TestMovableFMExactness:
    """The movable pass against the whole-graph oracle pass."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_strip_mask(self, monkeypatch, seed):
        b, sd = _strip_input(seed)
        mask = strip_mask(sd, b)
        assert 0 < mask.sum() < b.graph.num_vertices
        new, ref = _fm_both(monkeypatch, b, movable=mask, max_passes=6)
        assert_same_fm(new, ref)
        assert new.moves > 0

    @pytest.mark.parametrize("hops", [0, 1, 3])
    def test_band_mask(self, monkeypatch, hops):
        b, _ = _strip_input(hops + 3)
        mask = band_mask(b, hops)
        assert 0 < mask.sum() < b.graph.num_vertices // 2
        n = b.graph.num_vertices
        new, ref = _fm_both(monkeypatch, b, movable=mask, max_imbalance=0.03,
                            stall_limit=max(64, 4 * n // 50))
        assert_same_fm(new, ref)
        assert new.moves > 0

    def test_all_false_mask(self, monkeypatch):
        g = _weighted_mesh(500, 9)
        b = Bisection(g, _noisy_halves(g, 9))
        mask = np.zeros(g.num_vertices, dtype=bool)
        new, ref = _fm_both(monkeypatch, b, movable=mask)
        assert_same_fm(new, ref)
        assert new.moves == 0
        assert new.bisection.side.tobytes() == b.side.tobytes()

    def test_all_true_mask_equals_none(self, monkeypatch):
        g = _weighted_mesh(900, 10)
        b = Bisection(g, _noisy_halves(g, 10))
        mask = np.ones(g.num_vertices, dtype=bool)
        new, ref = _fm_both(monkeypatch, b, movable=mask, max_imbalance=0.03)
        assert_same_fm(new, ref)
        assert_same_fm(new, fm_refine(b, max_imbalance=0.03))

    def test_movable_isolated_vertices(self, monkeypatch):
        mesh = random_delaunay(700, seed=11)
        edges, _ = mesh.graph.edge_list()
        g = CSRGraph.from_edges(750, edges)
        b = Bisection(g, _noisy_halves(g, 11))
        mask = np.random.default_rng(11).random(750) < 0.5
        mask[700:] = True
        assert_same_fm(*_fm_both(monkeypatch, b, movable=mask))

    def test_zero_weight_vertices(self, monkeypatch):
        b, sd = _strip_input(12)
        g = b.graph
        vwgt = np.random.default_rng(12).integers(0, 3, size=g.num_vertices)
        g = CSRGraph(g.indptr, g.indices, g.ewgt, vwgt.astype(float))
        b = Bisection(g, b.side)
        new, ref = _fm_both(monkeypatch, b, movable=strip_mask(sd, b),
                            max_imbalance=0.02)
        assert_same_fm(new, ref)
        assert new.moves > 0

    def test_infeasible_start(self, monkeypatch):
        g = grid2d(30, 30).graph
        b = Bisection(g, _noisy_halves(g, 13, left=0.85))
        assert b.imbalance > 0.5
        mask = band_mask(b, 3)
        new, ref = _fm_both(monkeypatch, b, movable=mask, max_imbalance=0.05)
        assert_same_fm(new, ref)
        assert new.bisection.imbalance < b.imbalance


def _kway_input(n: int, k: int, seed: int) -> KWayPartition:
    """A k-means geometric assignment, as the k-way stages refine it."""
    mesh = random_delaunay(n, seed=seed)
    parts, _ = kway_geometric_assign(mesh.graph, mesh.coords, k, seed=seed)
    return KWayPartition(mesh.graph, parts, k)


class TestKWayRefineExactness:
    @pytest.mark.parametrize("k,seed", [(3, 11), (8, 13), (16, 12)])
    def test_matches_oracle(self, monkeypatch, k, seed):
        kp = _kway_input(3000, k, seed)
        new = kway_refine(kp, max_imbalance=0.03)
        with monkeypatch.context() as m:
            m.setattr(fm_module, "_fm_pass", fm_pass_reference)
            m.setattr(kway_module, "_pairwise_fm", pairwise_fm_reference)
            ref = kway_refine(kp, max_imbalance=0.03)
        assert new.partition.parts.tobytes() == ref.partition.parts.tobytes()
        assert (new.moves, new.passes) == (ref.moves, ref.passes)
        assert _bits(new.final_cut) == _bits(ref.final_cut)
        assert new.final_cut < new.initial_cut

    def test_unchanged_pairs_are_skipped(self, monkeypatch):
        kp = _kway_input(3000, 8, 12)
        calls = []
        real = fm_module.fm_refine

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(fm_module, "fm_refine", counting)
        kway_refine(kp, max_imbalance=0.03)
        skipped = len(calls)
        calls.clear()
        monkeypatch.setattr(kway_module, "_pairwise_fm", pairwise_fm_reference)
        kway_refine(kp, max_imbalance=0.03)
        assert skipped < len(calls)
