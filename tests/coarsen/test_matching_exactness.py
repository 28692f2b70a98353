"""Byte-identity of the coarsening matchers with their oracles.

The reference bodies live in :mod:`tests.oracles.coarsen`; both
matchers rate slots by expansion*² and share one tie rule (first slot
wins, -inf and NaN make no proposal).  The segmented-argmax proposals
must pick the same neighbour as the per-vertex rule; the mutual step
run once at root must give every rank the same matching and the same
ledger as every rank deriving it; ``hem-vec`` on live slots only must
match the full-adjacency rounds.  Weights cover ties, all-equal, ±inf and NaN (the last two
only on ``validate=False`` graphs, which is how they can reach a
matcher).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.coarsen import heavy_edge_matching_vec
from repro.coarsen import parallel as par
from repro.coarsen.parallel import dist_build_hierarchy, dist_match
from repro.graph import CSRGraph
from repro.graph.distributed import block_of, block_starts
from repro.graph.generators import grid2d, path_graph, random_delaunay
from repro.parallel import QDR_CLUSTER, run_spmd
from tests.conftest import ledger_fingerprint
from tests.oracles.coarsen import (
    dist_match_reference,
    heavy_edge_matching_vec_reference,
    local_proposals_reference,
)


def _reweight(g: CSRGraph, values, seed: int) -> CSRGraph:
    """``g`` with each undirected edge weighted by a draw from
    ``values`` (both stored directions equal), unvalidated so that
    non-finite weights get through."""
    rng = np.random.default_rng(seed)
    src = g.edge_sources()
    n = max(g.num_vertices, 1)
    key = np.minimum(src, g.indices) * n + np.maximum(src, g.indices)
    _, inv = np.unique(key, return_inverse=True)
    per_edge = rng.choice(np.asarray(values, dtype=np.float64), size=inv.max() + 1)
    return CSRGraph(g.indptr, g.indices, per_edge[inv], g.vwgt, validate=False)


_WEIGHTS = {
    "unit": None,
    "ties": [1.0, 2.0, 3.0],
    "equal": [5.0],
    "real": np.linspace(0.5, 3.0, 97),
    "inf": [1.0, 2.0, np.inf, -np.inf],
    "nan": [1.0, 2.0, np.nan],
    "mixed": [1.0, np.inf, -np.inf, np.nan],
}


def _graph(kind: str, weights: str, seed: int) -> CSRGraph:
    g = {"grid": lambda: grid2d(13, 11).graph,
         "mesh": lambda: random_delaunay(300, seed=seed).graph,
         "path": lambda: path_graph(10).graph}[kind]()
    values = _WEIGHTS[weights]
    return g if values is None else _reweight(g, values, seed)


CASES = [(kind, weights) for kind in ("grid", "mesh") for weights in _WEIGHTS]


def _same_graph(a: CSRGraph, b: CSRGraph) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in
               ((a.indptr, b.indptr), (a.indices, b.indices),
                (a.ewgt, b.ewgt), (a.vwgt, b.vwgt)))


class TestLocalProposals:
    @pytest.mark.parametrize("kind,weights", CASES)
    def test_matches_oracle(self, kind, weights):
        g = _graph(kind, weights, seed=3)
        n = g.num_vertices
        rng = np.random.default_rng(11)
        for p in (1, 3, 16, n + 2):
            starts = block_starts(n, p)
            for rank in range(p):
                lo, hi = block_of(starts, rank)
                for salt in (0, 16, 1234):
                    for frac in (0.0, 0.3, 0.9):
                        matched = rng.random(n) < frac
                        ref = local_proposals_reference(g, lo, hi, matched, salt)
                        new = par._local_proposals(
                            par._block_slots(g, lo, hi, salt), hi - lo, matched)
                        assert new.tobytes() == ref.tobytes(), (p, rank, salt, frac)

    def test_first_slot_wins_and_nan_is_skipped(self):
        # vertex 0 has four equal-weight slots; every tie-break perturbs
        # them differently, so force an exact tie by using weights far
        # above the perturbation's resolution.  A NaN among a vertex's
        # candidates means no proposal at all.
        indptr = np.array([0, 4, 5, 6, 7, 8])
        indices = np.array([1, 2, 3, 4, 0, 0, 0, 0])
        for w0, want in (([2.0**60] * 4, 1), ([1.0, np.nan, 3.0, np.nan], -1)):
            ewgt = np.concatenate([w0, w0])
            g = CSRGraph(indptr, indices, ewgt, validate=False)
            matched = np.zeros(5, dtype=bool)
            new = par._local_proposals(par._block_slots(g, 0, 5, 0), 5, matched)
            ref = local_proposals_reference(g, 0, 5, matched, 0)
            assert new.tobytes() == ref.tobytes()
            assert new[0] == want

    def test_rating_divides_by_vertex_weights(self):
        # a heavy edge to a heavy super-vertex loses to a lighter edge
        # to a light one: 4² / (1·8) = 2 < 2² / (1·1) = 4
        g = CSRGraph.from_edges(3, np.array([[0, 1], [0, 2]]),
                                np.array([4.0, 2.0]),
                                np.array([1.0, 8.0, 1.0]))
        matched = np.zeros(3, dtype=bool)
        new = par._local_proposals(par._block_slots(g, 0, 3, 0), 3, matched)
        assert new.tobytes() == local_proposals_reference(
            g, 0, 3, matched, 0).tobytes()
        assert new[0] == 2
        assert heavy_edge_matching_vec(g, seed=1)[0] == 2


class TestHemVec:
    @pytest.mark.parametrize("kind,weights", CASES)
    @pytest.mark.parametrize("max_stall_rounds", [1, 4])
    def test_matches_oracle(self, kind, weights, max_stall_rounds):
        g = _graph(kind, weights, seed=5)
        for seed in range(4):
            new = heavy_edge_matching_vec(g, seed=seed,
                                          max_stall_rounds=max_stall_rounds)
            ref = heavy_edge_matching_vec_reference(
                g, seed=seed, max_stall_rounds=max_stall_rounds)
            assert new.tobytes() == ref.tobytes(), seed

    def test_isolated_and_empty(self):
        for g in (CSRGraph.empty(0), CSRGraph.empty(5),
                  CSRGraph.from_edges(6, np.array([[0, 1], [3, 4]]))):
            assert (heavy_edge_matching_vec(g, seed=1).tobytes()
                    == heavy_edge_matching_vec_reference(g, seed=1).tobytes())


def _run(prog, p, sanitize=None):
    return run_spmd(prog, p, machine=QDR_CLUSTER, seed=1, sanitize=sanitize)


def _assert_same_run(new, ref):
    assert json.dumps(ledger_fingerprint(new.comm_stats)) == json.dumps(
        ledger_fingerprint(ref.comm_stats))
    assert np.asarray(new.clocks).tobytes() == np.asarray(ref.clocks).tobytes()


class TestDistMatch:
    @pytest.mark.parametrize("kind,weights", CASES + [("path", "unit"),
                                                      ("path", "ties")])
    @pytest.mark.parametrize("p", [1, 3, 16])
    def test_matches_oracle(self, kind, weights, p):
        g = _graph(kind, weights, seed=7)

        def prog(comm, matcher, rounds):
            return (yield from matcher(comm, g, rounds=rounds, salt=p + 31))

        for rounds in (1, 3):
            new = _run(lambda c: prog(c, dist_match, rounds), p)
            ref = _run(lambda c: prog(c, dist_match_reference, rounds), p)
            for a, b in zip(new.values, ref.values):
                assert np.asarray(a).tobytes() == b.tobytes()
            _assert_same_run(new, ref)

    def test_shared_pair_is_never_mutated(self):
        # the sanitizer checksums every posted payload, including the
        # (match, matched) pair root shares each round
        g = random_delaunay(400, seed=2).graph

        def prog(comm):
            return (yield from dist_match(comm, g, rounds=3, salt=5))

        res = _run(prog, 4, sanitize=True)
        ref = _run(lambda c: dist_match_reference(c, g, rounds=3, salt=5), 4)
        assert res.values[0].tobytes() == ref.values[0].tobytes()


class TestDistHierarchy:
    @pytest.mark.parametrize("keep_every_other", [True, False])
    @pytest.mark.parametrize("kind,weights,p", [
        ("mesh", "unit", 3), ("mesh", "ties", 16), ("grid", "unit", 16),
        ("grid", "equal", 1), ("mesh", "real", 4), ("path", "unit", 16),
    ])
    def test_matches_oracle(self, monkeypatch, kind, weights, p, keep_every_other):
        g = _graph(kind, weights, seed=9)

        def prog(comm):
            return (yield from dist_build_hierarchy(
                comm, g, coarsest_size=4, keep_every_other=keep_every_other))

        new = _run(prog, p)
        with monkeypatch.context() as m:
            m.setattr(par, "dist_match", dist_match_reference)
            ref = _run(prog, p)
        (graphs, cmaps), (rgraphs, rcmaps) = new.values[0], ref.values[0]
        assert len(graphs) == len(rgraphs) and len(cmaps) == len(rcmaps)
        assert all(_same_graph(a, b) for a, b in zip(graphs, rgraphs))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cmaps, rcmaps))
        _assert_same_run(new, ref)
