"""The distributed k-way refinement equals the sequential one.

``dist_kway_geometric`` runs the greedy sweeps on its root and spreads
each wave of part-disjoint pairs of the pairwise FM phase over the
ranks.  Whatever P and the backend, its labels and extras must be those
of :func:`repro.refine.kway.kway_refine` on the same assignment, byte
for byte.  The assignment is captured from a sim run (the k-means stage
is bit-identical on sim and procs), refined sequentially, and compared
with both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ScalaPartConfig, run_parallel
from repro.geometric import kway as gkway
from repro.graph import CSRGraph
from repro.graph.generators import random_delaunay
from repro.graph.partition import KWayPartition
from repro.parallel import procs_available
from repro.refine.kway import kway_refine

FAST = ScalaPartConfig(coarsest_iters=50, smooth_iters=5)
N = 1200


def _mesh(kind: str):
    mesh = random_delaunay(N, seed=21)
    if kind == "unit":
        return mesh.graph, mesh.coords
    rng = np.random.default_rng(21)
    edges, _ = mesh.graph.edge_list()
    g = CSRGraph.from_edges(N, edges, rng.random(edges.shape[0]) + 0.5,
                            rng.integers(1, 5, size=N).astype(float))
    return g, mesh.coords


@pytest.fixture(scope="module")
def meshes():
    return {kind: _mesh(kind) for kind in ("unit", "weighted")}


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _sequential(monkeypatch, g, coords, p, k):
    """The assignment a P-rank run refines, and kway_refine of it."""
    seen = []

    class Recording(gkway.KWayRefinement):
        def __init__(self, partition, max_imbalance, *args, **kw):
            seen.append((np.array(partition.parts), max_imbalance))
            super().__init__(partition, max_imbalance, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(gkway, "KWayRefinement", Recording)
        run_parallel("KWay-Geometric", g, p, coords=coords, config=FAST,
                     seed=5, k=k, backend="sim")
    assert len(seen) == 1  # the root alone builds the refinement state
    parts, bound = seen[0]
    return kway_refine(KWayPartition(g, parts, k), max_imbalance=bound)


def _assert_same(res, expected):
    assert np.asarray(res.parts).tobytes() == \
        expected.partition.parts.tobytes()
    assert res.extras["refine_moves"] == expected.moves
    assert res.extras["refine_passes"] == expected.passes
    assert _bits(res.extras["geometric_cut"]) == _bits(expected.initial_cut)


CASES = [(kind, k) for kind in ("unit", "weighted") for k in (3, 8, 16)]


@pytest.mark.parametrize("kind,k", CASES)
@pytest.mark.parametrize("p", [1, 2, 3, 4, 16])
def test_sim_matches_sequential(monkeypatch, meshes, kind, k, p):
    g, coords = meshes[kind]
    expected = _sequential(monkeypatch, g, coords, p, k)
    assert expected.moves > 0
    res = run_parallel("KWay-Geometric", g, p, coords=coords, config=FAST,
                       seed=5, k=k, backend="sim")
    _assert_same(res, expected)


@pytest.mark.skipif(not procs_available(),
                    reason="procs backend unavailable (no fork)")
@pytest.mark.parametrize("kind,k", CASES)
@pytest.mark.parametrize("p", [2, 3])
def test_procs_matches_sequential(monkeypatch, meshes, kind, k, p):
    g, coords = meshes[kind]
    expected = _sequential(monkeypatch, g, coords, p, k)
    res = run_parallel("KWay-Geometric", g, p, coords=coords, config=FAST,
                       seed=5, k=k, backend="procs")
    _assert_same(res, expected)
