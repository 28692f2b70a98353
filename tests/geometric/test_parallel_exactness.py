"""Byte-identity of the distributed circle selection.

:func:`repro.geometric.parallel.dist_geometric` takes each candidate's
side once per vertex (owned rows plus the rank's ghost endpoints) and
reads every adjacency slot's side by gather.  The per-slot evaluation
it replaced — every slot's far endpoint mapped to the sphere, one
mat-vec per candidate over all slots — lives in
:mod:`tests.oracles.geometric`.  Both run on the simulator and must
select the same circle on every rank: the owned signed distances byte
for byte, the reduced cut bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ScalaPartConfig
from repro.geometric.parallel import dist_geometric
from repro.graph import CSRGraph
from repro.graph.generators import grid2d, path_graph, random_delaunay
from repro.parallel import ZERO_COST, run_spmd
from tests.oracles.geometric import dist_geometric_reference


def _select(prog, graph, coords, p, seed):
    def rank(comm):
        return (yield from prog(comm, graph, coords, seed=seed))

    return run_spmd(rank, p, machine=ZERO_COST, seed=1).values


def _weighted(n: int, seed: int):
    mesh = random_delaunay(n, seed=seed)
    rng = np.random.default_rng(seed)
    edges, _ = mesh.graph.edge_list()
    g = CSRGraph.from_edges(n, edges, rng.random(edges.shape[0]) + 0.5,
                            rng.integers(1, 5, size=n).astype(float))
    return g, mesh.coords


def _disjoint_grids():
    a = grid2d(12, 9)
    edges, _ = a.graph.edge_list()
    n = a.graph.num_vertices
    g = CSRGraph.from_edges(2 * n, np.vstack([edges, edges + n]))
    return g, np.vstack([a.coords, a.coords + [30.0, 5.0]])


def _grid_with_isolated():
    a = grid2d(15, 15)
    edges, _ = a.graph.edge_list()
    n = a.graph.num_vertices
    rng = np.random.default_rng(3)
    g = CSRGraph.from_edges(n + 20, edges)
    return g, np.vstack([a.coords, rng.random((20, 2)) * 15])


def _mesh(gen):
    return gen.graph, gen.coords


CASES = {
    "grid": lambda: _mesh(grid2d(40, 31)),
    "delaunay": lambda: _mesh(random_delaunay(2500, seed=4)),
    "weighted": lambda: _weighted(1500, 5),
    "n<P": lambda: _mesh(path_graph(7)),
    "path5": lambda: _mesh(path_graph(5)),
    "grid3x3": lambda: _mesh(grid2d(3, 3)),
    "disjoint-grids": _disjoint_grids,
    "isolated": _grid_with_isolated,
}


@pytest.mark.parametrize("p", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("case", list(CASES))
def test_selection_matches_per_slot_oracle(case, p):
    graph, coords = CASES[case]()
    for seed in (1, 2):
        new = _select(dist_geometric, graph, coords, p, seed)
        ref = _select(dist_geometric_reference, graph, coords, p, seed)
        for a, b in zip(new, ref):
            assert a.sd_own.tobytes() == b.sd_own.tobytes()
            assert np.float64(a.best_cut).tobytes() == \
                np.float64(b.best_cut).tobytes()
            assert a.candidates == b.candidates == ScalaPartConfig().ncircles
        # the selection is global: every rank holds the same cut
        assert len({np.float64(a.best_cut).tobytes() for a in new}) == 1
