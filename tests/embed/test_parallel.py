"""Tests for the distributed multilevel fixed-lattice embedding."""

import numpy as np
import pytest

from repro.core import run_parallel
from repro.embed.parallel import dist_multilevel_embedding
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import QDR_CLUSTER, ZERO_COST, procs_available, run_spmd


def run_embed(graph, p, machine=ZERO_COST, seed=1, **kw):
    def prog(comm):
        return (yield from dist_multilevel_embedding(comm, graph, seed=7, **kw))

    return run_spmd(prog, p, machine=machine, seed=seed)


class TestDistEmbedding:
    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_runs_and_is_finite(self, p):
        g = random_delaunay(600, seed=0).graph
        res = run_embed(g, p, smooth_iters=6)
        pos, info = res.values[0]
        assert pos.shape == (600, 2)
        assert np.isfinite(pos).all()
        assert info["levels"] >= 2

    def test_all_ranks_same_result(self):
        g = grid2d(20, 20).graph
        res = run_embed(g, 4, smooth_iters=4)
        pos0 = res.values[0][0]
        for pos, _ in res.values[1:]:
            assert pos is pos0  # shared reference

    def test_deterministic(self):
        g = random_delaunay(400, seed=1).graph
        a = run_embed(g, 4, smooth_iters=4).values[0][0]
        b = run_embed(g, 4, smooth_iters=4).values[0][0]
        assert np.allclose(a, b)

    def test_embedding_has_locality(self):
        """Edges should be short relative to the layout diameter —
        the property the geometric partitioner depends on."""
        g = random_delaunay(1200, seed=2).graph
        pos, _ = run_embed(g, 16, smooth_iters=10).values[0]
        edges, _w = g.edge_list()
        elen = np.linalg.norm(pos[edges[:, 0]] - pos[edges[:, 1]], axis=1).mean()
        diam = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
        assert elen < diam / 5

    def test_phases_accounted(self):
        g = random_delaunay(500, seed=3).graph
        res = run_embed(g, 4, machine=QDR_CLUSTER, smooth_iters=4)
        assert res.phase_elapsed("coarsen") > 0
        assert res.phase_elapsed("embed") > 0

    def test_embed_comm_fraction_grows_with_p(self):
        """Figure 8: the communication share of embedding time grows
        with the processor count."""
        g = random_delaunay(1500, seed=4).graph
        fracs = []
        for p in (4, 64):
            res = run_embed(g, p, machine=QDR_CLUSTER, smooth_iters=6)
            fracs.append(res.phase("embed").comm_fraction)
        assert fracs[1] > fracs[0]

    def test_block_size_reduces_global_comm(self):
        """Larger stale-data blocks mean fewer gathers/reductions."""
        g = random_delaunay(800, seed=5).graph
        r1 = run_embed(g, 16, machine=QDR_CLUSTER, smooth_iters=8, block_size=1)
        r8 = run_embed(g, 16, machine=QDR_CLUSTER, smooth_iters=8, block_size=8)
        assert r8.collectives < r1.collectives
        assert r8.phase("embed").comm_elapsed < r1.phase("embed").comm_elapsed

    def test_more_ranks_not_slower_on_large_graph(self):
        """Simulated embedding time should drop substantially from
        P=1 to P=64 on a graph big enough to amortise latency."""
        g = random_delaunay(3000, seed=6).graph
        t1 = run_embed(g, 1, machine=QDR_CLUSTER, smooth_iters=8).elapsed
        t64 = run_embed(g, 64, machine=QDR_CLUSTER, smooth_iters=8).elapsed
        assert t64 < t1


def _grid_plus_isolated() -> CSRGraph:
    """A 20×20 grid followed by 400 isolated vertices: under the RCB
    ownership map some ranks own no adjacency slot at all."""
    grid = grid2d(20, 20).graph
    src = grid.edge_sources()
    keep = src < grid.indices
    edges = np.stack([src[keep], grid.indices[keep]], axis=1)
    return CSRGraph.from_edges(800, edges)


class TestRanksWithoutEdges:
    """A rank whose owned block has no adjacency slot still smooths
    (``np.bincount`` of an empty input is int64, the forces float64)."""

    def test_sim_p16(self):
        res = run_parallel("ScalaPart", _grid_plus_isolated(), 16, seed=1)
        assert res.parts.shape == (800,)
        assert res.imbalance <= 0.15

    def test_procs_p4(self):
        if not procs_available():
            pytest.skip("procs backend unavailable (no fork)")
        g = _grid_plus_isolated()
        res = run_parallel("ScalaPart", g, 4, seed=1, backend="procs")
        sim = run_parallel("ScalaPart", g, 4, seed=1)
        assert res.parts.tobytes() == sim.parts.tobytes()
        assert res.imbalance <= 0.15
