"""Tests for distributed matching and coarsening on the virtual machine."""

import numpy as np
import pytest

from repro.coarsen import validate_matching
from repro.coarsen.parallel import dist_build_hierarchy, dist_match
from repro.errors import GraphError
from repro.graph import cut_weight
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import ZERO_COST, run_spmd


def run_match(graph, p, rounds=3):
    def prog(comm):
        return (yield from dist_match(comm, graph, rounds=rounds))

    res = run_spmd(prog, p, machine=ZERO_COST, seed=1)
    return res


class TestDistMatch:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_valid_matching_any_p(self, p):
        g = random_delaunay(400, seed=0).graph
        res = run_match(g, p)
        match = res.values[0]
        validate_matching(g, match)

    def test_all_ranks_agree(self):
        g = grid2d(12, 12).graph
        res = run_match(g, 4)
        for v in res.values[1:]:
            assert np.array_equal(res.values[0], v)

    def test_matches_most_vertices(self):
        g = grid2d(20, 20).graph
        match = run_match(g, 4).values[0]
        frac = (match != np.arange(400)).mean()
        assert frac > 0.6

    def test_more_rounds_match_more(self):
        g = random_delaunay(500, seed=1).graph
        m1 = (run_match(g, 4, rounds=1).values[0] != np.arange(500)).sum()
        m3 = (run_match(g, 4, rounds=3).values[0] != np.arange(500)).sum()
        assert m3 >= m1

    def test_deterministic(self):
        g = random_delaunay(300, seed=2).graph
        a = run_match(g, 4).values[0]
        b = run_match(g, 4).values[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_rejects_rounds_below_one(self, rounds):
        g = grid2d(10, 10).graph
        with pytest.raises(GraphError, match="rounds"):
            run_match(g, 2, rounds=rounds)


class TestDistHierarchy:
    def run_hier(self, graph, p, **kw):
        def prog(comm):
            return (yield from dist_build_hierarchy(comm, graph, **kw))

        return run_spmd(prog, p, machine=ZERO_COST, seed=3)

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_reaches_coarsest(self, p):
        g = random_delaunay(2000, seed=3).graph
        graphs, cmaps = self.run_hier(g, p, coarsest_size=150).values[0]
        assert graphs[-1].num_vertices <= 400  # parallel matching is looser
        assert len(graphs) == len(cmaps) + 1

    def test_all_ranks_share_identical_hierarchy(self):
        g = grid2d(24, 24).graph
        vals = self.run_hier(g, 8, coarsest_size=60).values
        g0, c0 = vals[0]
        for gr, cm in vals[1:]:
            assert len(gr) == len(g0)
            # Shared reference: literally the same objects
            assert gr[-1] is g0[-1]

    def test_vertex_weight_conserved(self):
        g = random_delaunay(1000, seed=4).graph
        graphs, _ = self.run_hier(g, 4, coarsest_size=100).values[0]
        for gr in graphs:
            assert gr.total_vertex_weight == pytest.approx(1000.0)

    def test_projected_cut_invariant(self):
        g = random_delaunay(900, seed=5).graph
        graphs, cmaps = self.run_hier(g, 4, coarsest_size=100).values[0]
        rng = np.random.default_rng(0)
        side = rng.integers(0, 2, graphs[-1].num_vertices).astype(np.int8)
        fine = side
        for cmap in reversed(cmaps):
            fine = fine[cmap]
        assert cut_weight(graphs[-1], side) == pytest.approx(cut_weight(g, fine))

    def test_quarters_with_keep_every_other(self):
        g = random_delaunay(4000, seed=6).graph
        graphs, _ = self.run_hier(g, 16, coarsest_size=100).values[0]
        sizes = [gr.num_vertices for gr in graphs]
        # strong reduction on the large levels (parallel matching loosens
        # up on tiny graphs where most edges cross rank boundaries)
        for a, b in list(zip(sizes, sizes[1:]))[:3]:
            assert b < 0.5 * a
        assert sizes[-1] < 0.05 * sizes[0]

    def test_rejects_rounds_below_one(self):
        # checked up front, even when the graph is already coarse enough
        g = grid2d(4, 4).graph
        with pytest.raises(GraphError, match="rounds"):
            self.run_hier(g, 2, coarsest_size=100, rounds=0)

    def test_matches_costs_charged(self):
        g = random_delaunay(1000, seed=7).graph

        def prog(comm):
            return (yield from dist_build_hierarchy(comm, g, coarsest_size=100))

        from repro.parallel import QDR_CLUSTER

        res = run_spmd(prog, 4, machine=QDR_CLUSTER, seed=8)
        assert res.elapsed > 0
        assert res.comp_time.max() > 0
        assert res.comm_time.max() > 0
