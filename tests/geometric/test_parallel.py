"""Focused tests for the distributed geometric partitioner."""

import numpy as np
import pytest

from repro.core.config import ScalaPartConfig
from repro.core.methods import get_method
from repro.graph import Bisection, cut_size
from repro.graph.generators import random_delaunay
from repro.parallel import QDR_CLUSTER, ZERO_COST, run_spmd


def run_pg(graph, coords, p, cfg=None, seed=5, machine=ZERO_COST):
    def prog(comm):
        return (yield from get_method("SP-PG7-NL").distributed(
            comm, graph, coords=coords, config=cfg, seed=seed))

    return run_spmd(prog, p, machine=machine, seed=1)


class TestDistSPPG7NL:
    @pytest.mark.parametrize("p", [1, 2, 4, 16, 64])
    def test_valid_any_p(self, p):
        g, pts = random_delaunay(1000, seed=0)
        res = run_pg(g, pts, p)
        side, info = res.values[0]
        bis = Bisection(g, np.asarray(side, dtype=np.int8))
        bis.validate(max_imbalance=0.08)
        assert bis.cut_size < 6 * np.sqrt(1000)

    def test_all_ranks_agree(self):
        g, pts = random_delaunay(600, seed=1)
        res = run_pg(g, pts, 8)
        sides = [np.asarray(v[0]) for v in res.values]
        for s in sides[1:]:
            assert np.array_equal(s, sides[0])

    def test_refinement_never_worsens(self):
        g, pts = random_delaunay(1500, seed=2)
        side, info = run_pg(g, pts, 8).values[0]
        cut = cut_size(g, np.asarray(side))
        assert cut <= info["geometric_cut"] + 1e-9

    def test_strip_info_reported(self):
        g, pts = random_delaunay(800, seed=3)
        _, info = run_pg(g, pts, 4).values[0]
        assert info["candidates"] == ScalaPartConfig().ncircles
        assert info["strip_size"] > 0

    def test_histogram_threshold_near_balanced(self):
        """The distributed median-by-histogram should land within a few
        percent of perfect balance (128 bins)."""
        g, pts = random_delaunay(2000, seed=4)
        side, _ = run_pg(g, pts, 16).values[0]
        bis = Bisection(g, np.asarray(side, dtype=np.int8))
        assert bis.imbalance < 0.06

    def test_p_matches_sequential_family(self):
        """Distributed and sequential SP-PG7-NL draw from the same
        candidate family, so quality is comparable (within 2x)."""
        from repro.core.scalapart import sp_pg7_nl

        g, pts = random_delaunay(1200, seed=5)
        seq = sp_pg7_nl(g, pts, seed=6).cut_size
        side, _ = run_pg(g, pts, 8, seed=6).values[0]
        par = cut_size(g, np.asarray(side))
        assert par <= 2 * seq + 10

    def test_communication_is_cheap(self):
        """'Total costs for partitioning are low' — a handful of
        collectives, little volume."""
        g, pts = random_delaunay(1500, seed=7)
        res = run_pg(g, pts, 64, machine=QDR_CLUSTER)
        assert res.collectives < 25
        assert res.elapsed < 5e-3
