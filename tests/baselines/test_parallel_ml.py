"""Focused tests for distributed multilevel baselines and RCB."""

import numpy as np
import pytest

from repro.baselines.parallel_ml import (
    dist_multilevel_bisection,
    dist_rcb_bisect,
)
from repro.core import run_parallel
from repro.graph import Bisection, suite
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import QDR_CLUSTER, ZERO_COST, run_spmd


class TestDistRCB:
    def run(self, graph, coords, p, machine=ZERO_COST):
        def prog(comm):
            return (yield from dist_rcb_bisect(comm, graph, coords))

        return run_spmd(prog, p, machine=machine, seed=0)

    @pytest.mark.parametrize("p", [1, 4, 32])
    def test_matches_median_cut(self, p):
        g, pts = grid2d(20, 10)
        side, info = self.run(g, pts, p).values[0]
        bis = Bisection(g, np.asarray(side, dtype=np.int8))
        assert info["axis"] == 0  # widest axis of a 20x10 grid is x
        assert bis.cut_size == 10
        assert bis.imbalance < 0.05

    def test_median_rounds_reported(self):
        g, pts = random_delaunay(500, seed=1)
        _, info = self.run(g, pts, 4).values[0]
        # Zoltan-style bisection search takes many rounds
        assert 5 <= info["median_rounds"] <= 40

    def test_results_p_invariant(self):
        g, pts = random_delaunay(800, seed=2)
        a, _ = self.run(g, pts, 1).values[0]
        b, _ = self.run(g, pts, 16).values[0]
        assert np.array_equal(np.asarray(a), np.asarray(b))


class TestDistMultilevelKnobs:
    def run_ml(self, graph, p, **kw):
        def prog(comm):
            return (yield from dist_multilevel_bisection(comm, graph, **kw))

        return run_spmd(prog, p, machine=QDR_CLUSTER, seed=3)

    def test_band_refine_slower_but_valid(self):
        g = random_delaunay(1500, seed=3).graph
        fast = self.run_ml(g, 16, seed=4, band_refine=False)
        slow = self.run_ml(g, 16, seed=4, band_refine=True)
        for res in (fast, slow):
            side, info = res.values[0]
            Bisection(g, np.asarray(side, dtype=np.int8)).validate(0.12)
        assert slow.elapsed > fast.elapsed

    def test_rounds_increase_refinement_cost(self):
        g = random_delaunay(1200, seed=5).graph
        r1 = self.run_ml(g, 16, seed=6, rounds_per_level=1)
        r4 = self.run_ml(g, 16, seed=6, rounds_per_level=4)
        assert r4.elapsed > r1.elapsed

    def test_phases_labelled(self):
        g = grid2d(24, 24).graph
        res = self.run_ml(g, 8, seed=7)
        for phase in ("coarsen", "initial", "uncoarsen"):
            assert res.phase_elapsed(phase) > 0

    def test_balance_constraint_enforced(self):
        g = random_delaunay(2000, seed=8).graph
        for p in (1, 8, 64):
            side, _ = self.run_ml(g, p, seed=9, max_imbalance=0.05).values[0]
            bis = Bisection(g, np.asarray(side, dtype=np.int8))
            assert bis.imbalance <= 0.12


def test_parmetis_like_balanced_on_suite_delaunay():
    # the plain heavy-edge rating left one coarsest vertex with most of
    # the weight here, and no bisection of it met the 0.15 bound
    g = suite.build("delaunay_n20", 0.35).graph
    res = run_parallel("ParMetis-like", g, 16, seed=1)
    assert res.imbalance <= 0.15
