"""Unit and property tests for FM refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph import Bisection, CSRGraph
from repro.graph.generators import grid2d
from repro.refine import fm_refine


def noisy_grid_bisection(nx=16, ny=16, flip=20, seed=0):
    """Vertical grid split with some vertices flipped to the wrong side."""
    g = grid2d(nx, ny).graph
    side = (np.arange(nx * ny) % nx >= nx // 2).astype(np.int8)
    rng = np.random.default_rng(seed)
    idx = rng.choice(nx * ny, size=flip, replace=False)
    side[idx] = 1 - side[idx]
    return Bisection(g, side)


class TestFMRefine:
    def test_repairs_noisy_grid_cut(self):
        b = noisy_grid_bisection()
        res = fm_refine(b, max_imbalance=0.05)
        assert res.final_cut <= res.initial_cut
        # the clean vertical cut costs ny=16; FM should get close
        assert res.final_cut <= 24

    def test_never_worsens_cut(self):
        for seed in range(5):
            b = noisy_grid_bisection(seed=seed)
            res = fm_refine(b)
            assert res.final_cut <= res.initial_cut + 1e-9

    def test_respects_balance(self):
        b = noisy_grid_bisection()
        res = fm_refine(b, max_imbalance=0.05)
        assert res.bisection.imbalance <= 0.05 + 1e-9

    def test_perfect_cut_untouched(self):
        g = grid2d(8, 8).graph
        side = (np.arange(64) % 8 >= 4).astype(np.int8)
        b = Bisection(g, side)
        res = fm_refine(b)
        assert res.final_cut == res.initial_cut == 8

    def test_unbalanced_input_gets_rebalanced_toward_limit(self):
        g = grid2d(10, 10).graph
        side = np.zeros(100, dtype=np.int8)
        side[:10] = 1  # 90/10 split
        res = fm_refine(Bisection(g, side), max_imbalance=0.05, max_passes=12)
        assert res.bisection.imbalance < Bisection(g, side).imbalance

    def test_movable_mask_respected(self):
        b = noisy_grid_bisection()
        frozen = np.zeros(b.graph.num_vertices, dtype=bool)  # nothing movable
        res = fm_refine(b, movable=frozen)
        assert np.array_equal(res.bisection.side, b.side)

    def test_movable_mask_wrong_shape(self):
        b = noisy_grid_bisection()
        with pytest.raises(PartitionError):
            fm_refine(b, movable=np.zeros(3, dtype=bool))

    def test_negative_imbalance_rejected(self):
        b = noisy_grid_bisection()
        with pytest.raises(PartitionError):
            fm_refine(b, max_imbalance=-0.1)

    def test_negative_max_passes_rejected(self):
        with pytest.raises(PartitionError, match="max_passes"):
            fm_refine(noisy_grid_bisection(), max_passes=-3)

    def test_stall_limit_below_one_rejected(self):
        with pytest.raises(PartitionError, match="stall_limit"):
            fm_refine(noisy_grid_bisection(), stall_limit=-1)
        with pytest.raises(PartitionError, match="stall_limit"):
            fm_refine(noisy_grid_bisection(), stall_limit=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_imbalance_rejected(self, bad):
        with pytest.raises(PartitionError, match="max_imbalance"):
            fm_refine(noisy_grid_bisection(), max_imbalance=bad)

    def test_result_fields_consistent(self):
        b = noisy_grid_bisection()
        res = fm_refine(b)
        assert res.initial_cut == b.cut_weight
        assert res.final_cut == res.bisection.cut_weight
        assert res.improvement == res.initial_cut - res.final_cut
        assert res.passes >= 1

    def test_weighted_edges(self):
        # heavy edge must not be cut when a light alternative exists
        g = CSRGraph.from_edges(
            4,
            np.array([[0, 1], [1, 2], [2, 3]]),
            np.array([1.0, 100.0, 1.0]),
        )
        b = Bisection(g, np.array([0, 1, 0, 1]))  # cuts all three edges
        res = fm_refine(b, max_imbalance=0.5)
        assert res.final_cut <= 2.0

    def test_single_vertex_graph(self):
        g = CSRGraph.empty(1)
        b = Bisection(g, np.array([0]))
        res = fm_refine(b)
        assert res.final_cut == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(20, 150))
def test_fm_invariants_on_random_graphs(seed, n):
    """FM never worsens the cut, keeps labels binary and preserves the
    vertex set on arbitrary random graphs and random starting sides."""
    rng = np.random.default_rng(seed)
    g = CSRGraph.from_edges(n, rng.integers(0, n, size=(3 * n, 2)))
    side = rng.integers(0, 2, n).astype(np.int8)
    if side.sum() in (0, n):
        side[0] = 1 - side[0]
    b = Bisection(g, side)
    res = fm_refine(b, max_imbalance=0.2)
    if b.imbalance <= 0.2:
        # feasible input: the cut never worsens
        assert res.final_cut <= res.initial_cut + 1e-9
    else:
        # infeasible input: FM may trade cut for balance, never worsen both
        assert (
            res.bisection.imbalance < b.imbalance - 1e-12
            or res.final_cut <= res.initial_cut + 1e-9
        )
    assert set(np.unique(res.bisection.side)) <= {0, 1}
    assert res.bisection.graph is g
