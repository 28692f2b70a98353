"""Unit tests for the fixed-lattice repulsion approximation (Eq. 1-2)."""

import tracemalloc

import numpy as np
import pytest

from repro.embed.box import Box
from repro.embed.forces import repulsive_forces_exact
from repro.embed.lattice import (
    LatticeStats,
    LatticeWorkspace,
    beta_force_field,
    lattice_stats,
    repulsive_forces_lattice,
)
from repro.errors import EmbeddingError


class TestLatticeStats:
    def test_mass_conserved_and_com_weighted(self):
        pos = np.array([[0.1, 0.1], [0.3, 0.1], [0.9, 0.9]])
        masses = np.array([1.0, 3.0, 2.0])
        box = Box.unit()
        stats = lattice_stats(pos, masses, box, s=2)
        assert stats.mass.sum() == pytest.approx(6.0)
        # the two left points share cell (0, 0): weighted mean position
        np.testing.assert_allclose(stats.com[0], [0.25, 0.1])
        assert stats.mass[0] == pytest.approx(4.0)
        # top-right cell holds the third point
        assert stats.mass[3] == pytest.approx(2.0)
        np.testing.assert_allclose(stats.com[3], [0.9, 0.9])

    def test_empty_cells_have_zero_mass_and_com(self):
        pos = np.array([[0.1, 0.1]])
        stats = lattice_stats(pos, np.ones(1), Box.unit(), s=4)
        assert (stats.mass > 0).sum() == 1
        occupied = int(np.flatnonzero(stats.mass)[0])
        empty = stats.com[np.arange(16) != occupied]
        np.testing.assert_array_equal(empty, 0.0)

    def test_shape_validation(self):
        with pytest.raises(EmbeddingError, match="shapes"):
            LatticeStats(s=2, mass=np.zeros(3), com=np.zeros((4, 2)))


class TestBetaForceField:
    def test_two_cells_repel_symmetrically(self):
        stats = LatticeStats(
            s=2,
            mass=np.array([1.0, 1.0, 0.0, 0.0]),
            com=np.array([[0.25, 0.25], [0.75, 0.25], [0, 0], [0, 0]]),
        )
        field = beta_force_field(stats, c=1.0, k=1.0)
        # equal masses at mirrored positions: fields point apart, equal magnitude
        assert field[0][0] < 0 < field[1][0]
        np.testing.assert_allclose(field[0], -field[1])

    def test_empty_cells_exert_and_feel_nothing(self):
        stats = LatticeStats(
            s=2,
            mass=np.array([2.0, 0.0, 0.0, 0.0]),
            com=np.array([[0.2, 0.2], [0, 0], [0, 0], [0, 0]]),
        )
        field = beta_force_field(stats)
        np.testing.assert_array_equal(field[1:], 0.0)
        # a lone occupied cell feels no force either
        np.testing.assert_array_equal(field[0], 0.0)


class TestRepulsiveForcesLattice:
    def test_converges_to_exact_as_lattice_refines(self):
        # jittered grid: once the lattice is finer than the minimum
        # point separation every cell is a singleton and Eq. 1-2 reduce
        # to the exact all-pairs sum
        rng = np.random.default_rng(3)
        base = np.stack(
            np.meshgrid(np.arange(16), np.arange(16), indexing="ij"), axis=-1
        ).reshape(-1, 2) / 16.0
        pos = base + rng.uniform(-0.01, 0.01, size=base.shape)
        masses = rng.uniform(0.5, 2.0, size=256)
        exact = repulsive_forces_exact(pos, masses)
        scale = float(np.linalg.norm(exact))
        errs = [
            float(np.linalg.norm(repulsive_forces_lattice(pos, masses, s=s)
                                 - exact)) / scale
            for s in (2, 8, 32)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-9

    def test_external_stats_reused(self):
        rng = np.random.default_rng(4)
        pos = rng.random((50, 2))
        box = Box.of_points(pos)
        stats = lattice_stats(pos, np.ones(50), box, s=8)
        a = repulsive_forces_lattice(pos, box=box, s=8, stats=stats)
        b = repulsive_forces_lattice(pos, box=box, s=8)
        np.testing.assert_allclose(a, b)

    def test_stale_stats_change_forces(self):
        rng = np.random.default_rng(5)
        pos = rng.random((50, 2))
        box = Box.unit()
        stale = lattice_stats(rng.random((50, 2)), np.ones(50), box, s=4)
        a = repulsive_forces_lattice(pos, box=box, s=4, stats=stale)
        b = repulsive_forces_lattice(pos, box=box, s=4)
        assert not np.allclose(a, b)

    def test_mismatched_stats_resolution_raises(self):
        pos = np.random.default_rng(0).random((10, 2))
        stats = lattice_stats(pos, np.ones(10), Box.unit(), s=4)
        with pytest.raises(EmbeddingError, match="s=4"):
            repulsive_forces_lattice(pos, box=Box.unit(), s=8, stats=stats)

    def test_single_cell_reduces_to_own_cell_term(self):
        # with s=1 every pair interacts only through the own-cell term;
        # two equal points repel along their separation axis
        pos = np.array([[0.25, 0.5], [0.75, 0.5]])
        out = repulsive_forces_lattice(pos, s=1, c=1.0)
        assert out[0][0] < 0 < out[1][0]
        np.testing.assert_allclose(out[0], -out[1])


class TestLatticeMemory:
    def test_fine_lattice_scratch_is_bounded(self):
        # s = 64 (B = 4,096): four dense (B, B) pair matrices would be
        # 512 MiB; the blocked field needs O(rows·B) scratch plus the
        # per-vertex rows
        rng = np.random.default_rng(6)
        pos = rng.random((20_000, 2))
        masses = np.ones(20_000)
        box = Box.of_points(pos)
        tracemalloc.start()
        try:
            repulsive_forces_lattice(pos, masses, box=box, s=64,
                                     workspace=LatticeWorkspace())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
