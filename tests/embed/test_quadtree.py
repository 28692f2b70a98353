"""Unit tests for the Barnes-Hut (hierarchical grid) repulsion kernel."""

import tracemalloc

import numpy as np
import pytest

from repro.embed.forces import repulsive_forces_exact
from repro.embed.quadtree import repulsive_forces_bh
from repro.errors import EmbeddingError


class TestSmallInputs:
    def test_small_n_is_exact(self):
        rng = np.random.default_rng(1)
        pos = rng.random((60, 2))
        masses = rng.uniform(0.5, 2.0, size=60)
        np.testing.assert_allclose(
            repulsive_forces_bh(pos, masses),
            repulsive_forces_exact(pos, masses),
        )

    def test_invalid_shape_raises(self):
        with pytest.raises(EmbeddingError, match="pos"):
            repulsive_forces_bh(np.zeros((5, 3)))

    def test_empty_input(self):
        out = repulsive_forces_bh(np.zeros((0, 2)))
        assert out.shape == (0, 2)


class TestInputErrors:
    def test_masses_shape_mismatch_raises(self):
        pos = np.random.default_rng(7).random((500, 2))
        with pytest.raises(EmbeddingError, match="masses"):
            repulsive_forces_bh(pos, np.ones(499))

    def test_non_finite_positions_raise(self):
        pos = np.random.default_rng(8).random((500, 2))
        pos[123, 1] = np.nan
        with pytest.raises(EmbeddingError, match="finite"):
            repulsive_forces_bh(pos, np.ones(500))


class TestMemory:
    """One call's peak allocation stays bounded: the far field works in
    cache-sized point blocks, so only the per-level cell tables and the
    near field's pair lists scale with n."""

    @pytest.mark.parametrize("n,limit_mib", [(1_500, 4), (100_000, 40)])
    def test_peak_allocation(self, n, limit_mib):
        rng = np.random.default_rng(9)
        pos = rng.random((n, 2)) * np.sqrt(n)
        masses = np.ones(n)
        tracemalloc.start()
        try:
            repulsive_forces_bh(pos, masses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20


class TestAccuracy:
    def test_close_to_exact_above_cutoff(self):
        rng = np.random.default_rng(2)
        pos = rng.random((800, 2))
        masses = rng.uniform(0.5, 2.0, size=800)
        exact = repulsive_forces_exact(pos, masses)
        approx = repulsive_forces_bh(pos, masses)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_accurate_across_leaf_targets(self):
        rng = np.random.default_rng(6)
        pos = rng.random((600, 2))
        exact = repulsive_forces_exact(pos, np.ones(600))
        for leaf_target in (1.0, 4.0, 16.0):
            approx = repulsive_forces_bh(pos, leaf_target=leaf_target)
            rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
            assert rel < 0.05, leaf_target


class TestPhysics:
    def test_forces_scale_with_mass_products(self):
        rng = np.random.default_rng(3)
        pos = rng.random((400, 2))
        base = repulsive_forces_bh(pos, np.ones(400))
        doubled = repulsive_forces_bh(pos, np.full(400, 2.0))
        np.testing.assert_allclose(doubled, 4.0 * base, rtol=1e-10)

    def test_net_force_near_zero(self):
        # repulsion is pairwise antisymmetric; the far field uses
        # point-vs-cell approximations, so cancellation is approximate
        rng = np.random.default_rng(4)
        pos = rng.random((500, 2))
        out = repulsive_forces_bh(pos, np.ones(500))
        scale = np.abs(out).sum()
        assert np.abs(out.sum(axis=0)).max() < 1e-3 * scale

    def test_two_clusters_repel(self):
        rng = np.random.default_rng(5)
        left = rng.normal(loc=(-2.0, 0.0), scale=0.1, size=(300, 2))
        right = rng.normal(loc=(2.0, 0.0), scale=0.1, size=(300, 2))
        out = repulsive_forces_bh(np.vstack([left, right]))
        assert out[:300, 0].mean() < 0 < out[300:, 0].mean()
