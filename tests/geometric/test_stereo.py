"""Tests for stereographic lifting and the conformal map."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometric import conformal_to_center, lift, project, rotation_to_south
from tests.oracles.geometric import lift_reference


class TestLiftProject:
    def test_lift_lands_on_sphere(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 2)) * 3
        u = lift(pts)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)

    def test_origin_maps_to_south_pole(self):
        u = lift(np.zeros((1, 2)))
        assert np.allclose(u[0], [0, 0, -1])

    def test_far_points_approach_north_pole(self):
        u = lift(np.array([[1e6, 0.0]]))
        assert u[0, 2] > 0.999999

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(100, 2))
        assert np.allclose(project(lift(pts)), pts, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 3.0, 1e6])
    def test_matches_row_sum_oracle(self, scale):
        """Column-wise ``x*x + y*y`` adds the same two products as the
        row sum, so the lift is byte-identical."""
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(5000, 2)) * scale
        pts[:3] = [[0.0, 0.0], [-0.0, 1e-300], [1e150, -1e-200]]
        fortran = np.asfortranarray(pts)
        for p in (pts, fortran, pts[::3], pts[:0]):
            assert lift(p).tobytes() == lift_reference(p).tobytes()

    def test_shape_validation(self):
        with pytest.raises(GeometryError):
            lift(np.zeros((3, 3)))
        with pytest.raises(GeometryError):
            project(np.zeros((3, 2)))


class TestRotation:
    def test_takes_vector_south(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            r = rotation_to_south(v)
            assert np.allclose(r @ v, [0, 0, -1], atol=1e-9)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)

    def test_degenerate_inputs(self):
        assert np.allclose(rotation_to_south(np.zeros(3)), np.eye(3))
        r = rotation_to_south(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(r @ np.array([0, 0, 1.0]), [0, 0, -1])


class TestConformal:
    def test_stays_on_sphere(self):
        rng = np.random.default_rng(3)
        u = lift(rng.normal(size=(300, 2)))
        mapped, rot, alpha = conformal_to_center(u, np.array([0.2, 0.1, -0.3]))
        assert np.allclose(np.linalg.norm(mapped, axis=1), 1.0)
        assert 0 < alpha <= 1.5

    def test_centers_biased_cloud(self):
        """A point cloud crowded near one spot should spread out: the
        mean of the mapped points moves toward the origin."""
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(500, 2)) * 0.1 + np.array([2.0, 1.0])
        u = lift(pts)
        from repro.geometric import approx_centerpoint

        cp = approx_centerpoint(u, seed=5)
        mapped, _, _ = conformal_to_center(u, cp)
        assert np.linalg.norm(mapped.mean(axis=0)) < np.linalg.norm(u.mean(axis=0))

    def test_identity_when_centered(self):
        rng = np.random.default_rng(5)
        u = lift(rng.normal(size=(100, 2)))
        mapped, rot, alpha = conformal_to_center(u, np.zeros(3))
        assert np.allclose(rot, np.eye(3))
        assert alpha == pytest.approx(1.0)
        assert np.allclose(mapped, u, atol=1e-9)

    def test_exterior_centerpoint_clamped(self):
        u = lift(np.random.default_rng(6).normal(size=(50, 2)))
        mapped, _, _ = conformal_to_center(u, np.array([2.0, 0.0, 0.0]))
        assert np.isfinite(mapped).all()
