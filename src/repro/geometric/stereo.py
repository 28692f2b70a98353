"""Stereographic lifting and the GMT conformal map.

Geometric mesh partitioning [9, 24] projects the mesh vertices onto the
unit sphere one dimension up, centres them with a conformal map, and
cuts with random great circles.  This module implements the geometry:

* :func:`lift` — inverse stereographic projection ℝ² → S²; the origin
  maps to the south pole ``(0,0,−1)`` and infinity to the north pole.
* :func:`project` — stereographic projection S² → ℝ² (from the north
  pole), the inverse of :func:`lift`.
* :func:`conformal_to_center` — given an (approximate) centerpoint of
  the lifted points inside the ball, rotate it onto the −z axis and
  apply the GMT dilation (project, scale by √((1−r)/(1+r)), re-lift) so
  the centerpoint moves to the sphere's centre.  Afterwards *every*
  great circle through the centre is a provably balanced separator
  candidate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GeometryError

__all__ = ["lift", "project", "rotation_to_south", "conformal_to_center"]


def lift(points: np.ndarray) -> np.ndarray:
    """Inverse stereographic projection of ``(n, 2)`` points onto S².

    ``u = (2p, ‖p‖² − 1) / (‖p‖² + 1)``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise GeometryError(f"lift expects (n, 2) points, got {points.shape}")
    x, y = points[:, 0], points[:, 1]
    r2 = x * x + y * y
    denom = r2 + 1.0
    out = np.empty((points.shape[0], 3))
    out[:, 0] = 2.0 * x / denom
    out[:, 1] = 2.0 * y / denom
    out[:, 2] = (r2 - 1.0) / denom
    return out


def project(upoints: np.ndarray) -> np.ndarray:
    """Stereographic projection of ``(n, 3)`` sphere points to ℝ²
    (from the north pole; inverse of :func:`lift`).  Points at the pole
    itself are clamped slightly below it."""
    upoints = np.asarray(upoints, dtype=np.float64)
    if upoints.ndim != 2 or upoints.shape[1] != 3:
        raise GeometryError(f"project expects (n, 3) points, got {upoints.shape}")
    z = np.minimum(upoints[:, 2], 1.0 - 1e-12)
    return upoints[:, :2] / (1.0 - z)[:, None]


def rotation_to_south(v: np.ndarray) -> np.ndarray:
    """Rotation matrix taking unit-ish vector ``v`` to ``(0, 0, −1)``.

    Built from the axis–angle form; degenerate inputs (already at a
    pole) return the identity or a 180° flip.
    """
    v = np.asarray(v, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(v)
    if norm < 1e-15:
        return np.eye(3)
    a = v / norm
    b = np.array([0.0, 0.0, -1.0])
    cos = float(np.clip(a @ b, -1.0, 1.0))
    if cos > 1.0 - 1e-12:
        return np.eye(3)
    if cos < -1.0 + 1e-12:
        # v is the north pole: rotate pi about the x axis
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(a, b)
    axis /= np.linalg.norm(axis)
    sin = float(np.sqrt(1.0 - cos * cos))
    kx, ky, kz = axis
    kmat = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + sin * kmat + (1 - cos) * (kmat @ kmat)


def conformal_to_center(
    upoints: np.ndarray, centerpoint: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float]:
    """GMT conformal map sending ``centerpoint`` to the sphere centre.

    Returns ``(mapped_points, rotation, alpha)`` where ``mapped_points``
    lie on S² with their centerpoint (approximately) at the origin,
    ``rotation`` is the applied 3×3 rotation and ``alpha`` the dilation
    factor — enough to reproduce the map on other point sets.
    """
    upoints = np.asarray(upoints, dtype=np.float64)
    cp = np.asarray(centerpoint, dtype=np.float64).reshape(3)
    r = float(np.linalg.norm(cp))
    if r >= 1.0:
        # a centerpoint must be interior; clamp defensively
        r = min(r, 1.0 - 1e-9)
    rot = rotation_to_south(cp) if r > 1e-15 else np.eye(3)
    rotated = upoints @ rot.T
    # the centerpoint now sits at height z = -r; projecting from the north
    # pole sends the sphere point at that height to plane radius
    # sqrt((1-r)/(1+r)), so dilating by sqrt((1+r)/(1-r)) lifts it back to
    # the equator — i.e. the centerpoint moves to the sphere's centre
    # (GMT's "dilation lemma").
    alpha = float(np.sqrt((1.0 + r) / (1.0 - r)))
    plane = project(rotated) * alpha
    return lift(plane), rot, alpha
