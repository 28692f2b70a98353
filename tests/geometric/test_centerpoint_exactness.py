"""Byte-identity of the stacked Radon reduction with its oracle.

:func:`repro.geometric.centerpoint.approx_centerpoint` reduces each pass
with one stacked ``np.linalg.svd`` and masked λ⁺ sums; the oracle in
:mod:`tests.oracles.geometric` makes one LAPACK call per group.  Inputs
cover random clouds in ℝ², ℝ³ and up to ℝ⁶, coincident, collinear and
coplanar groups, signed zeros, and the sampled sizes the partitioners
use.  The centroid fallback is reached through a patched SVD, because
finite groups practically never reach it: ``Σλ = 0`` forces λ to have
both signs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometric import approx_centerpoint, radon_point
from repro.geometric.centerpoint import _radon_points
from tests.oracles.geometric import (
    approx_centerpoint_reference,
    radon_point_reference,
)


def _bits_equal(a, b) -> bool:
    """Bitwise equality: unlike ``array_equal`` it tells −0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64))


def _groups(d: int, kind: str, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(count, d + 2, d)) * 10.0 ** rng.integers(
        -6, 6, size=(count, 1, 1))
    if kind == "coincident":
        g[:] = g[:, :1]
    elif kind == "partly-coincident":
        g[:, 1:3] = g[:, :1]
    elif kind == "collinear":
        t = rng.normal(size=(count, d + 2, 1))
        g = t * rng.normal(size=(count, 1, d)) + rng.normal(size=(count, 1, d))
    elif kind == "coplanar" and d >= 3:
        g[:, :, -1] = 0.0
    elif kind == "integer":
        g = np.round(g)
    elif kind == "signed-zeros":
        g[rng.random(g.shape) < 0.5] = -0.0
    return g


KINDS = ["random", "coincident", "partly-coincident", "collinear",
         "coplanar", "integer", "signed-zeros"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_radon_matches_oracle(kind, d):
    groups = _groups(d, kind, 300, seed=d)
    stacked = _radon_points(groups)
    for grp, got in zip(groups, stacked):
        ref = radon_point_reference(grp)
        assert _bits_equal(got, ref)
        assert _bits_equal(radon_point(grp), ref)


@pytest.mark.parametrize("d", [2, 3])
def test_centroid_fallback_matches_oracle(monkeypatch, d):
    """Force the fallback on every third group: all-positive λ on some,
    no positive λ on others, through the SVD both kernels call."""
    svd = np.linalg.svd

    def forced(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        vh = vh.copy()
        rows = vh.reshape(-1, *vh.shape[-2:])
        for i, row in enumerate(rows):
            key = int(abs(row[0, 0]) * 1e6) % 3
            if key == 0:
                row[-1] = np.abs(row[-1]) + 0.1
            elif key == 1:
                row[-1] = -np.abs(row[-1])
        return u, s, vh

    groups = _groups(d, "signed-zeros", 200, seed=7)
    groups[::4] = _groups(d, "random", 50, seed=8)
    monkeypatch.setattr(np.linalg, "svd", forced)
    stacked = _radon_points(groups)
    means = 0
    for grp, got in zip(groups, stacked):
        ref = radon_point_reference(grp)
        assert _bits_equal(got, ref)
        means += _bits_equal(got, grp.mean(axis=0))
    assert means >= 100


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 4, 5, 6, 23, 999, 1000, 1001, 5000])
def test_centerpoint_matches_oracle(n, d):
    rng = np.random.default_rng(n * 10 + d)
    pts = rng.normal(size=(n, d))
    for seed in range(4):
        got = approx_centerpoint(pts, seed=seed)
        assert _bits_equal(got, approx_centerpoint_reference(pts, seed=seed))


@pytest.mark.parametrize("shape", ["duplicates", "on-a-line", "on-the-sphere",
                                   "signed-zeros"])
def test_degenerate_clouds_match_oracle(shape):
    rng = np.random.default_rng(3)
    if shape == "duplicates":
        pts = np.repeat(rng.normal(size=(40, 2)), 30, axis=0)
    elif shape == "on-a-line":
        pts = np.outer(rng.random(1500), [2.0, -1.0]) + [0.5, 0.25]
    elif shape == "on-the-sphere":
        pts = rng.normal(size=(2000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.normal(size=(800, 3))
        pts[rng.random(pts.shape) < 0.4] = -0.0
    for seed in range(3):
        assert _bits_equal(approx_centerpoint(pts, seed=seed),
                           approx_centerpoint_reference(pts, seed=seed))
        for size in (37, 500):
            assert _bits_equal(
                approx_centerpoint(pts, seed=seed, sample_size=size),
                approx_centerpoint_reference(pts, seed=seed, sample_size=size))
