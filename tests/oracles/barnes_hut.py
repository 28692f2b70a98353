"""Oracle for :func:`repro.embed.quadtree.repulsive_forces_bh`.

The per-pass Barnes–Hut body the flat, point-blocked kernel replaced.
Every force component is a left-to-right sum in (level, pass) order
followed by the nine near-field partial sums, which is the summation
order the production kernel must reproduce bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.embed.forces import DEFAULT_C, _EPS2
from repro.embed.quadtree import _EXACT_CUTOFF
from repro.errors import EmbeddingError

from .embed import repulsive_forces_exact_reference


def repulsive_forces_bh_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    leaf_target: float = 2.0,
    max_level: int = 12,
) -> np.ndarray:
    """Pre-optimisation Barnes–Hut kernel: 36 interaction-list passes
    over all points per level, each with fresh ``where``/gather
    temporaries, then nine exact near-field passes."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if pos.ndim != 2 or (n and pos.shape[1] != 2):
        raise EmbeddingError(f"pos must be (n, 2), got {pos.shape}")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if n <= _EXACT_CUTOFF:
        return repulsive_forces_exact_reference(pos, masses, c, k)

    lo = pos.min(axis=0)
    span = float(max((pos.max(axis=0) - lo).max(), 1e-12)) * (1 + 1e-9)
    ck2 = c * k * k

    finest = min(max_level, max(2, math.ceil(math.log(n / leaf_target, 4))))
    out = np.zeros((n, 2))

    cell = np.clip(((pos - lo) / span * (1 << finest)).astype(np.int64),
                   0, (1 << finest) - 1)

    for level in range(2, finest + 1):
        s = 1 << level
        cx = cell[:, 0] >> (finest - level)
        cy = cell[:, 1] >> (finest - level)
        cid = cy * s + cx
        mass = np.bincount(cid, weights=masses, minlength=s * s)
        comx = np.bincount(cid, weights=masses * pos[:, 0], minlength=s * s)
        comy = np.bincount(cid, weights=masses * pos[:, 1], minlength=s * s)
        nz = mass > 0
        comx[nz] /= mass[nz]
        comy[nz] /= mass[nz]
        px, py = cx >> 1, cy >> 1
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                for b in (0, 1):
                    for a in (0, 1):
                        tx = ((px + dx) << 1) + a
                        ty = ((py + dy) << 1) + b
                        valid = (
                            (tx >= 0) & (tx < s) & (ty >= 0) & (ty < s)
                            & (np.maximum(np.abs(tx - cx), np.abs(ty - cy)) > 1)
                        )
                        if not valid.any():
                            continue
                        tid = np.where(valid, ty * s + tx, 0)
                        m = np.where(valid, mass[tid], 0.0)
                        ddx = pos[:, 0] - comx[tid]
                        ddy = pos[:, 1] - comy[tid]
                        r2 = ddx * ddx + ddy * ddy + _EPS2
                        scale = ck2 * masses * m / r2
                        out[:, 0] += scale * ddx
                        out[:, 1] += scale * ddy

    s = 1 << finest
    cx, cy = cell[:, 0], cell[:, 1]
    cid = cy * s + cx
    order = np.argsort(cid, kind="stable")
    counts = np.bincount(cid, minlength=s * s)
    starts = np.concatenate([[0], np.cumsum(counts)])
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            tx, ty = cx + dx, cy + dy
            valid = (tx >= 0) & (tx < s) & (ty >= 0) & (ty < s)
            tid = np.where(valid, ty * s + tx, 0)
            seg_cnt = np.where(valid, counts[tid], 0)
            total = int(seg_cnt.sum())
            if total == 0:
                continue
            i_idx = np.repeat(np.arange(n), seg_cnt)
            base = np.cumsum(seg_cnt) - seg_cnt
            within = np.arange(total) - np.repeat(base, seg_cnt)
            j_idx = order[np.repeat(starts[tid], seg_cnt) + within]
            keep = i_idx != j_idx
            i_idx, j_idx = i_idx[keep], j_idx[keep]
            d = pos[i_idx] - pos[j_idx]
            r2 = (d * d).sum(axis=1) + _EPS2
            scale = ck2 * masses[i_idx] * masses[j_idx] / r2
            out[:, 0] += np.bincount(i_idx, weights=scale * d[:, 0], minlength=n)
            out[:, 1] += np.bincount(i_idx, weights=scale * d[:, 1], minlength=n)
    return out
