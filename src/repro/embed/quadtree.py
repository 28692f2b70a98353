"""Barnes–Hut repulsion via hierarchical grids (vectorised).

The background force-directed scheme (paper §2) approximates the
``O(n²)`` repulsive sum with Barnes–Hut in ``O(n log n)``.  A classic
pointer-based quadtree traversal is hopeless in pure Python, so this
module implements the equivalent *hierarchical-grid* (FMM-style)
formulation, which vectorises completely:

* level ``l`` covers the bounding square with a ``2^l × 2^l`` grid whose
  per-cell masses and centres of mass come from ``bincount``;
* a point interacts at level ``l`` with the cells that are children of
  its parent cell's 3×3 neighbourhood but *not* within its own cell's
  3×3 neighbourhood (the FMM "interaction list", 27 cells);
* at the finest level the remaining 3×3 neighbourhood is evaluated
  exactly, pair by pair, using a segment-expansion trick over the
  cell-sorted point order.

Every cell pair is accounted exactly once — at the first level where
the pair becomes well separated — which is the Barnes–Hut opening rule
with θ ≈ 1.  Accuracy is validated against
:func:`repro.embed.forces.repulsive_forces_exact` in the test suite.

The far field is *flat and point-blocked* (DESIGN §11).  The 36
candidate child cells of a point's parent neighbourhood sit at offsets
``2·(c >> 1) + (2·d + a) − c`` from its own cell ``c``, which depend
only on the parity ``c & 1``; dropping the nine inside the own 3×3 ring
leaves a fixed ``(4, 27)`` offset table per axis.  All levels' cell
tables are concatenated into one, and each level gets a zero-padded
grid mapping a cell to its table row (``0``: empty or off the grid).
Points then go in blocks; for a block the kernel gathers every
(level, point, pass) candidate, keeps the non-empty targets, evaluates
the kept interactions in one pass and sums them per point with one
``bincount`` per axis.

The result is bit-identical to evaluating the 36 passes one by one over
all points:

* ``bincount`` adds each point's terms left to right in list order,
  and the list is level-major, then point-major with passes in order —
  the order the per-pass loop added them in;
* a skipped target has zero mass, so its term ``(C K² μ · 0 / r²) · Δ``
  is ``±0``; the sum starts at ``+0`` and under round-to-nearest can
  never become ``−0`` (``x + (−x) = +0``), and adding ``±0`` to a
  non-zero or ``+0`` sum leaves it unchanged.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import EmbeddingError
from .forces import DEFAULT_C, _EPS2, repulsive_forces_exact

__all__ = ["repulsive_forces_bh"]

#: Below this size the exact sum is both faster and exact.
_EXACT_CUTOFF = 128

#: Candidate (level, point, pass) slots per far-field block: a block's
#: candidate, target and kept-interaction arrays stay cache-sized.
_BLOCK_ELEMS = 1 << 14

#: Interaction targets lie within ±3 cells of a point's own cell, so
#: each level's target grid is padded by 3 cells on every side.
_PAD = 3

#: Interaction-list pass offsets (ox, oy) with ox = 2·dx + a, oy = 2·dy + b,
#: in the exact nesting order of the original four loops (dy, dx, b, a) —
#: the accumulation order is part of the kernel's bit-level contract.
_PASS_OFFSETS = tuple(
    ((dx << 1) + a, (dy << 1) + b)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    for b in (0, 1)
    for a in (0, 1)
)

#: Far-field target offsets from the own cell, indexed by the cell's
#: parity ``(cx & 1) | (cy & 1) << 1``: the 27 passes outside the own
#: 3×3 ring, in pass order.
_FAR_DX, _FAR_DY = (
    np.array([
        [(ox - (p & 1), oy - (p >> 1))[axis]
         for ox, oy in _PASS_OFFSETS
         if max(abs(ox - (p & 1)), abs(oy - (p >> 1))) > 1]
        for p in range(4)
    ], dtype=np.int64)
    for axis in (0, 1)
)
_N_FAR = _FAR_DX.shape[1]


def repulsive_forces_bh(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    leaf_target: float = 2.0,
    max_level: int = 12,
) -> np.ndarray:
    """Approximate all-pairs repulsion in ``O(n log n)``.

    ``leaf_target`` is the average number of points per finest-level
    cell (smaller = more exact near-field work, higher accuracy).
    Raises :class:`EmbeddingError` when ``pos`` is not ``(n, 2)``,
    ``masses`` is not ``(n,)`` or a position is not finite.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if pos.ndim != 2 or (n and pos.shape[1] != 2):
        raise EmbeddingError(f"pos must be (n, 2), got {pos.shape}")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if masses.shape != (n,):
        raise EmbeddingError(f"masses must be ({n},), got {masses.shape}")
    if not np.isfinite(pos).all():
        raise EmbeddingError("pos must be finite")
    if n <= _EXACT_CUTOFF:
        return repulsive_forces_exact(pos, masses, c, k)

    # square bounding box (equal cell aspect keeps the opening rule honest)
    lo = pos.min(axis=0)
    span = float(max((pos.max(axis=0) - lo).max(), 1e-12)) * (1 + 1e-9)
    ck2 = c * k * k

    finest = min(max_level, max(2, math.ceil(math.log(n / leaf_target, 4))))

    posx = np.ascontiguousarray(pos[:, 0])
    posy = np.ascontiguousarray(pos[:, 1])
    cmass = ck2 * masses  # (C K² · μ_i) · μ_j: this fold is part of the bits

    # integer cell coordinates at the finest level; coarser levels shift
    cell = np.clip(((pos - lo) / span * (1 << finest)).astype(np.int64),
                   0, (1 << finest) - 1)
    cellx = np.ascontiguousarray(cell[:, 0])
    celly = np.ascontiguousarray(cell[:, 1])

    # -- per-level cell tables, concatenated; row 0 is a never-read
    #    sentinel so that a padded-grid entry of 0 means "no target"
    levels = np.arange(2, finest + 1)
    shifts = finest - levels
    sides = 1 << levels
    psides = sides + 2 * _PAD
    row_off = np.concatenate([[1], 1 + np.cumsum(sides * sides)])
    grid_off = np.concatenate([[0], np.cumsum(psides * psides)])
    mass = np.empty(row_off[-1])
    comx = np.empty(row_off[-1])
    comy = np.empty(row_off[-1])
    grid = np.zeros(grid_off[-1], dtype=np.int64)
    for li, s in enumerate(sides.tolist()):
        cid = (celly >> shifts[li]) * s + (cellx >> shifts[li])
        lm = np.bincount(cid, weights=masses, minlength=s * s)
        lx = np.bincount(cid, weights=masses * posx, minlength=s * s)
        ly = np.bincount(cid, weights=masses * posy, minlength=s * s)
        nz = lm > 0
        lx[nz] /= lm[nz]
        ly[nz] /= lm[nz]
        r0, r1 = row_off[li], row_off[li + 1]
        mass[r0:r1] = lm
        comx[r0:r1] = lx
        comy[r0:r1] = ly
        ps = s + 2 * _PAD
        inner = grid[grid_off[li]:grid_off[li + 1]].reshape(ps, ps)[
            _PAD:_PAD + s, _PAD:_PAD + s]
        occupied = lm != 0
        inner[occupied.reshape(s, s)] = r0 + np.flatnonzero(occupied)

    # a far target's grid index is cy·ps + cx + far[4·level + parity, pass]
    far = (grid_off[:-1, None, None] + _PAD * psides[:, None, None] + _PAD
           + _FAR_DY[None] * psides[:, None, None] + _FAR_DX[None])
    far = far.reshape(-1, _N_FAR)
    par_off = (4 * np.arange(levels.size))[:, None]

    # -- far field, one flat interaction list per block of points; slots
    # whose grid entry is 0 (empty or off-grid cell, a ±0 term) are
    # skipped.  Every block is full size: the last one ends at n and
    # recomputes some points of the one before it, bit-identically.
    nb = min(n, max(1, _BLOCK_ELEMS // (_N_FAR * levels.size)))
    slot_pt = np.broadcast_to(np.arange(nb)[:, None], (levels.size, nb, _N_FAR))
    slot_pt = slot_pt.ravel()
    outx = np.empty(n)
    outy = np.empty(n)
    for b0 in range(0, n, nb):
        b0 = min(b0, n - nb)
        b1 = b0 + nb
        bx = cellx[None, b0:b1] >> shifts[:, None]
        by = celly[None, b0:b1] >> shifts[:, None]
        par = (bx & 1) | ((by & 1) << 1)
        par += par_off
        cand = far[par]
        cand += (by * psides[:, None] + bx)[..., None]
        tgt = grid.take(cand.ravel())
        slots = np.flatnonzero(tgt != 0)
        rows = tgt.take(slots)
        pt = slot_pt.take(slots)
        ddx = posx[b0:b1].take(pt) - comx.take(rows)
        ddy = posy[b0:b1].take(pt) - comy.take(rows)
        r2 = ddx * ddx + ddy * ddy + _EPS2
        scale = cmass[b0:b1].take(pt) * mass.take(rows) / r2
        outx[b0:b1] = np.bincount(pt, weights=scale * ddx, minlength=nb)
        outy[b0:b1] = np.bincount(pt, weights=scale * ddy, minlength=nb)

    # -- exact near field over the finest-level 3x3 neighbourhood: per
    # pass, point i meets every other point j of one neighbour cell, j in
    # cell order, and the pass's per-point sum is added to the total
    s = 1 << finest
    ps = s + 2
    cid = celly * s + cellx
    order = np.argsort(cid, kind="stable")
    counts = np.zeros(ps * ps, dtype=np.int64)
    starts = np.zeros(ps * ps, dtype=np.int64)
    interior = (slice(1, s + 1), slice(1, s + 1))
    ccount = np.bincount(cid, minlength=s * s)
    counts.reshape(ps, ps)[interior] = ccount.reshape(s, s)
    starts.reshape(ps, ps)[interior] = (np.cumsum(ccount) - ccount).reshape(s, s)
    own = (celly + 1) * ps + (cellx + 1)
    arange_n = np.arange(n)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            tid = own + (dy * ps + dx)
            seg = counts.take(tid)
            total = int(seg.sum())
            if total == 0:
                continue
            i_idx = np.repeat(arange_n, seg)
            excl = np.cumsum(seg)
            excl -= seg
            jpos = np.repeat(starts.take(tid) - excl, seg)
            jpos += np.arange(total)
            j_idx = order.take(jpos)
            other = np.flatnonzero(i_idx != j_idx)
            i_idx = i_idx.take(other)
            j_idx = j_idx.take(other)
            ddx = posx.take(i_idx) - posx.take(j_idx)
            ddy = posy.take(i_idx) - posy.take(j_idx)
            r2 = ddx * ddx + ddy * ddy + _EPS2
            scale = cmass.take(i_idx) * masses.take(j_idx) / r2
            outx += np.bincount(i_idx, weights=scale * ddx, minlength=n)
            outy += np.bincount(i_idx, weights=scale * ddy, minlength=n)
    return np.stack([outx, outy], axis=1)
