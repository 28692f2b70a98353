"""The paper's fixed-lattice repulsion approximation (Eq. 1–2).

This is the heart of ScalaPart's embedding: the bounding box is viewed
as an ``s × s`` lattice (``s = √P`` in the distributed setting); every
cell ``B_{i,j}`` carries a *special vertex* ``β_{i,j}`` of mass
``μ_{i,j}`` (total mass of the cell's vertices) located at the cell's
centre of mass ``φ_{i,j}``.  Long-range repulsion is then:

* cell–cell (paper Eq. 1): each β is repelled by every other β, with the
  product of cell masses;
* vertices inherit their cell's β force (per unit of their own mass) and
  are additionally repelled by their *own* cell's remaining mass at its
  centre of mass (paper Eq. 2).

Normalisation note: Eq. 1–2 are written with unnormalised products
``μ_{i,j}·μ_{q,r}``; "all vertices in V_{i,j} inherit the repulsive
force on β" is implemented here in the mass-consistent form — the
per-unit-mass *field* at φ is inherited and multiplied by the vertex's
own mass, and the own-cell term uses the cell mass minus the vertex's
mass (a vertex does not repel itself).  With this normalisation the
lattice force converges to the exact sum as ``s → ∞``, which the test
suite verifies.

Unlike Barnes–Hut there is no adaptivity: the lattice is *fixed*, which
is what makes the distributed version communication-friendly — one
(s², 3)-word reduction per iteration block instead of a tree walk.

Performance notes (DESIGN §11): the β pairwise field is evaluated
only among the non-empty cells, in cache-sized blocks of the
summed-over cell ``j`` laid out on axis 0; row 0 of each block carries
the running sums, so the reduction runs sequentially over ``j`` with
contiguous inner vectors and reproduces NumPy's strided
``(B, B, 2).sum(axis=1)`` summation order bit for bit in O(rows·B)
scratch instead of four ``(B, B)`` matrices.  All cell-pair and
per-vertex temporaries live in a reusable :class:`LatticeWorkspace`
(per-vertex gathers go through ``np.take(..., out=)``), so a
steady-state smoothing call allocates nothing of size n or B²; and
``cell_ids`` is computed once per call and shared between the β
statistics and the per-vertex inheritance (the pre-refactor kernel
computed it twice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EmbeddingError
from .box import Box, cell_ids
from .forces import DEFAULT_C, _EPS2

__all__ = [
    "LatticeStats",
    "LatticeWorkspace",
    "lattice_stats",
    "beta_force_field",
    "repulsive_forces_lattice",
]


@dataclass(frozen=True)
class LatticeStats:
    """Aggregated β data of an ``s × s`` lattice.

    ``mass[cid]`` is μ of cell ``cid`` (row-major) and ``com[cid]`` its
    centre of mass φ (zero for empty cells, which have zero mass and
    thus exert no force).  In the distributed algorithm this is exactly
    the payload of the per-block allreduce.
    """

    s: int
    mass: np.ndarray
    com: np.ndarray

    def __post_init__(self) -> None:
        if self.mass.shape != (self.s * self.s,) or self.com.shape != (self.s * self.s, 2):
            raise EmbeddingError("inconsistent lattice statistics shapes")


#: elements in one cell-pair block; the four block buffers (~1 MiB)
#: stay cache-resident while the summed-over cell walks them
_BLOCK_ELEMS = 1 << 15


class LatticeWorkspace:
    """Reusable scratch buffers for :func:`repulsive_forces_lattice`.

    Holds the β field's cell-pair *block* buffers — ``(rows + 1) × |nz|``
    elements each for ``|nz|`` non-empty cells and ``rows = max(1,
    _BLOCK_ELEMS // |nz|)``, so about ``_BLOCK_ELEMS + B`` elements
    however large ``B = s²`` grows — the compact per-cell rows, the
    ``(B, 2)`` field and the per-vertex force scratch.  Buffers grow on
    demand and are kept when the request shrinks (uncoarsening walks
    levels from small to large, so one workspace serves the whole walk);
    views of the right size are sliced out per call.  Reusing warm
    buffers is most of the win over the allocating kernel — fresh
    multi-MB temporaries page-fault on first touch every iteration.
    """

    __slots__ = ("_blk_cap", "_b_cap", "_n_cap", "_blk", "_cell", "_field",
                 "_vert", "_out")

    def __init__(self) -> None:
        self._blk_cap = 0
        self._b_cap = 0
        self._n_cap = 0
        self._blk = None
        self._cell = None
        self._field = None
        self._vert = None
        self._out = None

    #: cell-pair block buffers: tx, ty (row 0 carries the running sums), r2, w
    _N_BLOCK = 4
    #: compact per-cell rows: φx, φy, C K² μ, Σx, Σy
    _N_CELL = 5
    #: per-vertex float scratch rows: dx, dy, r2, t, m_other
    _N_VERT = 5

    def block_buffers(self, elems: int):
        """``_N_BLOCK`` flat rows of ``elems`` elements, reshaped per block."""
        if elems > self._blk_cap:
            self._blk = np.empty((self._N_BLOCK, elems))
            self._blk_cap = elems
        return tuple(self._blk[i, :elems] for i in range(self._N_BLOCK))

    def cell_buffers(self, b: int):
        """``_N_CELL`` rows of length ``b`` plus the ``(b, 2)`` field."""
        if b > self._b_cap:
            self._cell = np.empty((self._N_CELL, b))
            self._field = np.empty((b, 2))
            self._b_cap = b
        return tuple(self._cell[i, :b] for i in range(self._N_CELL)), self._field[:b]

    def vertex_buffers(self, n: int):
        """``_N_VERT`` float rows of length ``n`` plus the ``(n, 2)`` output."""
        if n > self._n_cap:
            self._vert = np.empty((self._N_VERT, n))
            self._out = np.empty((n, 2))
            self._n_cap = n
        return tuple(self._vert[i, :n] for i in range(self._N_VERT)), self._out[:n]


def lattice_stats(
    pos: np.ndarray,
    masses: np.ndarray,
    box: Box,
    s: int,
    *,
    cid: Optional[np.ndarray] = None,
) -> LatticeStats:
    """Per-cell mass and centre of mass (the β vertices).

    ``cid`` may carry precomputed cell ids of ``pos`` (the smoothing
    kernel computes them once and shares them with the per-vertex
    inheritance pass).
    """
    pos = np.asarray(pos, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    if cid is None:
        cid = cell_ids(pos, box, s)
    mass = np.bincount(cid, weights=masses, minlength=s * s)
    comx = np.bincount(cid, weights=masses * pos[:, 0], minlength=s * s)
    comy = np.bincount(cid, weights=masses * pos[:, 1], minlength=s * s)
    com = np.zeros((s * s, 2))
    nz = mass > 0
    com[nz, 0] = comx[nz] / mass[nz]
    com[nz, 1] = comy[nz] / mass[nz]
    return LatticeStats(s, mass, com)


def beta_force_field(
    stats: LatticeStats,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    workspace: Optional[LatticeWorkspace] = None,
) -> np.ndarray:
    """Per-unit-mass repulsive field at every β (vectorised Eq. 1).

    ``field[cid]`` is  Σ_{other cells} C K² μ_other (φ_cid − φ_other) /
    ‖φ_cid − φ_other‖²; multiply by a mass to get a force.

    Only the ``|nz|`` non-empty cells take part: an empty cell's field
    is zero, and its term in another cell's sum is ``±0``, which leaves
    that sum unchanged.  The summed-over cell ``j`` is walked in blocks
    of ``rows`` pair rows laid out transposed (``j`` on axis 0); row 0 of
    the ``tx``/``ty`` block carries the running sums, so each block's
    sequential axis-0 sum continues the exact summation order of the
    original ``(B, B, 2).sum(axis=1)`` — bit-identical results in
    O(rows·|nz|) scratch (DESIGN §11).
    """
    mass = stats.mass
    b = mass.shape[0]
    ws = workspace if workspace is not None else LatticeWorkspace()
    (cx, cy, cm, sx, sy), field = ws.cell_buffers(b)
    nz = np.flatnonzero(mass)
    m = nz.size
    cx, cy, cm, sx, sy = cx[:m], cy[:m], cm[:m], sx[:m], sy[:m]
    np.take(stats.com[:, 0], nz, out=cx, mode="clip")
    np.take(stats.com[:, 1], nz, out=cy, mode="clip")
    # cm[j] = C K² μ_j — same scalar folding as the reference
    np.take(mass, nz, out=cm, mode="clip")
    np.multiply(c * k * k, cm, out=cm)
    rows = max(1, min(m, _BLOCK_ELEMS // max(m, 1)))
    tx_buf, ty_buf, r2_buf, w_buf = ws.block_buffers((rows + 1) * m)
    for j0 in range(0, m, rows):
        r = min(rows, m - j0)
        tx = tx_buf[:(r + 1) * m].reshape(r + 1, m)
        ty = ty_buf[:(r + 1) * m].reshape(r + 1, m)
        r2 = r2_buf[:r * m].reshape(r, m)
        w = w_buf[:r * m].reshape(r, m)
        dx, dy = tx[1:], ty[1:]
        # dx[jj, i] = φx_i − φx_j for the block's cells j = j0 + jj
        np.subtract(cx[None, :], cx[j0:j0 + r, None], out=dx)
        np.subtract(cy[None, :], cy[j0:j0 + r, None], out=dy)
        np.multiply(dx, dx, out=r2)
        np.multiply(dy, dy, out=w)
        np.add(r2, w, out=r2)
        np.add(r2, _EPS2, out=r2)
        r2_buf[j0:r * m:m + 1] = np.inf  # the diagonal j == i
        np.divide(cm[j0:j0 + r, None], r2, out=w)
        np.multiply(dx, w, out=dx)
        np.multiply(dy, w, out=dy)
        # the first block has no carried sums yet: start at its row 1
        top = 0 if j0 else 1
        tx[top:].sum(axis=0, out=sx)
        ty[top:].sum(axis=0, out=sy)
        tx[0] = sx
        ty[0] = sy
    field.fill(0.0)
    field[nz, 0] = sx
    field[nz, 1] = sy
    return field


def repulsive_forces_lattice(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    box: Optional[Box] = None,
    s: int = 16,
    stats: Optional[LatticeStats] = None,
    workspace: Optional[LatticeWorkspace] = None,
) -> np.ndarray:
    """Fixed-lattice approximation of the repulsive forces (Eq. 1–2).

    Signature-compatible with the other repulsion kernels so it can be
    handed to :func:`repro.embed.fdl.force_directed_layout` via
    ``functools.partial``.  ``stats`` may be supplied externally — the
    distributed algorithm computes it once per iteration *block* and
    reuses it (acting on stale β data exactly as the paper describes).
    ``workspace`` threads reusable scratch through repeated calls (the
    smoothing loop passes one per level); the returned array lives in
    the workspace and is overwritten by the next call.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if box is None:
        box = Box.of_points(pos)
    ws = workspace if workspace is not None else LatticeWorkspace()
    cid = cell_ids(pos, box, s)
    if stats is None:
        stats = lattice_stats(pos, masses, box, s, cid=cid)
    elif stats.s != s:
        raise EmbeddingError(f"stats built for s={stats.s}, requested s={s}")

    field = beta_force_field(stats, c, k, workspace=ws)
    (dx, dy, r2, t, m_other), out = ws.vertex_buffers(n)
    # per-cell → per-vertex gathers go through np.take into workspace
    # rows; cell_ids clamps, so cid is always in range, and mode="clip"
    # spares the buffered copy of ``out`` that mode="raise" makes
    # inherited β force: field[cid] * mass, column-wise gathers
    np.take(field[:, 0], cid, out=dx, mode="clip")
    np.multiply(dx, masses, out=out[:, 0])
    np.take(field[:, 1], cid, out=dy, mode="clip")
    np.multiply(dy, masses, out=out[:, 1])

    # own-cell term, fused into the same pass over the vertex arrays:
    # repulsion from the cell's *other* mass at its φ
    np.take(stats.com[:, 0], cid, out=dx, mode="clip")
    np.subtract(pos[:, 0], dx, out=dx)
    np.take(stats.com[:, 1], cid, out=dy, mode="clip")
    np.subtract(pos[:, 1], dy, out=dy)
    np.multiply(dx, dx, out=r2)
    np.multiply(dy, dy, out=t)
    np.add(r2, t, out=r2)
    np.add(r2, _EPS2, out=r2)
    # coefficient (C K² μ_i (μ_cell − μ_i)) / r2, reference fold order
    np.multiply(c * k * k, masses, out=t)
    np.take(stats.mass, cid, out=m_other, mode="clip")
    np.subtract(m_other, masses, out=m_other)
    np.maximum(m_other, 0.0, out=m_other)
    np.multiply(t, m_other, out=t)
    np.divide(t, r2, out=t)
    np.multiply(dx, t, out=dx)
    np.multiply(dy, t, out=dy)
    np.add(out[:, 0], dx, out=out[:, 0])
    np.add(out[:, 1], dy, out=out[:, 1])
    return out
