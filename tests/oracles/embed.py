"""Oracles for the embedding kernels of :mod:`repro.embed`.

The pre-optimisation bodies of the attraction kernel, the layout loop,
the β field, the fixed-lattice repulsion, the all-pairs repulsion and
the distributed smoothing step.  The production kernels reuse
workspaces, fuse passes and reduce column-wise; they must reproduce
these bit for bit.  ``smooth_level_reference`` has the production
signature of :func:`repro.embed.parallel._smooth_level`, so a test
installs it with ``monkeypatch.setattr`` and compares whole
``dist_multilevel_embedding`` runs and ledgers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.embed.box import Box, cell_ids
from repro.embed.fdl import (
    _PROGRESS_LIMIT,
    _T,
    LayoutResult,
    RepulsionLike,
    _resolve_repulsion,
)
from repro.embed.forces import DEFAULT_C, _EPS2
from repro.embed.lattice import LatticeStats, lattice_stats
from repro.embed.parallel import (
    _T as _SMOOTH_T,
    _beta_force,
    _gather_full_pos,
    _setup_level,
)
from repro.errors import EmbeddingError
from repro.graph.csr import CSRGraph
from repro.parallel.engine import Comm
from repro.parallel.topology import ProcessGrid


def attractive_forces_reference(
    graph: CSRGraph, pos: np.ndarray, k: float = 1.0
) -> np.ndarray:
    """Pre-optimisation attraction (``np.add.at`` scatter): the
    workspace-backed kernel must match it on every graph family."""
    pos = np.asarray(pos, dtype=np.float64)
    n = graph.num_vertices
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos must be ({n}, 2), got {pos.shape}")
    if k <= 0:
        raise EmbeddingError("K must be positive")
    src = graph.edge_sources()
    dst = graph.indices
    d = pos[dst] - pos[src]
    dist = np.sqrt((d * d).sum(axis=1))
    mag = dist / k * graph.ewgt
    f = d * mag[:, None]
    out = np.zeros((n, 2))
    np.add.at(out, src, f)
    return out


def repulsive_forces_exact_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
) -> np.ndarray:
    """All-pairs repulsion on the ``(n, n, 2)`` difference tensor,
    reduced over its middle axis (sequentially over ``j`` for each
    ``i``)."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if n == 0:
        return np.zeros((0, 2))
    d = pos[:, None, :] - pos[None, :, :]  # d[i,j] = ci - cj
    r2 = (d * d).sum(axis=2) + _EPS2
    np.fill_diagonal(r2, np.inf)
    scale = c * k * k * (masses[:, None] * masses[None, :]) / r2
    return (d * scale[:, :, None]).sum(axis=1)


def force_directed_layout_reference(
    graph: CSRGraph,
    pos0: np.ndarray,
    *,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    max_iters: int = 100,
    tol: float = 1e-3,
    step0: Optional[float] = None,
    repulsion: RepulsionLike = "auto",
) -> LayoutResult:
    """Pre-optimisation layout loop (fresh temporaries every iteration,
    ``np.add.at`` attraction): the workspace-backed loop must match it."""
    n = graph.num_vertices
    pos = np.array(pos0, dtype=np.float64, copy=True)
    if pos.shape != (n, 2):
        raise EmbeddingError(f"pos0 must be ({n}, 2), got {pos.shape}")
    if max_iters < 0:
        raise EmbeddingError("max_iters must be nonnegative")
    if masses is None:
        masses = graph.vwgt
    masses = np.asarray(masses, dtype=np.float64)
    rep = _resolve_repulsion(repulsion, n)

    step = float(step0) if step0 is not None else k
    energy_prev = np.inf
    progress = 0
    converged = False
    it = 0
    energy = 0.0
    for it in range(1, max_iters + 1):
        f = attractive_forces_reference(graph, pos, k) + rep(pos, masses, c, k)
        norms = np.sqrt((f * f).sum(axis=1))
        energy = float((norms * norms).sum())
        move = np.zeros_like(pos)
        active = norms > 1e-300
        move[active] = f[active] / norms[active, None] * step
        pos += move
        if energy < energy_prev:
            progress += 1
            if progress >= _PROGRESS_LIMIT:
                progress = 0
                step /= _T
        else:
            progress = 0
            step *= _T
        energy_prev = energy
        if step < tol * k:
            converged = True
            break
    return LayoutResult(pos, it, converged, step, energy)


def beta_force_field_reference(
    stats: LatticeStats, c: float = DEFAULT_C, k: float = 1.0
) -> np.ndarray:
    """Pre-optimisation field kernel (full ``(B, B, 2)`` temporaries)."""
    com, mass = stats.com, stats.mass
    d = com[:, None, :] - com[None, :, :]
    r2 = (d * d).sum(axis=2) + _EPS2
    np.fill_diagonal(r2, np.inf)
    w = c * k * k * mass[None, :] / r2
    field = (d * w[:, :, None]).sum(axis=1)
    field[mass == 0] = 0.0
    return field


def repulsive_forces_lattice_reference(
    pos: np.ndarray,
    masses: Optional[np.ndarray] = None,
    c: float = DEFAULT_C,
    k: float = 1.0,
    *,
    box: Optional[Box] = None,
    s: int = 16,
    stats: Optional[LatticeStats] = None,
) -> np.ndarray:
    """Pre-optimisation lattice kernel (double ``cell_ids``, ~10 fresh
    temporaries per call)."""
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if box is None:
        box = Box.of_points(pos)
    if stats is None:
        stats = lattice_stats(pos, masses, box, s)
    elif stats.s != s:
        raise EmbeddingError(f"stats built for s={stats.s}, requested s={s}")

    field = beta_force_field_reference(stats, c, k)
    cid = cell_ids(pos, box, s)
    out = field[cid] * masses[:, None]

    d = pos - stats.com[cid]
    r2 = (d * d).sum(axis=1) + _EPS2
    m_other = np.maximum(stats.mass[cid] - masses, 0.0)
    out += d * (c * k * k * masses * m_other / r2)[:, None]
    return out


def smooth_level_reference(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    owner: np.ndarray,
    grid: ProcessGrid,
    *,
    iters: int,
    block_size: int,
    k: float = 1.0,
    step0: float = 1.0,
):
    """Smoothing step on ``(m, 2)`` arrays: a ``np.vstack`` of owned and
    ghost rows every iteration and short-axis ``sum(axis=1)`` norms."""
    n = graph.num_vertices
    comm.set_phase("embed/smooth")
    setup = _setup_level(comm, graph, pos_full, owner, grid)
    p = comm.size

    def local_stats() -> np.ndarray:
        table = np.zeros((p, 3))
        m = setup.mass_own.sum()
        table[comm.rank, 0] = m
        if m > 0:
            table[comm.rank, 1:] = (
                setup.mass_own[:, None] * setup.pos_own
            ).sum(axis=0) / m
        return table

    comm.set_phase("embed/refresh")
    stats = np.array(
        (yield from comm.allreduce(local_stats(), words=3.0 * p))
    )
    comm.set_phase("embed/smooth")
    step = step0

    for it in range(iters):
        comm.set_phase("embed/halo")
        if setup.near_send or setup.near_recv:
            out = {
                b: setup.pos_own[idx] for b, idx in setup.near_send.items()
            }
            inbox = yield from comm.exchange(out)
            for b, payload in inbox.items():
                slots = setup.near_recv.get(b)
                if slots is None or payload.shape[0] != slots.shape[0]:
                    raise EmbeddingError(
                        f"halo mismatch: rank {comm.rank} got {payload.shape[0]} "
                        f"coords from {b}, expected "
                        f"{0 if slots is None else slots.shape[0]}"
                    )
                setup.pos_ghost[slots] = payload
        elif p > 1:
            yield from comm.exchange({})
        comm.set_phase("embed/smooth")

        if it % block_size == 0:
            comm.set_phase("embed/refresh")
            if setup.far_slots.size or p > 1:
                full = yield from _gather_full_pos(
                    comm, setup, n, words_out=2.0 * max(1, setup.far_slots.size)
                )
                if setup.far_slots.size:
                    setup.pos_ghost[setup.far_slots] = full[setup.far_ids]
            stats = np.array(
                (yield from comm.allreduce(local_stats(), words=3.0 * p))
            )
            comm.set_phase("embed/smooth")
        else:
            stats[comm.rank] = local_stats()[comm.rank]

        pos_all = np.vstack([setup.pos_own, setup.pos_ghost])
        d = pos_all[setup.dst_slot] - setup.pos_own[setup.src_pos]
        dist = np.sqrt((d * d).sum(axis=1))
        mag = dist / k * setup.w
        fa = d * mag[:, None]
        n_own = setup.pos_own.shape[0]
        f = np.empty_like(setup.pos_own)
        f[:, 0] = np.bincount(setup.src_pos, weights=fa[:, 0], minlength=n_own)
        f[:, 1] = np.bincount(setup.src_pos, weights=fa[:, 1], minlength=n_own)
        field = _beta_force(stats, comm.rank, DEFAULT_C, k)
        f += field[None, :] * setup.mass_own[:, None]
        m_cell, com = stats[comm.rank, 0], stats[comm.rank, 1:]
        dd = setup.pos_own - com
        r2 = (dd * dd).sum(axis=1) + _EPS2
        m_other = np.maximum(m_cell - setup.mass_own, 0.0)
        f += dd * (DEFAULT_C * k * k * setup.mass_own * m_other / r2)[:, None]
        comm.charge(float(setup.w.shape[0] * 4 + setup.own.shape[0] * 6 + p))

        norms = np.sqrt((f * f).sum(axis=1))
        active = norms > 1e-300
        setup.pos_own[active] += f[active] / norms[active, None] * step
        step *= _SMOOTH_T

    comm.set_phase("embed/gather")
    full = yield from _gather_full_pos(comm, setup, n)
    return full
