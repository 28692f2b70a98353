"""Distributed multilevel fixed-lattice embedding (paper §3, core).

Rank program implementing ScalaPart's embedding on the SPMD virtual
machine, stage for stage:

* the hierarchy comes from :func:`repro.coarsen.parallel.dist_build_hierarchy`
  (sizes ÷4 per level, active ranks ÷4 per level);
* the coarsest graph (a few hundred vertices) is embedded with the
  exact force scheme from an SSDE start
  (:func:`repro.embed.multilevel.coarsest_layout`) on the small
  coarsest rank group;
* per level, vertices are assigned to the active ranks by an RCB-style
  mapping of their initial coordinates onto the process grid ("we apply
  a recursive coordinate bisection scheme such as the one in Zoltan to
  map vertices ... to some p×q processor grid"); each rank's RCB box is
  its lattice sub-domain ``B_{i,j}`` with special vertex β;
* per smoothing iteration, each rank exchanges only its *boundary*
  vertex coordinates with grid-neighbour ranks (one halo exchange) and
  moves only its owned vertices — ghosts stay fixed;
* β statistics and the coordinates of *far* ghosts (edges spanning
  non-neighbour ranks) refresh only once per block of ``block_size``
  iterations, so intermediate iterations act on stale data exactly as
  §3 describes;
* the step length follows a fixed geometric cooling schedule — Hu's
  adaptive rule would need a global energy reduction *every* iteration,
  which the block structure exists to avoid.

Per-rank state is O(n/P): owned ids/coordinates, ghost buffers, and the
per-neighbour send/receive index lists, all precomputed at level setup.
Owned and ghost coordinates are the two halves of one ``(n_own +
n_ghost, 2)`` buffer, so halo and far-ghost refreshes write straight
into the array the per-slot gather reads.  The force step works on its
x and y columns separately (``dx*dx + dy*dy`` rather than summing an
``(m, 2)`` array along its short axis): the same operations in the same
order, so coordinates are bit-identical to the row-wise form, at a
fraction of the cost.
Level-setup data (initial coordinates, ownership) is assembled once at
the subtree root and shared by reference (see
:mod:`repro.graph.distributed` for the simulator memory idiom); every
iteration's *data* then flows exclusively through the exchanges above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..baselines.rcb import rcb_grid_map
from ..coarsen.parallel import dist_build_hierarchy
from ..errors import EmbeddingError
from ..graph.csr import CSRGraph
from ..graph.distributed import adjacency_slots
from ..parallel.engine import Comm
from ..parallel.patterns import share_from_root
from ..parallel.topology import ProcessGrid, grid_dims
from ..rng import derive_seed
# the coarsest layout runs inside ``coarsest_layout``; the name stays a
# module attribute because benchmarks/e2e/trace.py hooks it here
from .fdl import force_directed_layout  # noqa: F401
from .forces import DEFAULT_C, _EPS2
from .multilevel import COARSEST_SIZE, JITTER, coarsest_layout

__all__ = ["dist_multilevel_embedding"]

#: geometric cooling factor per smoothing iteration.
_T = 0.9


@dataclass
class _LevelSetup:
    """Per-rank precomputed structure for one level's smoothing."""

    own: np.ndarray            # global ids owned by this rank (sorted)
    pos_all: np.ndarray        # (n_own + n_ghost, 2): owned rows, then ghosts
    pos_own: np.ndarray        # (n_own, 2) current coordinates (pos_all view)
    mass_own: np.ndarray
    src_pos: np.ndarray        # local row per adjacency slot
    w: np.ndarray              # slot weights
    dst_slot: np.ndarray       # slot -> index into concat(pos_own, pos_ghost)
    ghost_ids: np.ndarray      # sorted global ids of ghosts
    near_send: Dict[int, np.ndarray]   # nbr rank -> local indices to send
    near_recv: Dict[int, np.ndarray]   # nbr rank -> ghost slots to fill
    far_slots: np.ndarray      # ghost slots refreshed per block
    far_ids: np.ndarray        # their global ids
    pos_ghost: np.ndarray      # (n_ghost, 2) (pos_all view)


def _setup_level(
    comm: Comm,
    graph: CSRGraph,
    pos_full: np.ndarray,
    owner: np.ndarray,
    grid: ProcessGrid,
) -> _LevelSetup:
    """Build the rank-local working set from the (shared, read-only)
    level-initial coordinates and ownership map."""
    r = comm.rank
    own = np.flatnonzero(owner == r).astype(np.int64)
    src_pos, src, dst, w = adjacency_slots(graph, own)
    ghost_mask = owner[dst] != r
    ghost_ids = np.unique(dst[ghost_mask])
    # slot -> position index in concat(own, ghosts)
    dst_slot = np.empty(dst.shape[0], dtype=np.int64)
    own_sorted = own  # flatnonzero is sorted
    local = ~ghost_mask
    dst_slot[local] = np.searchsorted(own_sorted, dst[local])
    dst_slot[~local] = own.shape[0] + np.searchsorted(ghost_ids, dst[ghost_mask])

    nbrs = set(grid.neighbors8(r))
    near_send: Dict[int, np.ndarray] = {}
    near_recv: Dict[int, np.ndarray] = {}
    ghost_owner = owner[ghost_ids]
    for b in sorted(nbrs):
        # what b needs from us: our owned vertices adjacent to b's vertices
        mine_to_b = np.unique(src[owner[dst] == b])
        if mine_to_b.size:
            near_send[b] = np.searchsorted(own_sorted, mine_to_b)
        # what we get from b: our ghosts owned by b (same set from b's view)
        from_b = np.flatnonzero(ghost_owner == b)
        if from_b.size:
            near_recv[b] = from_b
    far = ~np.isin(ghost_owner, sorted(nbrs))
    far_slots = np.flatnonzero(far)
    comm.charge(float(dst.shape[0]) + own.shape[0])
    # one buffer for owned and ghost rows, so the per-slot gather needs
    # no per-iteration concatenation
    pos_all = pos_full[np.concatenate([own, ghost_ids])]
    return _LevelSetup(
        own=own,
        pos_all=pos_all,
        pos_own=pos_all[: own.shape[0]],
        mass_own=graph.vwgt[own].copy(),
        src_pos=src_pos,
        w=w,
        dst_slot=dst_slot,
        ghost_ids=ghost_ids,
        near_send=near_send,
        near_recv=near_recv,
        far_slots=far_slots,
        far_ids=ghost_ids[far_slots],
        pos_ghost=pos_all[own.shape[0]:],
    )


def _beta_force(stats: np.ndarray, cell: int, c: float, k: float) -> np.ndarray:
    """Per-unit-mass repulsive field at cell ``cell`` from all β
    (the distributed Eq. 1: every rank evaluates only its own row)."""
    mass = stats[:, 0]
    com = stats[:, 1:]
    d = com[cell] - com
    r2 = (d * d).sum(axis=1) + _EPS2
    wgt = c * k * k * mass / r2
    wgt[cell] = 0.0
    if mass[cell] == 0:
        return np.zeros(2)
    return (d * wgt[:, None]).sum(axis=0)


def _gather_full_pos(comm: Comm, setup: _LevelSetup, n: int,
                     words_out: Optional[float] = None):
    """Assemble the level's full coordinate array (shared reference).

    Functionally a gather of owned slices + shared broadcast.  By
    default charged as an allgather of all owned coordinates (the
    end-of-level exchange); block refreshes pass ``words_out`` = the
    rank's *far-edge* coordinate volume — the paper's ñ, "typically
    much smaller" than the boundary — because a real implementation
    only ships the endpoints of edges that span non-neighbour blocks.
    """
    if words_out is None:
        words_out = 2.0 * setup.own.shape[0]
    pairs = yield from comm.gather(
        (setup.own, setup.pos_own), root=0, words=words_out
    )
    full = None
    if comm.rank == 0:
        full = np.empty((n, 2))
        for ids, pos in pairs:
            full[ids] = pos
    p = comm.size
    lg = max(1.0, math.log2(p)) if p > 1 else 1.0
    full = yield from share_from_root(
        comm, full, words=words_out * max(0, p - 1) / lg
    )
    return full


def _smooth_level(
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
    """Fixed-lattice smoothing of one level; returns the level's final
    full coordinate array (shared, identical on all ranks)."""
    n = graph.num_vertices
    comm.set_phase("embed/smooth")
    setup = _setup_level(comm, graph, pos_full, owner, grid)
    p = comm.size

    # initial β statistics: allreduce of the (p, 3) cell table
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
    # private writable copy of the delivered table: off-block iterations
    # overwrite this rank's own row in place (tiny (p,3) copy; the engine
    # delivers collective payloads as read-only views)
    stats = np.array(
        (yield from comm.allreduce(local_stats(), words=3.0 * p))
    )
    comm.set_phase("embed/smooth")
    # Fixed geometric cooling instead of Hu's adaptive schedule: the
    # adaptive rule needs the *global* force energy every iteration — a
    # reduction the paper's block structure explicitly avoids (global
    # collectives happen once per block; iterations use only
    # nearest-neighbour communication).
    step = step0
    n_own = setup.pos_own.shape[0]
    ax, ay = setup.pos_all[:, 0], setup.pos_all[:, 1]
    ox, oy = setup.pos_own[:, 0], setup.pos_own[:, 1]

    for it in range(iters):
        # ---- halo exchange: boundary coordinates to grid neighbours ----
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

        # ---- per-block refresh: far ghosts + β table -------------------
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
            # own row stays current locally (paper: each processor
            # independently calculates its φ and μ every iteration)
            stats[comm.rank] = local_stats()[comm.rank]

        # ---- forces on owned vertices ----------------------------------
        dx = ax[setup.dst_slot] - ox[setup.src_pos]
        dy = ay[setup.dst_slot] - oy[setup.src_pos]
        mag = np.sqrt(dx * dx + dy * dy) / k * setup.w
        # per-source segment sum via bincount: bit-identical to the
        # np.add.at scatter it replaces, ~6x faster at scale
        # (float64 even for a rank that owns no slot: bincount of an
        # empty input is int64)
        fx = np.bincount(setup.src_pos, weights=dx * mag,
                         minlength=n_own).astype(np.float64, copy=False)
        fy = np.bincount(setup.src_pos, weights=dy * mag,
                         minlength=n_own).astype(np.float64, copy=False)
        field = _beta_force(stats, comm.rank, DEFAULT_C, k)
        fx += field[0] * setup.mass_own
        fy += field[1] * setup.mass_own
        # own-cell term: repulsion from the cell's other mass at its φ
        m_cell, com = stats[comm.rank, 0], stats[comm.rank, 1:]
        ddx = ox - com[0]
        ddy = oy - com[1]
        r2 = ddx * ddx + ddy * ddy + _EPS2
        m_other = np.maximum(m_cell - setup.mass_own, 0.0)
        cell = DEFAULT_C * k * k * setup.mass_own * m_other / r2
        fx += ddx * cell
        fy += ddy * cell
        comm.charge(float(setup.w.shape[0] * 4 + setup.own.shape[0] * 6 + p))

        # ---- move owned vertices (communication-free cooling) ----------
        norms = np.sqrt(fx * fx + fy * fy)
        # masked: an unmasked += 0.0 would turn a -0.0 coordinate into +0.0
        active = norms > 1e-300
        nrm = norms[active]
        ox[active] += fx[active] / nrm * step
        oy[active] += fy[active] / nrm * step
        step *= _T

    comm.set_phase("embed/gather")
    full = yield from _gather_full_pos(comm, setup, n)
    return full


def dist_multilevel_embedding(
    comm: Comm,
    graph: CSRGraph,
    *,
    coarsest_iters: int = 150,
    smooth_iters: int = 16,
    block_size: int = 4,
    seed=None,
):
    """Distributed ScalaPart embedding; rank program for the VM.

    Returns ``(pos, info)`` where ``pos`` is the full ``(n, 2)``
    coordinate array (a shared reference, identical on every rank) and
    ``info`` carries the hierarchy sizes for diagnostics.
    """
    comm.set_phase("coarsen")
    graphs, cmaps = yield from dist_build_hierarchy(
        comm, graph, coarsest_size=COARSEST_SIZE, keep_every_other=True
    )

    comm.set_phase("embed")
    nlevels = len(graphs)
    p_total = comm.size
    n0 = max(1, graphs[0].num_vertices)
    # active ranks per level sized so n_i / P_i stays ~ n_0 / P — the
    # paper's invariant (both quarter per level in the ideal hierarchy)
    p_at = [
        max(1, min(p_total, (p_total * g.num_vertices) // n0)) for g in graphs
    ]

    # ---- coarsest embedding (small rank group) -------------------------
    comm.set_phase("embed/coarsest")
    coarsest = graphs[-1]
    nk = coarsest.num_vertices
    pk = p_at[-1]
    payload = None
    if comm.rank == 0:
        res = coarsest_layout(coarsest, derive_seed(seed, 0xC0A4),
                              max_iters=coarsest_iters)
        payload = (res.pos, res.iterations)
    pos, used_iters = (yield from share_from_root(comm, payload, words=2.0 * nk))
    # Cost accounting: the paper embeds the coarsest graph *with the
    # fixed-lattice scheme itself* on the P^k ranks, so one iteration
    # costs O(n_k + m_k + lattice) per group — not the all-pairs n_k²
    # of the functional kernel above (which we run for robustness at
    # these tiny sizes).  Charged for the iterations actually executed
    # (the adaptive layout usually converges well before the cap).
    # Communication per iteration: one neighbour exchange; per block:
    # an allreduce of the β table.
    m = comm.machine
    comm.charge(used_iters * (10.0 * nk + coarsest.indices.shape[0] + 16.0) / pk)
    if pk > 1:
        comm.charge_comm_seconds(
            used_iters * m.exchange_cost(min(4, pk - 1), 2.0 * nk / pk, 2.0 * nk / pk)
            + (used_iters / max(1, block_size))
            * m.collective_cost("allreduce", pk, 3.0 * pk)
        )

    # ---- uncoarsen: project + smooth -----------------------------------
    total_smooth_iters = 0
    for level in range(nlevels - 2, -1, -1):
        comm.set_phase("embed/project")
        g = graphs[level]
        n = g.num_vertices
        p_lvl = min(p_at[level], n) or 1
        rows, cols = grid_dims(p_lvl)
        grid = ProcessGrid(rows, cols)
        # projection at the subtree root (functional), shared by reference;
        # charged as the paper's nearest-neighbour projection traffic
        proj = None
        owner = None
        if comm.rank == 0:
            rng = np.random.default_rng(derive_seed(seed, 0x9E0, level))
            proj = 2.0 * pos[cmaps[level]] + rng.normal(scale=JITTER, size=(n, 2))
            row, col = rcb_grid_map(proj, g.vwgt, rows, cols)
            owner = (row * cols + col).astype(np.int32)
        comm.charge(3.0 * n / p_lvl)
        proj = yield from share_from_root(comm, proj, words=2.0 * n / p_lvl)
        owner = yield from share_from_root(comm, owner, words=1.0 * n / p_lvl)

        sub = yield from comm.split(0 if comm.rank < p_lvl else None)
        # §4: "relatively fewer iterations are required at high processor
        # counts for smoothing" — the finer lattice (more β cells) makes
        # each iteration more accurate, so the schedule tapers with P
        level_iters = max(6, smooth_iters - int(math.log2(max(1, p_lvl))))
        total_smooth_iters += level_iters
        if sub is not None:
            pos = yield from _smooth_level(
                sub, g, proj, owner, grid,
                iters=level_iters, block_size=block_size,
            )
        # deliver the level result to the idle ranks as well
        comm.set_phase("embed/gather")
        pos = yield from share_from_root(comm, pos if comm.rank == 0 else None,
                                         words=1.0)
    comm.set_phase("embed")
    info = {
        "levels": nlevels,
        "sizes": [g.num_vertices for g in graphs],
        "smooth_iterations": total_smooth_iters,
    }
    return pos, info
