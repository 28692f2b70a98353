"""Oracles for the FM pass and the pairwise FM phase of k-way refinement.

``fm_pass_reference`` is the array-backed FM pass (numpy ``gain``,
``side``, ``stamp`` and ``locked``, numpy scalars on the heap, two
``edge_sources()`` per pass) that the list-backed pass replaced.
``pairwise_fm_reference`` is the pairwise phase without the
unchanged-pair skip, building every pair with the edge-list
:func:`~tests.oracles.subgraph.subgraph_reference`.
``kway_pass_reference`` is the array-backed greedy boundary sweep
(``np.add.at`` ordering connectivity, a ``bincount`` row and numpy
feasibility masks per vertex) that the list-backed sweep replaced.

All keep the production signatures, so a test installs them with
``monkeypatch.setattr`` on :mod:`repro.refine.fm` (``_fm_pass``) and
:mod:`repro.refine.kway` (``_pairwise_fm``, ``_kway_pass``) and
compares whole ``fm_refine`` / ``kway_refine`` results byte for byte.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import Bisection
from repro.refine import fm as fm_module

from .subgraph import subgraph_reference


def _gains(g: CSRGraph, side: np.ndarray) -> np.ndarray:
    src = g.edge_sources()
    ext = side[src] != side[g.indices]
    signed = np.where(ext, g.ewgt, -g.ewgt)
    return np.bincount(src, weights=signed, minlength=g.num_vertices)


def fm_pass_reference(
    g, side, indptr, indices, ewgt, vwgt, total_w, w_limit, movable, stall_limit
):
    """One FM pass; mutates ``side`` in place.

    Returns ``(improvement, accepted_moves)``.
    """
    n = g.num_vertices
    gain = _gains(g, side)
    w1 = float(vwgt[side == 1].sum())
    w0 = total_w - w1

    # candidate heap entries: (-gain, v); stale entries skipped via stamp
    stamp = np.zeros(n, dtype=np.int64)
    locked = np.zeros(n, dtype=bool)
    heap: list = []

    def push(v: int) -> None:
        if movable is not None and not movable[v]:
            return
        heapq.heappush(heap, (-gain[v], v, int(stamp[v])))

    # seed with current boundary vertices
    src = g.edge_sources()
    boundary = np.unique(src[side[src] != side[indices]])
    for v in boundary:
        push(int(v))

    moves: list = []
    cum = 0.0
    best = 0.0
    best_idx = 0
    since_best = 0
    init_maxw = max(w0, w1)
    best_feasible = init_maxw <= w_limit
    best_maxw = init_maxw

    while heap and since_best < stall_limit:
        ng, v, st = heapq.heappop(heap)
        if locked[v] or st != stamp[v]:
            continue
        gv = -ng
        if side[v] == 0:
            nw0, nw1 = w0 - vwgt[v], w1 + vwgt[v]
        else:
            nw0, nw1 = w0 + vwgt[v], w1 - vwgt[v]
        if max(nw0, nw1) > w_limit and max(nw0, nw1) >= max(w0, w1):
            locked[v] = True
            continue
        locked[v] = True
        old = side[v]
        side[v] = 1 - old
        w0, w1 = nw0, nw1
        cum += gv
        moves.append(v)
        beg, end = indptr[v], indptr[v + 1]
        for idx in range(beg, end):
            u = indices[idx]
            if locked[u]:
                continue
            w = ewgt[idx]
            if side[u] == old:
                gain[u] += 2.0 * w
            else:
                gain[u] -= 2.0 * w
            stamp[u] += 1
            push(int(u))
        feasible = max(w0, w1) <= w_limit
        record = False
        if feasible:
            if not best_feasible or cum > best + 1e-12:
                record = True
        elif not best_feasible and max(w0, w1) < best_maxw - 1e-12:
            record = True
        if record:
            best = cum
            best_idx = len(moves)
            best_feasible = feasible
            best_maxw = max(w0, w1)
            since_best = 0
        else:
            since_best += 1

    for v in moves[best_idx:]:
        side[v] = 1 - side[v]
    improvement = max(best, init_maxw - best_maxw)
    return improvement, best_idx


def pairwise_fm_reference(g, parts, costs, part_cost, k, limit, rounds,
                          fm_passes: int = 4) -> int:
    """Pairwise FM rounds; mutates ``parts``/``part_cost`` in place.

    Calls ``repro.refine.fm.fm_refine`` through the module, so a test
    that also installs :func:`fm_pass_reference` gets the whole
    pre-optimisation phase.
    """
    src = g.edge_sources()
    dst = g.indices
    ewgt = g.ewgt
    touch = np.zeros(g.num_vertices, dtype=bool)
    moves = 0
    for _ in range(rounds):
        pa, pb = parts[src], parts[dst]
        crossing = pa != pb
        shared = np.zeros((k, k))
        np.add.at(shared, (pa[crossing], pb[crossing]), ewgt[crossing])
        shared = shared + shared.T
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)
                 if shared[a, b] > 0]
        pairs.sort(key=lambda ab: (-shared[ab[0], ab[1]], ab))
        improved = False
        for a, b in pairs:
            ids = np.flatnonzero((parts == a) | (parts == b))
            if ids.size < 2:
                continue
            sub, sub_ids = subgraph_reference(g, ids)
            pair_costs = np.ascontiguousarray(costs[sub_ids])
            pair_total = float(pair_costs.sum())
            if pair_total <= 0:
                continue
            eps = max(0.0, 2.0 * limit / pair_total - 1.0)
            side = (parts[sub_ids] == b).astype(np.int8)
            cost_sub = CSRGraph(sub.indptr, sub.indices, sub.ewgt,
                                pair_costs, validate=False)
            fr = fm_module.fm_refine(Bisection(cost_sub, side),
                                     max_imbalance=eps, max_passes=fm_passes)
            new_side = fr.bisection.side
            changed = sub_ids[new_side != side]
            if changed.size == 0:
                continue
            touch[changed] = True
            esel = np.flatnonzero(touch[src] | touch[dst])
            touch[changed] = False
            w = ewgt[esel]
            old_cut = float(w[parts[src[esel]] != parts[dst[esel]]].sum())
            saved = parts[sub_ids]
            parts[sub_ids] = np.where(new_side == 1, b, a)
            new_cut = float(w[parts[src[esel]] != parts[dst[esel]]].sum())
            if new_cut < old_cut - 1e-12:
                part_cost[a] = float(pair_costs[new_side == 0].sum())
                part_cost[b] = float(pair_costs[new_side == 1].sum())
                moves += int(changed.size)
                improved = True
            else:
                parts[sub_ids] = saved
        if not improved:
            break
    return moves


def kway_pass_reference(g, parts, costs, part_cost, k, limit) -> int:
    """One boundary sweep; mutates ``parts``/``part_cost`` in place."""
    indptr, indices, ewgt = g.indptr, g.indices, g.ewgt
    src = g.edge_sources()
    crossing = parts[src] != parts[indices]
    boundary = np.unique(src[crossing])
    if boundary.size == 0:
        return 0

    # initial connectivity of the boundary, used only to order the sweep
    pos = np.full(g.num_vertices, -1, dtype=np.int64)
    pos[boundary] = np.arange(boundary.size)
    mask = pos[src] >= 0
    conn = np.zeros((boundary.size, k))
    np.add.at(conn, (pos[src[mask]], parts[indices[mask]]), ewgt[mask])
    own = parts[boundary]
    rows = np.arange(boundary.size)
    own_conn = conn[rows, own].copy()
    conn[rows, own] = -np.inf
    best_gain = conn.max(axis=1) - own_conn
    order = np.lexsort((boundary, -best_gain))  # gain desc, id asc

    accepted = 0
    for i in order:
        v = int(boundary[i])
        a = int(parts[v])
        cv = float(costs[v])
        nbrs = indices[indptr[v]:indptr[v + 1]]
        if nbrs.size == 0:
            continue
        # live connectivity row (earlier moves in this pass count)
        row = np.bincount(parts[nbrs], weights=ewgt[indptr[v]:indptr[v + 1]],
                          minlength=k)
        gains = row - row[a]
        over = part_cost[a] > limit
        feasible = part_cost + cv <= limit
        if over:
            # rebalancing: also allow targets that strictly shrink the
            # heavier side of the exchange (monotone, so no ping-pong)
            feasible |= part_cost + cv < part_cost[a]
        feasible[a] = False
        if not feasible.any():
            continue
        cand_gain = np.where(feasible, gains, -np.inf)
        best = cand_gain.max()
        if not (best > 1e-12 or over):
            continue
        # deterministic target: best gain, then lightest part, then id
        tied = np.flatnonzero(cand_gain >= best - 1e-12)
        b = int(tied[np.lexsort((tied, part_cost[tied]))[0]])
        parts[v] = b
        part_cost[a] -= cv
        part_cost[b] += cv
        accepted += 1
    return accepted
