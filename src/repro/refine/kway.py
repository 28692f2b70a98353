"""Greedy boundary k-way refinement.

The k-way analogue of the strip/FM refinement: after a direct or
recursive k-way partition, vertices on part boundaries are greedily
moved to the neighbouring part they are most connected to.  The gain of
moving ``v`` from part ``a`` to part ``b`` is the cut delta

    gain(v, a -> b) = w(v, b) − w(v, a)

where ``w(v, p)`` is the weight of edges from ``v`` into part ``p``
(so positive gain strictly reduces the weighted cut).  Moves respect a
CostModel-weighted balance constraint: a target part may not exceed
``(1 + max_imbalance) · total_cost / k``.

When the *input* violates the constraint (e.g. a geometric assignment
that did not fully converge), the pass runs in rebalancing mode for
overloaded parts: the best move out of an overloaded part is accepted
even at negative gain, provided it strictly shrinks the heavier side of
the exchange — a potential argument that rules out ping-pong cycles, so
passes always terminate.

Each pass examines the current boundary in best-gain-first order
(deterministic: ties break on vertex id), moves each vertex at most
once, and recomputes gains against the live labelling so earlier moves
in the pass are accounted for.  Passes repeat until one accepts no
move.

The greedy sweep only accepts positive-gain single moves, so it stalls
in shallow local minima (it cannot straighten a jagged boundary where
every single move is neutral or negative).  A *pairwise FM* phase
escapes those: for every adjacent part pair, the pair's induced
subgraph is refined with the hill-climbing 2-way FM
(:func:`repro.refine.fm.fm_refine`) under the global per-part cost
limit mapped onto the pair.  A pair's result is accepted only if the
*global* cut strictly drops — FM on the pair subgraph cannot see edges
leaving the pair, so its local improvement is checked against the true
cut delta before committing.  Accepted labellings are monotone in the
global cut, which keeps the phase deterministic and terminating.

A pair is evaluated again only if one of its two parts changed since
its last rejected try.  Its outcome depends on nothing else: the pair
subgraph, the costs and the FM start are functions of the memberships
of parts ``a`` and ``b``, and an edge from a moved vertex to a third
part crosses both before and after the move, so the global cut delta
is the pair-internal one.  Within the phase only pair commits change
labels, so a per-part commit counter tells exactly when a rejected pair
would be rejected again, and skipping it changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from ..graph.partition import KWayPartition, kway_cut_weight

__all__ = ["KWayRefineResult", "REFINE_PASSES", "kway_refine"]


@dataclass(frozen=True)
class KWayRefineResult:
    """Outcome of :func:`kway_refine`."""

    partition: KWayPartition
    initial_cut: float
    final_cut: float
    passes: int
    moves: int

    @property
    def improvement(self) -> float:
        return self.initial_cut - self.final_cut


#: greedy boundary passes of :func:`kway_refine` (at most)
REFINE_PASSES = 8


def kway_refine(
    partition: KWayPartition,
    max_imbalance: float = 0.05,
    max_passes: int = REFINE_PASSES,
    pairwise_rounds: int = 3,
) -> KWayRefineResult:
    """Refine a k-way partition with greedy boundary passes.

    Parameters
    ----------
    max_imbalance:
        allowed cost imbalance of the result (measured against the
        partition's cost array — ``graph.vwgt`` unless a CostModel
        array was attached).  If the input exceeds it, rebalancing
        moves are preferred until the constraint is met or no boundary
        move can improve it.
    max_passes:
        greedy passes run until one accepts no move (at most this many).
    pairwise_rounds:
        rounds of pairwise FM over adjacent part pairs after the greedy
        sweeps (0 disables the phase); each round stops early when no
        pair improves the global cut.
    """
    if max_imbalance < 0:
        raise PartitionError(f"max_imbalance must be >= 0, got {max_imbalance}")
    if max_passes < 0:
        raise PartitionError(f"max_passes must be >= 0, got {max_passes}")
    if pairwise_rounds < 0:
        raise PartitionError(
            f"pairwise_rounds must be >= 0, got {pairwise_rounds}"
        )
    g = partition.graph
    k = partition.k
    costs = partition.balance_costs
    parts = partition.parts.astype(np.int64)  # writable working copy
    initial_cut = kway_cut_weight(g, parts)

    total = float(costs.sum())
    limit = (1.0 + max_imbalance) * total / k if total > 0 else 0.0
    part_cost = np.bincount(parts, weights=costs, minlength=k)

    def greedy_sweeps() -> int:
        nonlocal passes, moves
        accepted_total = 0
        for _ in range(max_passes):
            if k < 2 or g.num_edges == 0:
                break
            accepted = _kway_pass(g, parts, costs, part_cost, k, limit)
            passes += 1
            moves += accepted
            accepted_total += accepted
            if accepted == 0:
                break
        return accepted_total

    passes = 0
    moves = 0
    greedy_sweeps()
    if pairwise_rounds > 0 and k >= 2 and g.num_edges > 0:
        pair_moves = _pairwise_fm(g, parts, costs, part_cost, k, limit,
                                  pairwise_rounds)
        if pair_moves:
            moves += pair_moves
            greedy_sweeps()

    refined = partition.with_parts(parts)
    return KWayRefineResult(
        partition=refined,
        initial_cut=initial_cut,
        final_cut=kway_cut_weight(g, parts),
        passes=passes,
        moves=moves,
    )


def _kway_pass(g, parts, costs, part_cost, k, limit) -> int:
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


def _pairwise_fm(g, parts, costs, part_cost, k, limit, rounds,
                 fm_passes: int = 4) -> int:
    """Pairwise FM rounds; mutates ``parts``/``part_cost`` in place.

    Pairs are visited heaviest-shared-boundary first (deterministic:
    ties break on the pair indices).  A pair's refined labelling is
    committed only when the *global* cut delta — evaluated over the
    directed edges touching the moved vertices — is strictly negative.
    A pair whose two parts are unchanged since its last rejected try is
    skipped (see the module docstring for why that is exact).
    """
    from ..graph.csr import CSRGraph
    from ..graph.partition import Bisection
    from .fm import fm_refine

    src = g.edge_sources()
    dst = g.indices
    ewgt = g.ewgt
    touch = np.zeros(g.num_vertices, dtype=bool)
    # version[p] counts the commits that changed part p; tried[(a, b)]
    # holds the versions at the pair's last evaluation, which a commit
    # bumps, so only a rejected try can match again
    version = [0] * k
    tried: dict = {}
    moves = 0
    for _ in range(rounds):
        pa, pb = parts[src], parts[dst]
        crossing = pa != pb
        # bincount accumulates in slot order, like np.add.at
        shared = np.bincount(pa[crossing] * k + pb[crossing],
                             weights=ewgt[crossing],
                             minlength=k * k).reshape(k, k)
        shared = shared + shared.T
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)
                 if shared[a, b] > 0]
        pairs.sort(key=lambda ab: (-shared[ab[0], ab[1]], ab))
        improved = False
        for a, b in pairs:
            key = (version[a], version[b])
            if tried.get((a, b)) == key:
                continue  # same memberships, so the same rejected outcome
            tried[(a, b)] = key
            ids = np.flatnonzero((parts == a) | (parts == b))
            if ids.size < 2:
                continue
            sub, sub_ids = g.subgraph(ids)
            pair_costs = np.ascontiguousarray(costs[sub_ids])
            pair_total = float(pair_costs.sum())
            if pair_total <= 0:
                continue
            # balance the pair under the *global* per-part limit: each
            # side of the pair bisection is one of the k parts
            eps = max(0.0, 2.0 * limit / pair_total - 1.0)
            side = (parts[sub_ids] == b).astype(np.int8)
            cost_sub = CSRGraph(sub.indptr, sub.indices, sub.ewgt,
                                pair_costs, validate=False)
            fr = fm_refine(Bisection(cost_sub, side), max_imbalance=eps,
                           max_passes=fm_passes)
            new_side = fr.bisection.side
            changed = sub_ids[new_side != side]
            if changed.size == 0:
                continue
            # true cut delta: only directed edges touching a moved
            # vertex can change crossing status
            touch[changed] = True
            esel = np.flatnonzero(touch[src] | touch[dst])
            touch[changed] = False
            w = ewgt[esel]
            old_cut = float(w[parts[src[esel]] != parts[dst[esel]]].sum())
            saved = parts[sub_ids]  # fancy indexing copies
            parts[sub_ids] = np.where(new_side == 1, b, a)
            new_cut = float(w[parts[src[esel]] != parts[dst[esel]]].sum())
            if new_cut < old_cut - 1e-12:
                part_cost[a] = float(pair_costs[new_side == 0].sum())
                part_cost[b] = float(pair_costs[new_side == 1].sum())
                moves += int(changed.size)
                improved = True
                version[a] += 1
                version[b] += 1
            else:
                parts[sub_ids] = saved
        if not improved:
            break
    return moves
