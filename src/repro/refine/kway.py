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

A pair's outcome is a function of the memberships of its two parts
alone: the pair subgraph, the costs and the FM start depend on nothing
else, and an edge from a moved vertex to a third part crosses both
before and after the move, so the global cut delta is the pair-internal
one.  Two consequences:

* a pair is evaluated again only if one of its two parts changed since
  its last rejected try (within the phase only pair commits change
  labels, so a per-part commit counter tells exactly when a rejected
  pair would be rejected again);
* pairs that share no part with an earlier pending pair of the round
  can be evaluated at once, against the same labels.  :class:`PairRounds`
  hands them out as *waves*, and committing a wave's results in round
  order gives the labels of evaluating the round one pair at a time.
  :func:`kway_refine` evaluates a wave in-process;
  :func:`repro.geometric.kway.dist_kway_geometric` spreads it over the
  ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CSRGraph
from ..graph.distributed import adjacency_slots
from ..graph.partition import Bisection, KWayPartition, kway_cut_weight
from . import fm as fm_module

__all__ = ["KWayRefineResult", "KWayRefinement", "PAIRWISE_ROUNDS",
           "PairRounds", "REFINE_PASSES", "kway_refine", "part_limit",
           "subgraph_rows"]


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
#: pairwise FM rounds of :func:`kway_refine` (at most)
PAIRWISE_ROUNDS = 3

#: a pair's commit: the vertices that flip between its two parts and
#: the two parts' new costs
PairMove = Tuple[np.ndarray, float, float]


def kway_refine(
    partition: KWayPartition,
    max_imbalance: float = 0.05,
    max_passes: int = REFINE_PASSES,
    pairwise_rounds: int = PAIRWISE_ROUNDS,
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
    ref = KWayRefinement(partition, max_imbalance, max_passes)
    ref.sweeps()
    if pairwise_rounds > 0 and ref.refinable:
        ref.add_pair_moves(_pairwise_fm(
            ref.graph, ref.parts, ref.costs, ref.part_cost, ref.k, ref.limit,
            pairwise_rounds,
        ))
    return ref.result()


def part_limit(costs: np.ndarray, k: int, max_imbalance: float) -> float:
    """The per-part cost limit ``(1 + max_imbalance) · total / k`` (0 for
    a zero total)."""
    total = float(costs.sum())
    return (1.0 + max_imbalance) * total / k if total > 0 else 0.0


class KWayRefinement:
    """Working state of one k-way refinement: a writable labelling, its
    part costs, the per-part cost limit and the pass/move counters.

    :func:`kway_refine` runs all of it in-process; the distributed
    k-way stage runs the sweeps on its root and the pairwise rounds on
    every rank.
    """

    def __init__(self, partition: KWayPartition, max_imbalance: float,
                 max_passes: int = REFINE_PASSES) -> None:
        self.partition = partition
        self.graph = g = partition.graph
        self.k = k = partition.k
        self.costs = partition.balance_costs
        self.parts = partition.parts.astype(np.int64)  # writable copy
        self.initial_cut = kway_cut_weight(g, self.parts)
        self.limit = part_limit(self.costs, k, max_imbalance)
        self.part_cost = np.bincount(self.parts, weights=self.costs,
                                     minlength=k)
        self.max_passes = max_passes
        self.passes = 0
        self.moves = 0

    @property
    def refinable(self) -> bool:
        """Whether any move can change the cut."""
        return self.k >= 2 and self.graph.num_edges > 0

    def sweeps(self) -> None:
        """Greedy passes until one accepts no move (at most
        ``max_passes``)."""
        if not self.refinable:
            return
        for _ in range(self.max_passes):
            accepted = _kway_pass(self.graph, self.parts, self.costs,
                                  self.part_cost, self.k, self.limit)
            self.passes += 1
            self.moves += accepted
            if accepted == 0:
                break

    def add_pair_moves(self, moves: int) -> None:
        """Book the pairwise phase's moves; if it moved anything, sweep
        again."""
        if moves:
            self.moves += moves
            self.sweeps()

    def result(self) -> KWayRefineResult:
        return KWayRefineResult(
            partition=self.partition.with_parts(self.parts),
            initial_cut=self.initial_cut,
            final_cut=kway_cut_weight(self.graph, self.parts),
            passes=self.passes,
            moves=self.moves,
        )


def _kway_pass(g, parts, costs, part_cost, k, limit) -> int:
    """One boundary sweep; mutates ``parts``/``part_cost`` in place.

    The sweep order comes from vectorised connectivity; the sweep
    itself is one scalar loop over Python lists (the boundary rows'
    slots, the live labels and part costs), as in the FM pass.  Each
    connectivity row is the same sequential sum over the vertex's slots
    as a ``bincount``, so the moves are bit-identical.
    """
    src = g.edge_sources()
    crossing = parts[src] != parts[g.indices]
    boundary = np.unique(src[crossing])
    if boundary.size == 0:
        return 0

    # initial connectivity of the boundary, used only to order the sweep
    # (bincount accumulates in slot order, like np.add.at)
    row_of, _, dst, wts = adjacency_slots(g, boundary)
    nb = boundary.size
    conn = np.bincount(row_of * k + parts[dst], weights=wts,
                       minlength=nb * k).reshape(nb, k)
    own = parts[boundary]
    rows = np.arange(nb)
    own_conn = conn[rows, own].copy()
    conn[rows, own] = -np.inf
    best_gain = conn.max(axis=1) - own_conn
    order = np.lexsort((boundary, -best_gain))  # gain desc, id asc

    lptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=nb), out=lptr[1:])
    lptr, nbr, wl = lptr.tolist(), dst.tolist(), wts.tolist()
    ids, cost = boundary.tolist(), costs[boundary].tolist()
    label, pc = parts.tolist(), part_cost.tolist()
    targets = range(k)
    moved: list = []
    for i in order.tolist():
        beg, end = lptr[i], lptr[i + 1]
        if beg == end:
            continue
        v = ids[i]
        a = label[v]
        cv = cost[i]
        # live connectivity row (earlier moves in this pass count)
        row = [0.0] * k
        for u, w in zip(nbr[beg:end], wl[beg:end]):
            row[label[u]] += w
        own_w, ca = row[a], pc[a]
        over = ca > limit
        cand = []
        best = -np.inf
        for b in targets:
            # rebalancing also allows targets that strictly shrink the
            # heavier side of the exchange (monotone, so no ping-pong)
            if b != a and (pc[b] + cv <= limit or (over and pc[b] + cv < ca)):
                gain = row[b] - own_w
                cand.append((gain, b))
                if gain > best:
                    best = gain
        if not cand or not (best > 1e-12 or over):
            continue
        # deterministic target: best gain, then lightest part, then id
        b = min((pc[b], b) for gain, b in cand if gain >= best - 1e-12)[1]
        label[v] = b
        pc[a] -= cv
        pc[b] += cv
        moved.append(v)
    if moved:
        parts[moved] = [label[v] for v in moved]
        part_cost[:] = pc
    return len(moved)


def subgraph_rows(g: CSRGraph) -> CSRGraph:
    """``g`` with every row in :meth:`CSRGraph.subgraph` slot order —
    ``g`` itself when it already is — so pair subgraphs are row
    filters of it (:meth:`CSRGraph.filter_rows`)."""
    if g.in_subgraph_order():
        return g
    return g.subgraph(np.arange(g.num_vertices, dtype=np.int64))[0]


class PairRounds:
    """The pairwise FM phase as a schedule of waves.

    Pairs are visited heaviest-shared-boundary first (deterministic:
    ties break on the pair indices).  :meth:`next_wave` returns the
    pending pairs, in round order, that share no part with an earlier
    pending pair, so each is evaluated (:meth:`evaluate`) against the
    labels its turn in the round would see.  :meth:`commit` then applies
    the wave's results in round order: a pair's refined labelling is
    kept only when the *global* cut delta — evaluated over the directed
    edges touching the moved vertices — is strictly negative.  A pair
    whose two parts are unchanged since its last rejected try is skipped
    when its wave is formed (see the module docstring for why both are
    exact).

    ``parts`` and ``part_cost`` are updated in place by the commits.
    ``rows`` is :func:`subgraph_rows` of ``g`` (computed when omitted).
    """

    def __init__(self, g: CSRGraph, parts: np.ndarray, costs: np.ndarray,
                 part_cost: np.ndarray, k: int, limit: float, rounds: int,
                 fm_passes: int = 4, rows: Optional[CSRGraph] = None) -> None:
        self.g = g
        self.rows = subgraph_rows(g) if rows is None else rows
        self.parts = parts
        self.costs = costs
        self.part_cost = part_cost
        self.k = k
        self.limit = limit
        self.rounds = rounds
        self.fm_passes = fm_passes
        self.moves = 0
        self._src = g.edge_sources()
        self._touch = np.zeros(g.num_vertices, dtype=bool)
        # version[p] counts the commits that changed part p; tried[(a, b)]
        # holds the versions at the pair's last evaluation, which a commit
        # bumps, so only a rejected try can match again
        self._version = [0] * k
        self._tried: dict = {}
        self._round = 0
        self._improved = False
        self._pending: List[Tuple[int, int]] = []

    def _round_pairs(self) -> List[Tuple[int, int]]:
        k, parts = self.k, self.parts
        pa, pb = parts[self._src], parts[self.g.indices]
        crossing = pa != pb
        # bincount accumulates in slot order, like np.add.at
        shared = np.bincount(pa[crossing] * k + pb[crossing],
                             weights=self.g.ewgt[crossing],
                             minlength=k * k).reshape(k, k)
        shared = shared + shared.T
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)
                 if shared[a, b] > 0]
        pairs.sort(key=lambda ab: (-shared[ab[0], ab[1]], ab))
        return pairs

    def next_wave(self) -> List[Tuple[int, int]]:
        """The next wave of pairs to evaluate; empty when the phase is
        over (the last round improved nothing, or all rounds ran)."""
        while True:
            if not self._pending:
                if self._round == self.rounds or (
                        self._round and not self._improved):
                    return []
                self._round += 1
                self._improved = False
                self._pending = self._round_pairs()
                if not self._pending:
                    return []
            wave, blocked, busy = [], [], set()
            for a, b in self._pending:
                if a in busy or b in busy:
                    blocked.append((a, b))
                else:
                    key = (self._version[a], self._version[b])
                    if self._tried.get((a, b)) == key:
                        continue  # same memberships, same rejected outcome
                    self._tried[(a, b)] = key
                    wave.append((a, b))
                busy.update((a, b))
            self._pending = blocked
            if wave:
                return wave

    def pair_slots(self, a: int, b: int) -> int:
        """Adjacency slots of the pair's rows (its evaluation work)."""
        deg = np.diff(self.g.indptr)
        return int(deg[(self.parts == a) | (self.parts == b)].sum())

    def evaluate(self, a: int, b: int) -> Optional[PairMove]:
        """FM on the pair's subgraph against the current labels: the
        pair's commit if the global cut strictly drops, else None.
        Reads the labels of parts ``a`` and ``b`` only and changes no
        state."""
        parts = self.parts
        ids = np.flatnonzero((parts == a) | (parts == b))
        if ids.size < 2:
            return None
        pair_costs = self.costs[ids]
        pair_total = float(pair_costs.sum())
        if pair_total <= 0:
            return None
        # balance the pair under the *global* per-part limit: each side
        # of the pair bisection is one of the k parts
        eps = max(0.0, 2.0 * self.limit / pair_total - 1.0)
        side = (parts[ids] == b).astype(np.int8)
        sub = self.rows.filter_rows(ids, pair_costs)
        fr = fm_module.fm_refine(Bisection(sub, side), max_imbalance=eps,
                                 max_passes=self.fm_passes)
        new_side = fr.bisection.side
        changed = ids[new_side != side]
        if changed.size == 0 or not self._cut_drops(changed, a, b):
            return None
        return (changed, float(pair_costs[new_side == 0].sum()),
                float(pair_costs[new_side == 1].sum()))

    def _cut_drops(self, changed: np.ndarray, a: int, b: int) -> bool:
        """Whether flipping ``changed`` between ``a`` and ``b`` strictly
        lowers the global cut: only directed edges touching a flipped
        vertex can change crossing status."""
        g, parts, touch = self.g, self.parts, self._touch
        touch[changed] = True
        # every CSRGraph is structurally symmetric, so a slot into a
        # flipped vertex lies in the row of one of its neighbours; those
        # rows' slots, filtered, are the touched slots in slot order (the
        # order a scan of every slot finds them in, so the sums agree)
        near = np.unique(np.concatenate(
            [changed, adjacency_slots(g, changed)[2]]))
        _, s, d, w = adjacency_slots(g, near)
        sel = touch[s] | touch[d]
        s, d, w = s[sel], d[sel], w[sel]
        flip_s, flip_d = touch[s], touch[d]
        touch[changed] = False
        ls, ld = parts[s], parts[d]
        old_cut = float(w[ls != ld].sum())
        ls = np.where(flip_s, a + b - ls, ls)
        ld = np.where(flip_d, a + b - ld, ld)
        new_cut = float(w[ls != ld].sum())
        return new_cut < old_cut - 1e-12

    def commit(self, wave: List[Tuple[int, int]],
               results: List[Optional[PairMove]]) -> None:
        """Apply a wave's results in round order."""
        for (a, b), res in zip(wave, results):
            if res is None:
                continue
            changed, cost_a, cost_b = res
            self.parts[changed] = a + b - self.parts[changed]
            self.part_cost[a] = cost_a
            self.part_cost[b] = cost_b
            self.moves += int(changed.size)
            self._improved = True
            self._version[a] += 1
            self._version[b] += 1


def _pairwise_fm(g, parts, costs, part_cost, k, limit, rounds,
                 fm_passes: int = 4) -> int:
    """Pairwise FM rounds, one wave at a time in-process; mutates
    ``parts``/``part_cost`` in place and returns the moves."""
    pr = PairRounds(g, parts, costs, part_cost, k, limit, rounds, fm_passes)
    wave = pr.next_wave()
    while wave:
        pr.commit(wave, [pr.evaluate(a, b) for a, b in wave])
        wave = pr.next_wave()
    return pr.moves
