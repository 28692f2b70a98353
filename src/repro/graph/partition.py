"""Partition data structures and partition-quality measures.

The paper partitions a graph into two parts ``V1``/``V2`` of nearly equal
size and measures the *edge separator* size ``|S|`` (the cut).  This
module provides :class:`Bisection` — an immutable labelling of vertices
into sides 0 and 1 — and its k-way generalisation
:class:`KWayPartition`, plus all quality metrics used in the
evaluation: cut size, weighted cut, balance / imbalance, boundary
vertices, and separator-edge extraction (used by the refinement
stages).

K-way balance is *cost-aware*: every k-way metric accepts an optional
per-vertex cost array (produced by a ``repro.core.cost.CostModel``) and
falls back to ``graph.vwgt`` when none is given, so weighted graphs are
balanced by weight, never by raw vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import PartitionError
from .csr import CSRGraph

__all__ = [
    "Bisection",
    "KWayPartition",
    "cut_size",
    "cut_weight",
    "imbalance",
    "kway_cut",
    "kway_cut_weight",
    "kway_imbalance",
    "part_costs",
]


def _sides_array(side, n: int) -> np.ndarray:
    side = np.asarray(side)
    if side.shape != (n,):
        raise PartitionError(f"side labels must have shape ({n},), got {side.shape}")
    if side.dtype == bool:
        side = side.astype(np.int8)
    side = side.astype(np.int8, copy=True)
    if side.size and not np.isin(side, (0, 1)).all():
        raise PartitionError("side labels must be 0 or 1")
    side.setflags(write=False)
    return side


@dataclass(frozen=True)
class Bisection:
    """Two-way partition of the vertices of a :class:`CSRGraph`.

    ``side[v]`` is 0 or 1.  Instances are immutable; refinement
    algorithms produce new instances via :meth:`with_side`.
    """

    graph: CSRGraph
    side: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "side", _sides_array(self.side, self.graph.num_vertices)
        )

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_part0(cls, graph: CSRGraph, part0: np.ndarray) -> "Bisection":
        """Build from the set of vertex ids on side 0."""
        side = np.ones(graph.num_vertices, dtype=np.int8)
        side[np.asarray(part0, dtype=np.int64)] = 0
        return cls(graph, side)

    @classmethod
    def trivial(cls, graph: CSRGraph) -> "Bisection":
        """Everything on side 0 (useful as a neutral starting point)."""
        return cls(graph, np.zeros(graph.num_vertices, dtype=np.int8))

    def with_side(self, side: np.ndarray) -> "Bisection":
        return Bisection(self.graph, side)

    def flipped(self) -> "Bisection":
        """Swap the two sides (cut and balance are invariant)."""
        return Bisection(self.graph, 1 - self.side)

    # -- metrics ----------------------------------------------------------
    @property
    def part_sizes(self) -> Tuple[int, int]:
        n1 = int(self.side.sum())
        return self.graph.num_vertices - n1, n1

    @property
    def part_weights(self) -> Tuple[float, float]:
        w1 = float(self.graph.vwgt[self.side == 1].sum())
        return self.graph.total_vertex_weight - w1, w1

    @property
    def cut_size(self) -> int:
        """Number of edges crossing the partition (the paper's ``|S|``)."""
        return cut_size(self.graph, self.side)

    @property
    def cut_weight(self) -> float:
        return cut_weight(self.graph, self.side)

    @property
    def imbalance(self) -> float:
        """``max(w0, w1) / (w_total / 2) - 1``; 0 means perfectly balanced."""
        return imbalance(self.graph, self.side)

    def separator_edges(self) -> np.ndarray:
        """``(k, 2)`` array of cut edges with ``u`` on side 0, ``v`` on 1."""
        edges, _ = self.graph.edge_list()
        if edges.shape[0] == 0:
            return np.zeros((0, 2), dtype=np.int64)
        s = self.side
        crossing = s[edges[:, 0]] != s[edges[:, 1]]
        sub = edges[crossing]
        swap = s[sub[:, 0]] == 1
        sub[swap] = sub[swap][:, ::-1]
        return sub

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge."""
        g = self.graph
        src = g.edge_sources()
        return np.unique(src[self.side[src] != self.side[g.indices]])

    def external_degrees(self) -> np.ndarray:
        """Per-vertex weight of edges to the *other* side (FM's ED)."""
        g = self.graph
        src = g.edge_sources()
        other = self.side[src] != self.side[g.indices]
        return np.bincount(
            src[other], weights=g.ewgt[other], minlength=g.num_vertices
        )

    def internal_degrees(self) -> np.ndarray:
        """Per-vertex weight of edges to the *same* side (FM's ID)."""
        g = self.graph
        src = g.edge_sources()
        same = self.side[src] == self.side[g.indices]
        return np.bincount(src[same], weights=g.ewgt[same], minlength=g.num_vertices)

    def validate(self, max_imbalance: Optional[float] = None) -> None:
        """Raise :class:`PartitionError` if the bisection is malformed or
        (when ``max_imbalance`` is given) too unbalanced."""
        _sides_array(self.side, self.graph.num_vertices)
        if self.graph.num_vertices >= 2:
            if (self.side == 0).sum() == 0 or (self.side == 1).sum() == 0:
                raise PartitionError("bisection has an empty side")
        if max_imbalance is not None and self.imbalance > max_imbalance:
            raise PartitionError(
                f"imbalance {self.imbalance:.4f} exceeds allowed {max_imbalance:.4f}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n0, n1 = self.part_sizes
        return f"Bisection(n0={n0}, n1={n1}, cut={self.cut_size})"


def _parts_array(parts, n: int, k: int) -> np.ndarray:
    parts = np.asarray(parts)
    if parts.shape != (n,):
        raise PartitionError(
            f"part labels must have shape ({n},), got {parts.shape}"
        )
    parts = parts.astype(np.int64, copy=True)
    if parts.size and (parts.min() < 0 or parts.max() >= k):
        raise PartitionError(f"part labels must lie in [0, {k})")
    parts.setflags(write=False)
    return parts


def _costs_array(costs, n: int) -> Optional[np.ndarray]:
    if costs is None:
        return None
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    if costs.shape != (n,):
        raise PartitionError(
            f"vertex costs must have shape ({n},), got {costs.shape}"
        )
    costs.setflags(write=False)
    return costs


@dataclass(frozen=True)
class KWayPartition:
    """K-way partition of the vertices of a :class:`CSRGraph`.

    ``parts[v]`` lies in ``[0, k)``.  ``costs`` is the optional
    per-vertex balance cost (resolved from a CostModel); when ``None``
    the balance metrics use ``graph.vwgt``.  Instances are immutable;
    refinement produces new instances via :meth:`with_parts`.
    """

    graph: CSRGraph
    parts: np.ndarray
    k: int
    costs: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PartitionError(f"k must be >= 1, got {self.k}")
        object.__setattr__(
            self, "parts",
            _parts_array(self.parts, self.graph.num_vertices, self.k),
        )
        object.__setattr__(
            self, "costs", _costs_array(self.costs, self.graph.num_vertices)
        )

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_bisection(
        cls, bis: Bisection, costs: Optional[np.ndarray] = None
    ) -> "KWayPartition":
        return cls(bis.graph, bis.side.astype(np.int64), 2, costs=costs)

    def with_parts(self, parts: np.ndarray) -> "KWayPartition":
        return KWayPartition(self.graph, parts, self.k, costs=self.costs)

    def to_bisection(self) -> Bisection:
        if self.k > 2:
            raise PartitionError(
                f"cannot view a {self.k}-way partition as a bisection"
            )
        return Bisection(self.graph, self.parts.astype(np.int8))

    # -- metrics ----------------------------------------------------------
    @property
    def balance_costs(self) -> np.ndarray:
        """The cost array the balance metrics use (vwgt fallback)."""
        return self.costs if self.costs is not None else self.graph.vwgt

    @property
    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.parts, minlength=self.k)

    @property
    def part_weights(self) -> np.ndarray:
        return np.bincount(
            self.parts, weights=self.graph.vwgt, minlength=self.k
        )

    @property
    def part_costs(self) -> np.ndarray:
        return np.bincount(
            self.parts, weights=self.balance_costs, minlength=self.k
        )

    @property
    def cut_size(self) -> int:
        return kway_cut(self.graph, self.parts)

    @property
    def cut_weight(self) -> float:
        return kway_cut_weight(self.graph, self.parts)

    @property
    def imbalance(self) -> float:
        """``max_part_cost / (total_cost / k) - 1`` (0 = perfect)."""
        return kway_imbalance(
            self.graph, self.parts, self.k, costs=self.costs
        )

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge."""
        g = self.graph
        src = g.edge_sources()
        crossing = self.parts[src] != self.parts[g.indices]
        return np.unique(src[crossing])

    def boundary_connectivity(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(boundary, conn)`` where ``conn[i, p]`` is the weight of
        edges from boundary vertex ``boundary[i]`` into part ``p``."""
        g = self.graph
        src = g.edge_sources()
        boundary = self.boundary_vertices()
        pos = np.full(g.num_vertices, -1, dtype=np.int64)
        pos[boundary] = np.arange(boundary.size)
        mask = pos[src] >= 0
        conn = np.zeros((boundary.size, self.k))
        np.add.at(
            conn,
            (pos[src[mask]], self.parts[g.indices[mask]]),
            g.ewgt[mask],
        )
        return boundary, conn

    def validate(self, max_imbalance: Optional[float] = None) -> None:
        """Raise :class:`PartitionError` if malformed, a part is empty
        (when the graph has >= k vertices), or too unbalanced."""
        _parts_array(self.parts, self.graph.num_vertices, self.k)
        if self.graph.num_vertices >= self.k:
            sizes = self.part_sizes
            if (sizes == 0).any():
                empty = np.flatnonzero(sizes == 0)
                raise PartitionError(
                    f"k-way partition has empty parts {empty.tolist()}"
                )
        if max_imbalance is not None and self.imbalance > max_imbalance:
            raise PartitionError(
                f"k-way imbalance {self.imbalance:.4f} exceeds allowed "
                f"{max_imbalance:.4f}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KWayPartition(k={self.k}, cut={self.cut_size}, "
            f"imbalance={self.imbalance:.4f})"
        )


# ----------------------------------------------------------------------
# free functions (usable without building a Bisection)
# ----------------------------------------------------------------------

def cut_size(graph: CSRGraph, side: np.ndarray) -> int:
    """Number of undirected edges with endpoints on different sides."""
    side = np.asarray(side)
    src = graph.edge_sources()
    crossing = side[src] != side[graph.indices]
    return int(crossing.sum()) // 2


def cut_weight(graph: CSRGraph, side: np.ndarray) -> float:
    """Total weight of cut edges."""
    side = np.asarray(side)
    src = graph.edge_sources()
    crossing = side[src] != side[graph.indices]
    return float(graph.ewgt[crossing].sum()) / 2.0


def imbalance(graph: CSRGraph, side: np.ndarray) -> float:
    """``max(w0, w1) / (w_total/2) - 1`` (0 = perfect balance)."""
    side = np.asarray(side)
    total = graph.total_vertex_weight
    if total == 0:
        return 0.0
    w1 = float(graph.vwgt[side == 1].sum())
    return max(total - w1, w1) / (total / 2.0) - 1.0


def kway_cut(graph: CSRGraph, parts: np.ndarray) -> int:
    """Number of edges whose endpoints lie in different parts."""
    parts = np.asarray(parts)
    src = graph.edge_sources()
    return int((parts[src] != parts[graph.indices]).sum()) // 2


def kway_cut_weight(graph: CSRGraph, parts: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    parts = np.asarray(parts)
    src = graph.edge_sources()
    crossing = parts[src] != parts[graph.indices]
    return float(graph.ewgt[crossing].sum()) / 2.0


def part_costs(
    graph: CSRGraph,
    parts: np.ndarray,
    k: int,
    costs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-part total balance cost (``graph.vwgt`` when no costs given)."""
    parts = np.asarray(parts)
    weights = graph.vwgt if costs is None else np.asarray(costs, dtype=np.float64)
    return np.bincount(parts, weights=weights, minlength=k)


def kway_imbalance(
    graph: CSRGraph,
    parts: np.ndarray,
    k: int,
    costs: Optional[np.ndarray] = None,
) -> float:
    """``max_part_cost / (total_cost/k) − 1`` (0 = perfect balance).

    Balance is measured against per-vertex *costs* — ``graph.vwgt`` by
    default (never raw vertex counts), or an explicit cost-model array.
    """
    if k < 1:
        return 0.0
    pc = part_costs(graph, parts, k, costs=costs)
    total = float(pc.sum())
    if total == 0:
        return 0.0
    return float(pc.max() / (total / k) - 1.0)
