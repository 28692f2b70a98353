"""Compressed-sparse-row graph kernel.

:class:`CSRGraph` is the central data structure of the library: an
undirected graph with integer vertex ids ``0..n-1`` stored in CSR
(adjacency-array) form, with per-vertex weights and per-edge weights.
Both directions of every undirected edge are stored, exactly like the
METIS/ParMetis adjacency structure the paper builds on, so that
``indices[indptr[v]:indptr[v+1]]`` is the full neighbour list of ``v``.

Design notes
------------
* All arrays are NumPy; every bulk operation (construction, subgraphs,
  degree/cut computations) is vectorised — no per-edge Python loops on
  hot paths, following the scientific-Python optimisation guidance.
* Vertex weights are ``float64`` (coarsening accumulates them; geometric
  partitioning treats them as point masses). Edge weights are ``float64``
  as well; a weight of 1.0 per edge reproduces the unweighted graphs of
  the paper.
* Instances are immutable by convention: algorithms build new graphs
  instead of mutating, which keeps the multilevel hierarchy safe to hold.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import GraphError

__all__ = ["CSRGraph"]


def _check_finite(weights: np.ndarray, what: str) -> None:
    if not np.isfinite(weights).all():
        raise GraphError(f"{what} weights must be finite (got NaN or inf)")


class CSRGraph:
    """Undirected weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n+1``; neighbour list of vertex ``v``
        occupies ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of length ``2m`` holding neighbour ids (each
        undirected edge appears once per endpoint).
    ewgt:
        edge weights aligned with ``indices`` (symmetric: the two copies
        of an undirected edge carry equal weight). ``None`` means unit.
    vwgt:
        per-vertex weights. ``None`` means unit.
    validate:
        run structural validation (sorted neighbour lists are *not*
        required; symmetry and bounds are).
    """

    __slots__ = ("indptr", "indices", "ewgt", "vwgt")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        ewgt: Optional[np.ndarray] = None,
        vwgt: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        n = self.indptr.shape[0] - 1
        if ewgt is None:
            ewgt = np.ones(self.indices.shape[0], dtype=np.float64)
        if vwgt is None:
            vwgt = np.ones(n, dtype=np.float64)
        self.ewgt = np.ascontiguousarray(ewgt, dtype=np.float64)
        self.vwgt = np.ascontiguousarray(vwgt, dtype=np.float64)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: np.ndarray,
        weights: Optional[np.ndarray] = None,
        vwgt: Optional[np.ndarray] = None,
        *,
        dedupe: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an ``(m, 2)`` array of undirected edges.

        Self loops are dropped. With ``dedupe=True`` parallel edges are
        merged, accumulating their weights (the behaviour graph
        contraction needs); with ``dedupe=False`` the caller guarantees
        the edge list is already simple.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError(f"edge array must have shape (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GraphError("edge endpoint out of range")
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != edges.shape[0]:
                raise GraphError("weights length must match number of edges")
            _check_finite(weights, "edge")
        if vwgt is not None:
            _check_finite(np.asarray(vwgt, dtype=np.float64), "vertex")
        keep = edges[:, 0] != edges[:, 1]
        edges, weights = edges[keep], weights[keep]
        if dedupe and edges.shape[0]:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            key = lo * np.int64(n) + hi
            order = np.argsort(key, kind="stable")
            key, lo, hi, weights = key[order], lo[order], hi[order], weights[order]
            first = np.ones(key.shape[0], dtype=bool)
            first[1:] = key[1:] != key[:-1]
            group = np.cumsum(first) - 1
            # bincount accumulates in slot order like np.add.at (bit-
            # identical merge) but runs as one C loop, not a buffered
            # per-element scatter
            wsum = np.bincount(group, weights=weights, minlength=int(group[-1]) + 1)
            edges = np.column_stack([lo[first], hi[first]])
            weights = wsum
        # symmetrise: emit both directions then bucket by source
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        wgt = np.concatenate([weights, weights])
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        return cls(indptr, dst[order], wgt[order], vwgt, validate=False)

    @classmethod
    def from_scipy(cls, mat, vwgt: Optional[np.ndarray] = None) -> "CSRGraph":
        """Build from a scipy sparse matrix (pattern symmetrised, diagonal
        dropped, absolute values used as edge weights)."""
        import scipy.sparse as sp

        mat = sp.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise GraphError("adjacency matrix must be square")
        mat = abs(mat).maximum(abs(mat.T))  # symmetrise (no weight doubling)
        mat.setdiag(0)
        mat.eliminate_zeros()
        coo = mat.tocoo()
        keep = coo.row < coo.col
        edges = np.column_stack([coo.row[keep], coo.col[keep]]).astype(np.int64)
        w = np.abs(coo.data[keep]).astype(np.float64)
        w[w == 0] = 1.0
        return cls.from_edges(mat.shape[0], edges, w, vwgt)

    @classmethod
    def from_networkx(cls, g) -> "CSRGraph":
        """Build from a networkx graph (node labels relabelled 0..n-1)."""
        import networkx as nx

        g = nx.convert_node_labels_to_integers(g)
        n = g.number_of_nodes()
        edges = np.array([(u, v) for u, v in g.edges()], dtype=np.int64)
        w = np.array(
            [float(d.get("weight", 1.0)) for _, _, d in g.edges(data=True)],
            dtype=np.float64,
        )
        if edges.size == 0:
            edges = edges.reshape(0, 2)
            w = w.reshape(0)
        return cls.from_edges(n, edges, w)

    @classmethod
    def empty(cls, n: int = 0) -> "CSRGraph":
        """Graph with ``n`` isolated vertices."""
        return cls(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (half the stored adjacency length)."""
        return self.indices.shape[0] // 2

    @property
    def total_vertex_weight(self) -> float:
        return float(self.vwgt.sum())

    @property
    def total_edge_weight(self) -> float:
        """Sum of undirected edge weights."""
        return float(self.ewgt.sum()) / 2.0

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every vertex."""
        return np.diff(self.indptr)

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex."""
        return np.bincount(
            self.edge_sources(), weights=self.ewgt, minlength=self.num_vertices
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.ewgt[self.indptr[v] : self.indptr[v + 1]]

    def edge_sources(self) -> np.ndarray:
        """Source vertex for every directed adjacency slot (length 2m)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())

    def edge_list(self) -> Tuple[np.ndarray, np.ndarray]:
        """Undirected edge list ``(edges(m,2), weights(m,))`` with u < v."""
        src = self.edge_sources()
        keep = src < self.indices
        return (
            np.column_stack([src[keep], self.indices[keep]]),
            self.ewgt[keep],
        )

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield undirected edges ``(u, v, w)`` with ``u < v``."""
        edges, w = self.edge_list()
        for i in range(edges.shape[0]):
            yield int(edges[i, 0]), int(edges[i, 1]), float(w[i])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, vertices)`` where vertex ``i`` of ``sub``
        corresponds to ``vertices[i]`` of ``self`` (the second element is
        the sorted, de-duplicated id map).  ``vertices`` must hold
        integer ids; turn a boolean mask into ids with ``np.flatnonzero``.

        Only the selected rows are read.  Their slots are relabelled, the
        ``row < neighbour`` ones (each induced edge once, in CSR order)
        are kept, then symmetrised and bucketed by source with the same
        stable sort as :meth:`from_edges` — so the result is
        byte-identical to rebuilding the induced edge list.
        """
        vertices = np.asarray(vertices)
        if vertices.size and not np.issubdtype(vertices.dtype, np.integer):
            raise GraphError(
                f"subgraph vertex ids must be integers, got dtype "
                f"{vertices.dtype}; use np.flatnonzero(mask) for a mask"
            )
        vertices = vertices.astype(np.int64).ravel()
        if vertices.size > 1 and not np.all(vertices[1:] > vertices[:-1]):
            vertices = np.unique(vertices)
        nb = vertices.size
        if nb and (vertices[0] < 0 or vertices[-1] >= self.num_vertices):
            raise GraphError("subgraph vertex id out of range")
        inv = np.full(self.num_vertices, -1, dtype=np.int64)
        inv[vertices] = np.arange(nb)
        slots, counts, _ = self._row_slots(vertices)
        row = np.repeat(np.arange(nb, dtype=np.int64), counts)
        col = inv[self.indices[slots]]
        keep = row < col  # drops unselected neighbours (col = -1) too
        lo, hi, w = row[keep], col[keep], self.ewgt[slots[keep]]
        src = np.concatenate([lo, hi])
        indptr = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=nb), out=indptr[1:])
        order = np.argsort(src, kind="stable")
        sub = CSRGraph(indptr, np.concatenate([hi, lo])[order],
                       np.concatenate([w, w])[order], self.vwgt[vertices],
                       validate=False)
        return sub, vertices

    def _row_slots(self, rows: np.ndarray):
        """Adjacency slots of ``rows`` in row order, with the per-row
        slot counts and their running ends."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        slots = np.arange(int(ends[-1]) if rows.size else 0, dtype=np.int64)
        slots += np.repeat(starts - (ends - counts), counts)
        return slots, counts, ends

    def in_subgraph_order(self) -> bool:
        """Whether every row is already in :meth:`subgraph` slot order,
        i.e. ``self.subgraph(np.arange(n))[0]`` is this graph byte for
        byte.

        :meth:`subgraph` lists a row's ``row < neighbour`` slots first, in
        CSR order, then the other neighbours by ascending id, each with
        the weight of its mirrored slot.  This checks exactly that (no
        self loop, no repeated neighbour) with linear scans and one sort
        of the mirrored keys: about a third of the time of building the
        subgraph, and no copy.
        Graphs :meth:`from_edges` builds with ``dedupe=True`` pass, and so
        do :func:`read_metis` and :func:`~repro.coarsen.contract` graphs.
        """
        dst = self.indices
        if dst.size == 0:
            return True
        src = self.edge_sources()
        if np.any(src == dst):
            return False
        up = dst > src
        # inside a row: no upper slot after a lower one, and the lower
        # slots strictly ascend
        low_then = (src[1:] == src[:-1]) & ~up[:-1]
        if np.any(low_then & up[1:]) or np.any(low_then & (dst[1:] <= dst[:-1])):
            return False
        # so the lower keys ascend strictly; sorted, the mirrored upper
        # keys must equal them, weight for weight
        n = np.int64(max(self.num_vertices, 1))
        low = ~up
        lkey = (src * n + dst)[low]
        ukey = (dst * n + src)[up]
        if lkey.size != ukey.size:
            return False
        order = np.argsort(ukey)  # keys are distinct if they pass
        if not np.array_equal(ukey[order], lkey):
            return False
        return np.array_equal(self.ewgt[up][order].view(np.uint64),
                              self.ewgt[low].view(np.uint64))

    def filter_rows(
        self, vertices: np.ndarray, vwgt: Optional[np.ndarray] = None
    ) -> "CSRGraph":
        """Induced subgraph on sorted, distinct ``vertices`` by filtering
        their rows: each keeps its selected neighbours in place,
        relabelled.  ``vwgt`` replaces ``self.vwgt[vertices]``.

        On a graph :meth:`in_subgraph_order` this is
        ``self.subgraph(vertices)[0]`` byte for byte without its sort:
        the relabelling is monotone, so both halves of every row stay
        in order.
        """
        nb = vertices.shape[0]
        inv = np.full(self.num_vertices, -1, dtype=np.int64)
        inv[vertices] = np.arange(nb)
        slots, _, ends = self._row_slots(vertices)
        col = inv[self.indices[slots]]
        keep = col >= 0
        kept = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        indptr = np.zeros(nb + 1, dtype=np.int64)
        indptr[1:] = kept[ends]
        return CSRGraph(indptr, col[keep], self.ewgt[slots[keep]],
                        self.vwgt[vertices] if vwgt is None else vwgt,
                        validate=False)

    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``v`` is ``perm[v]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape[0] != self.num_vertices or np.unique(perm).size != perm.size:
            raise GraphError("perm must be a permutation of 0..n-1")
        edges, w = self.edge_list()
        new_vwgt = np.empty_like(self.vwgt)
        new_vwgt[perm] = self.vwgt
        if edges.shape[0]:
            edges = perm[edges]
        return CSRGraph.from_edges(self.num_vertices, edges, w, new_vwgt, dedupe=False)

    def connected_components(self) -> np.ndarray:
        """Component label per vertex (labels are 0..k-1, BFS order)."""
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        mat = self.to_scipy(pattern_only=True)
        _, labels = connected_components(mat, directed=False)
        return labels.astype(np.int64)

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        return int(self.connected_components().max()) == 0

    def largest_component(self) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on the largest connected component."""
        labels = self.connected_components()
        if labels.size == 0:
            return self, np.zeros(0, dtype=np.int64)
        big = np.argmax(np.bincount(labels))
        return self.subgraph(np.flatnonzero(labels == big))

    def to_scipy(self, pattern_only: bool = False):
        """Export as a scipy CSR matrix (symmetric)."""
        import scipy.sparse as sp

        data = (
            np.ones(self.indices.shape[0], dtype=np.float64)
            if pattern_only
            else self.ewgt
        )
        return sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        edges, w = self.edge_list()
        g.add_weighted_edges_from(
            (int(u), int(v), float(wt)) for (u, v), wt in zip(edges, w)
        )
        return g

    # ------------------------------------------------------------------
    # validation / dunder
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_vertices
        if n < 0:
            raise GraphError("indptr must have length >= 1")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be nondecreasing starting at 0")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphError("indptr[-1] must equal len(indices)")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphError("neighbour id out of range")
        if self.ewgt.shape[0] != self.indices.shape[0]:
            raise GraphError("ewgt must align with indices")
        if self.vwgt.shape[0] != n:
            raise GraphError("vwgt must have one entry per vertex")
        _check_finite(self.ewgt, "edge")
        _check_finite(self.vwgt, "vertex")
        if self.indices.shape[0] % 2 != 0:
            raise GraphError("adjacency length must be even (undirected graph)")
        src = self.edge_sources()
        if np.any(src == self.indices):
            raise GraphError("self loops are not allowed")
        # symmetry check: multiset of (u,v) equals multiset of (v,u)
        fwd = np.sort(src * np.int64(max(n, 1)) + self.indices)
        bwd = np.sort(self.indices * np.int64(max(n, 1)) + src)
        if not np.array_equal(fwd, bwd):
            raise GraphError("adjacency structure is not symmetric")

    def validate(self) -> None:
        """Public re-validation hook (raises :class:`GraphError`)."""
        self._validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"vwgt_total={self.total_vertex_weight:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        a, aw = self.edge_list()
        b, bw = other.edge_list()
        if a.shape != b.shape:
            return False
        ka = np.lexsort((a[:, 1], a[:, 0]))
        kb = np.lexsort((b[:, 1], b[:, 0]))
        return (
            np.array_equal(a[ka], b[kb])
            and np.allclose(aw[ka], bw[kb])
            and np.allclose(self.vwgt, other.vwgt)
        )

    __hash__ = None  # type: ignore[assignment]
