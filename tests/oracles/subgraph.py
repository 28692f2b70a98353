"""Oracle for :meth:`repro.graph.csr.CSRGraph.subgraph`.

The edge-list body the CSR-sliced kernel replaced: the whole graph's
``edge_list()`` is filtered to edges with both ends selected, relabelled
and rebuilt with ``from_edges``.  The production method must return a
byte-identical graph: same ``indptr``, slot order, edge and vertex
weights.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def subgraph_reference(graph: CSRGraph, vertices: np.ndarray):
    """Pre-optimisation induced subgraph; returns ``(sub, ids)``."""
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if vertices.size and (vertices[0] < 0 or vertices[-1] >= graph.num_vertices):
        raise GraphError("subgraph vertex id out of range")
    inv = np.full(graph.num_vertices, -1, dtype=np.int64)
    inv[vertices] = np.arange(vertices.size)
    edges, w = graph.edge_list()
    if edges.shape[0]:
        keep = (inv[edges[:, 0]] >= 0) & (inv[edges[:, 1]] >= 0)
        edges, w = inv[edges[keep]], w[keep]
    sub = CSRGraph.from_edges(
        vertices.size, edges, w, graph.vwgt[vertices], dedupe=False
    )
    return sub, vertices
