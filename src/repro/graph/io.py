"""Graph file I/O: METIS/Chaco graph format, edge lists, coordinates.

The METIS ``.graph`` format is the lingua franca of the partitioning
community (ParMetis, Scotch and Zoltan all read it), so the reproduction
reads and writes it: downstream users can partition their own graphs
with the examples in ``examples/``.

Format recap (see the METIS 5 manual):

* first non-comment line: ``n m [fmt [ncon]]`` where ``m`` counts
  *undirected* edges; ``fmt`` is a 3-digit flag string ``[vwgts?][vsize?]
  [ewgts?]`` — we support ``0``/``1``/``10``/``11``/``100``/``101``...
  restricted to vertex and edge weights (no vsize, ncon = 1),
* line ``i`` (1-based): optional vertex weight, then pairs/ids of
  neighbours (1-based), each followed by its weight when ``fmt`` ends
  in 1.  A blank vertex line is a vertex with no neighbours.
* lines starting with ``%`` are comments.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph

__all__ = [
    "read_metis",
    "write_metis",
    "read_edgelist",
    "write_edgelist",
    "read_coords",
    "write_coords",
]

PathLike = Union[str, Path]

_UINT = re.compile(r"[0-9]+")
_FMT = re.compile(r"[01]{1,3}")


def _open(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode), True
    return path_or_file, False


class _EdgeBuffer:
    """Doubling-capacity edge accumulator (the streaming reader's "growing
    CSR arrays"): holds only numeric data, never the file text."""

    __slots__ = ("srcs", "dsts", "wgts", "size")

    def __init__(self, cap: int = 1024) -> None:
        self.srcs = np.empty(cap, dtype=np.int64)
        self.dsts = np.empty(cap, dtype=np.int64)
        self.wgts = np.empty(cap, dtype=np.float64)
        self.size = 0

    def append(self, srcs: np.ndarray, dsts: np.ndarray, wgts: np.ndarray) -> None:
        need = self.size + srcs.size
        if need > self.srcs.size:
            cap = max(need, 2 * self.srcs.size)
            for name in ("srcs", "dsts", "wgts"):
                old = getattr(self, name)
                grown = np.empty(cap, dtype=old.dtype)
                grown[: self.size] = old[: self.size]
                setattr(self, name, grown)
        self.srcs[self.size : need] = srcs
        self.dsts[self.size : need] = dsts
        self.wgts[self.size : need] = wgts
        self.size = need


def _uncommented_lines(fh):
    """Yield stripped lines, skipping ``%`` comments anywhere in the
    file.  Blank lines are kept: in the vertex section a blank line is a
    vertex with no neighbours."""
    for ln in fh:
        ln = ln.strip()
        if not ln.startswith("%"):
            yield ln


def _parse_chunk(chunk, v0, n, has_vwgt, has_ewgt, vwgt, buf: _EdgeBuffer) -> None:
    """Tokenise a block of vertex lines into float values and extract the
    vertex weights / neighbour ids / edge weights with array arithmetic."""
    counts = np.empty(len(chunk), dtype=np.int64)
    toks: list = []
    for i, ln in enumerate(chunk):
        t = ln.split()
        counts[i] = len(t)
        toks.extend(t)
    try:
        vals = np.array(toks, dtype=np.float64)
    except ValueError as exc:
        raise GraphError(f"non-numeric token in vertex lines: {exc}") from None
    starts = np.concatenate([[0], np.cumsum(counts)])
    if has_vwgt:
        if (counts == 0).any():
            bad = int(np.argmax(counts == 0))
            raise GraphError(f"missing vertex weight on line {v0 + bad + 2}")
        vwgt[v0 : v0 + len(chunk)] = vals[starts[:-1]]
        is_vw = np.zeros(vals.size, dtype=bool)
        is_vw[starts[:-1]] = True
        rest = vals[~is_vw]
        rest_cnt = counts - 1
    else:
        rest = vals
        rest_cnt = counts
    if has_ewgt:
        if (rest_cnt % 2).any():
            bad = int(np.argmax(rest_cnt % 2 != 0))
            raise GraphError(f"odd token count with edge weights on line {v0 + bad + 2}")
        off = np.arange(rest.size) - np.repeat(
            np.cumsum(rest_cnt) - rest_cnt, rest_cnt
        )
        nbrs = rest[off % 2 == 0]
        wgts = rest[off % 2 == 1]
        deg = rest_cnt >> 1
    else:
        nbrs = rest
        wgts = np.ones(rest.size, dtype=np.float64)
        deg = rest_cnt
    dsts = nbrs.astype(np.int64) - 1
    if (dsts + 1 != nbrs).any():
        raise GraphError("non-integer neighbor id in vertex lines")
    if (dsts < 0).any() or (dsts >= n).any():
        raise GraphError(f"neighbor id out of range 1..{n}")
    srcs = np.repeat(np.arange(v0, v0 + len(chunk), dtype=np.int64), deg)
    keep = srcs < dsts  # undirected: keep each pair once
    buf.append(srcs[keep], dsts[keep], wgts[keep])


def _parse_header(line: str):
    """``n m [fmt [ncon]]`` -> ``(n, m, has_vwgt, has_ewgt)``; every
    malformed field raises a GraphError quoting the header."""
    fields = line.split()
    if len(fields) < 2:
        raise GraphError(f"bad METIS header: {line!r}")
    if len(fields) > 4:
        raise GraphError(f"bad METIS header {line!r}: expected at most 4 "
                         f"fields (n m fmt ncon), got {len(fields)}")
    for name, tok in zip(("n", "m", "ncon"), fields[:2] + fields[3:4]):
        if not _UINT.fullmatch(tok):
            raise GraphError(f"bad METIS header {line!r}: {name} must be a "
                             f"non-negative integer, got {tok!r}")
    fmt = fields[2] if len(fields) > 2 else "0"
    if not _FMT.fullmatch(fmt):
        raise GraphError(f"bad METIS header {line!r}: fmt must be up to "
                         f"three 0/1 digits, got {fmt!r}")
    if len(fmt) == 3 and fmt[0] == "1":
        raise GraphError("vertex sizes (fmt=1xx) are not supported")
    if len(fields) > 3 and int(fields[3]) != 1:
        raise GraphError("only ncon=1 is supported")
    return int(fields[0]), int(fields[1]), fmt[-2:-1] == "1", fmt[-1] == "1"


def read_metis(
    path_or_file: Union[PathLike, TextIO], *, chunk_lines: int = 65536
) -> CSRGraph:
    """Read a graph in METIS format, streaming ``chunk_lines`` vertex
    lines at a time.

    Only one chunk of text is resident at once — the reader never
    materialises the file in a Python list — so million-vertex graphs
    load in memory proportional to the edge arrays, not ~2× the text
    size (DESIGN §11).  A blank line among the ``n`` vertex lines is a
    vertex with no neighbours, as in METIS; blank lines before the
    header or after the ``n``-th vertex line, and ``%`` comments
    anywhere, are skipped.
    """
    if chunk_lines < 1:
        raise GraphError("chunk_lines must be >= 1")
    fh, owned = _open(path_or_file, "r")
    try:
        lines = _uncommented_lines(fh)
        header_line = next((ln for ln in lines if ln), None)
        if header_line is None:
            raise GraphError("empty METIS file")
        n, m, has_vwgt, has_ewgt = _parse_header(header_line)
        vwgt = np.ones(n, dtype=np.float64)
        buf = _EdgeBuffer()
        seen = 0
        chunk: list = []
        for ln in lines:
            if seen + len(chunk) == n:
                if ln:
                    raise GraphError(f"expected {n} vertex lines, found more")
                continue
            chunk.append(ln)
            if len(chunk) == chunk_lines:
                _parse_chunk(chunk, seen, n, has_vwgt, has_ewgt, vwgt, buf)
                seen += len(chunk)
                chunk = []
        if chunk:
            _parse_chunk(chunk, seen, n, has_vwgt, has_ewgt, vwgt, buf)
            seen += len(chunk)
        if seen != n:
            raise GraphError(f"expected {n} vertex lines, found {seen}")
    finally:
        if owned:
            fh.close()
    if buf.size:
        edges = np.column_stack([buf.srcs[: buf.size], buf.dsts[: buf.size]])
        g = CSRGraph.from_edges(n, edges, buf.wgts[: buf.size], vwgt, dedupe=True)
    else:
        g = CSRGraph(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), vwgt=vwgt)
    if g.num_edges != m:
        raise GraphError(f"METIS header declares {m} edges, file has {g.num_edges}")
    return g


def write_metis(
    graph: CSRGraph,
    path_or_file: Union[PathLike, TextIO],
    *,
    vertex_weights: bool = False,
    edge_weights: bool = False,
) -> None:
    """Write a graph in METIS format.

    Weights are written as integers (METIS requires it); float weights
    are rounded and must be >= 1 after rounding.
    """
    fh, owned = _open(path_or_file, "w")
    try:
        fmt = f"{int(vertex_weights)}{int(edge_weights)}"
        header = f"{graph.num_vertices} {graph.num_edges}"
        if fmt != "00":
            header += f" {fmt.lstrip('0') or '0'}" if fmt != "10" else " 10"
        fh.write(header + "\n")
        for v in range(graph.num_vertices):
            parts = []
            if vertex_weights:
                parts.append(str(max(1, int(round(graph.vwgt[v])))))
            nbrs = graph.neighbors(v)
            ws = graph.edge_weights_of(v)
            for u, w in zip(nbrs, ws):
                parts.append(str(int(u) + 1))
                if edge_weights:
                    parts.append(str(max(1, int(round(w)))))
            fh.write(" ".join(parts) + "\n")
    finally:
        if owned:
            fh.close()


def read_edgelist(path_or_file: Union[PathLike, TextIO], n: Optional[int] = None) -> CSRGraph:
    """Read a whitespace edge list ``u v [w]`` (0-based ids, ``#`` comments)."""
    fh, owned = _open(path_or_file, "r")
    try:
        rows = []
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if ln:
                rows.append(ln.split())
    finally:
        if owned:
            fh.close()
    if not rows:
        return CSRGraph.empty(n or 0)
    us = np.array([int(r[0]) for r in rows], dtype=np.int64)
    vs = np.array([int(r[1]) for r in rows], dtype=np.int64)
    ws = np.array([float(r[2]) if len(r) > 2 else 1.0 for r in rows])
    nn = n if n is not None else int(max(us.max(), vs.max())) + 1
    return CSRGraph.from_edges(nn, np.column_stack([us, vs]), ws)


def write_edgelist(graph: CSRGraph, path_or_file: Union[PathLike, TextIO]) -> None:
    """Write the undirected edge list ``u v w`` (0-based)."""
    fh, owned = _open(path_or_file, "w")
    try:
        edges, w = graph.edge_list()
        for i in range(edges.shape[0]):
            fh.write(f"{edges[i, 0]} {edges[i, 1]} {w[i]:g}\n")
    finally:
        if owned:
            fh.close()


def read_coords(path_or_file: Union[PathLike, TextIO]) -> np.ndarray:
    """Read per-vertex coordinates, one ``x y [z]`` line per vertex."""
    fh, owned = _open(path_or_file, "r")
    try:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    finally:
        if owned:
            fh.close()
    if not rows:
        return np.zeros((0, 2))
    return np.array([[float(x) for x in r] for r in rows], dtype=np.float64)


def write_coords(coords: np.ndarray, path_or_file: Union[PathLike, TextIO]) -> None:
    fh, owned = _open(path_or_file, "w")
    try:
        for row in np.asarray(coords, dtype=np.float64):
            fh.write(" ".join(f"{x:.10g}" for x in row) + "\n")
    finally:
        if owned:
            fh.close()
