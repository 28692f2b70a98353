"""Oracle for :func:`repro.graph.io.read_metis`.

The reader the chunked streaming one replaced: it materialises every
content line and walks the edges in a Python loop.  On every well-formed
file the streaming reader must return an identical graph at every chunk
boundary.
"""

from __future__ import annotations

from typing import TextIO, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.io import PathLike, _open


def read_metis_reference(path_or_file: Union[PathLike, TextIO]) -> CSRGraph:
    """Pre-streaming reader: materialises every line, per-edge Python
    loop.  It skips blank lines, so it only reads graphs without
    isolated vertices (a blank vertex line is one)."""
    fh, owned = _open(path_or_file, "r")
    try:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("%")]
    finally:
        if owned:
            fh.close()
    if not lines:
        raise GraphError("empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphError(f"bad METIS header: {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    has_ewgt = fmt.endswith("1")
    has_vwgt = len(fmt) >= 2 and fmt[-2] == "1"
    if len(fmt) >= 3 and fmt[-3] == "1":
        raise GraphError("vertex sizes (fmt=1xx) are not supported")
    if len(header) > 3 and int(header[3]) != 1:
        raise GraphError("only ncon=1 is supported")
    if len(lines) - 1 != n:
        raise GraphError(f"expected {n} vertex lines, found {len(lines) - 1}")
    vwgt = np.ones(n, dtype=np.float64)
    srcs, dsts, wgts = [], [], []
    for v, line in enumerate(lines[1:]):
        tok = line.split()
        pos = 0
        if has_vwgt:
            if not tok:
                raise GraphError(f"missing vertex weight on line {v + 2}")
            vwgt[v] = float(tok[0])
            pos = 1
        rest = tok[pos:]
        if has_ewgt:
            if len(rest) % 2:
                raise GraphError(f"odd token count with edge weights on line {v + 2}")
            nbrs = rest[0::2]
            ws = rest[1::2]
        else:
            nbrs = rest
            ws = ["1"] * len(rest)
        for u, w in zip(nbrs, ws):
            srcs.append(v)
            dsts.append(int(u) - 1)
            wgts.append(float(w))
    if srcs:
        edges = np.column_stack(
            [np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)]
        )
        keep = edges[:, 0] < edges[:, 1]
        g = CSRGraph.from_edges(
            n, edges[keep], np.asarray(wgts)[keep], vwgt, dedupe=True
        )
    else:
        g = CSRGraph(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), vwgt=vwgt)
    if g.num_edges != m:
        raise GraphError(f"METIS header declares {m} edges, file has {g.num_edges}")
    return g
