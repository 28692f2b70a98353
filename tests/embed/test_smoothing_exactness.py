"""Byte-identity of the distributed smoothing step with its oracle.

:func:`repro.embed.parallel._smooth_level` computes its per-slot and
per-vertex vectors column-wise into one reused coordinate buffer; the
oracle in :mod:`tests.oracles.embed` is the step it replaced, which
stacked owned and ghost rows every iteration and summed ``(m, 2)``
arrays along their short axis.  Installed in place of the production
step, the oracle must give the same coordinates, the same ledger and
the same simulated clocks, at every rank count, on meshes and grids,
on coincident starting points and with zero vertex masses.  A whole
distributed ScalaPart run with all three rewritten kernels (smoothing,
exact repulsion, Radon reduction) swapped back for their oracles must
give the same partition and ledger.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.rcb import rcb_grid_map
from repro.core import run_parallel
from repro.embed import parallel as emb
from repro.embed.parallel import _smooth_level, dist_multilevel_embedding
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import QDR_CLUSTER, run_spmd
from repro.parallel.topology import ProcessGrid, grid_dims
from tests.conftest import ledger_fingerprint
from tests.oracles.embed import (
    repulsive_forces_exact_reference,
    smooth_level_reference,
)
from tests.oracles.geometric import approx_centerpoint_reference


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).view(np.int64).tobytes()


def _assert_same_run(new, ref):
    assert json.dumps(ledger_fingerprint(new.comm_stats)) == json.dumps(
        ledger_fingerprint(ref.comm_stats))
    assert np.asarray(new.clocks).tobytes() == np.asarray(ref.clocks).tobytes()


def _both(monkeypatch, prog, p):
    """``prog`` run with the production step, then with the oracle."""
    new = run_spmd(prog, p, machine=QDR_CLUSTER, seed=1)
    with monkeypatch.context() as m:
        m.setattr(emb, "_smooth_level", smooth_level_reference)
        ref = run_spmd(prog, p, machine=QDR_CLUSTER, seed=1)
    return new, ref


GRAPHS = {
    "mesh": lambda: random_delaunay(900, seed=4).graph,
    "grid": lambda: grid2d(31, 29).graph,
}


@pytest.mark.parametrize("p", [1, 2, 4, 16])
@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_embedding_matches_oracle(monkeypatch, kind, p):
    g = GRAPHS[kind]()

    def prog(comm):
        return (yield from dist_multilevel_embedding(
            comm, g, smooth_iters=9, block_size=3, seed=11))

    new, ref = _both(monkeypatch, prog, p)
    (pos, info), (rpos, rinfo) = new.values[0], ref.values[0]
    assert _bits(pos) == _bits(rpos)
    assert info == rinfo
    _assert_same_run(new, ref)


def _level_prog(g: CSRGraph, pos: np.ndarray, p: int, smooth):
    rows, cols = grid_dims(p)
    row, col = rcb_grid_map(pos, np.ones(g.num_vertices), rows, cols)
    owner = (row * cols + col).astype(np.int32)

    def prog(comm):
        return (yield from smooth(comm, g, pos, owner, ProcessGrid(rows, cols),
                                  iters=7, block_size=2, k=1.3))

    return prog


def _level_cases():
    rng = np.random.default_rng(5)
    g = random_delaunay(500, seed=8).graph
    n = g.num_vertices
    spread = rng.random((n, 2)) * 20.0
    coincident = spread.copy()
    coincident[: n // 2] = coincident[0]
    signed = spread.copy()
    signed[rng.random((n, 2)) < 0.3] = -0.0
    vwgt = 1.0 + rng.random(n)
    vwgt[rng.random(n) < 0.4] = 0.0
    zero_mass = CSRGraph(g.indptr, g.indices, g.ewgt, vwgt)
    massless = CSRGraph(g.indptr, g.indices, g.ewgt, np.zeros(n))
    return {
        "spread": (g, spread),
        "coincident": (g, coincident),
        "all-coincident": (g, np.full((n, 2), -0.0)),
        "signed-zeros": (g, signed),
        "zero-mass": (zero_mass, spread),
        "massless": (massless, coincident),
    }


LEVEL_CASES = _level_cases()


@pytest.mark.parametrize("p", [1, 2, 4, 16])
@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_level_matches_oracle(case, p):
    g, pos = LEVEL_CASES[case]
    new = run_spmd(_level_prog(g, pos, p, _smooth_level), p,
                   machine=QDR_CLUSTER, seed=1)
    ref = run_spmd(_level_prog(g, pos, p, smooth_level_reference), p,
                   machine=QDR_CLUSTER, seed=1)
    assert _bits(new.values[0]) == _bits(ref.values[0])
    _assert_same_run(new, ref)


def _install_oracles(m):
    """Every kernel a distributed ScalaPart run rewrote, back to its
    oracle: the smoothing step, the exact repulsion (the coarsest
    layout, and Barnes–Hut's small-n path) and the Radon reduction."""
    from repro.embed import fdl, quadtree
    from repro.geometric import parallel as geo

    m.setattr(emb, "_smooth_level", smooth_level_reference)
    m.setattr(fdl, "repulsive_forces_exact", repulsive_forces_exact_reference)
    m.setattr(quadtree, "repulsive_forces_exact",
              repulsive_forces_exact_reference)
    m.setattr(geo, "approx_centerpoint", approx_centerpoint_reference)


@pytest.mark.parametrize("p", [1, 2, 4, 16])
def test_scalapart_run_matches_oracles(monkeypatch, p):
    g = random_delaunay(1200, seed=6).graph
    new = run_parallel("ScalaPart", g, p, seed=3)
    with monkeypatch.context() as m:
        _install_oracles(m)
        ref = run_parallel("ScalaPart", g, p, seed=3)
    assert new.parts.tobytes() == ref.parts.tobytes()
    assert new.cut_size == ref.cut_size
    assert new.stage_seconds == ref.stage_seconds
    for key in ("levels", "sizes", "smooth_iterations"):
        assert new.extras[key] == ref.extras[key]
    assert json.dumps(ledger_fingerprint(new.extras["comm_stats"])) == json.dumps(
        ledger_fingerprint(ref.extras["comm_stats"]))
