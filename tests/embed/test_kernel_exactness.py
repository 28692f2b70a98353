"""Bit-exactness of the optimised embedding kernels.

Every hot-path kernel rewritten for the million-vertex push (workspace
reuse, bincount scatters, blocked field sums, precomputed BH
interaction offsets) must produce output *bit-identical* to the
implementation it replaced — the pre-refactor bodies are kept as
``_reference`` functions for exactly this comparison.  Each kernel is
checked on several graph families, including degenerate ones (star hub,
isolated vertices), and with a shared workspace reused across repeated
calls (stale-buffer bugs only show up on the second call).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.embed import lattice
from repro.embed.box import Box
from repro.embed.fdl import (
    _force_directed_layout_reference,
    force_directed_layout,
)
from repro.embed.forces import (
    AttractiveWorkspace,
    _attractive_forces_reference,
    attractive_forces,
)
from repro.embed.lattice import (
    LatticeWorkspace,
    _beta_force_field_reference,
    _repulsive_forces_lattice_reference,
    beta_force_field,
    lattice_stats,
    repulsive_forces_lattice,
)
from repro.embed.multilevel import _lattice_kernel
from repro.embed.quadtree import (
    BHWorkspace,
    _repulsive_forces_bh_reference,
    repulsive_forces_bh,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay, star_graph


def _with_isolated(g: CSRGraph, extra: int = 5) -> CSRGraph:
    """Append ``extra`` isolated vertices (empty adjacency rows)."""
    n = g.num_vertices + extra
    indptr = np.concatenate(
        [g.indptr, np.full(extra, g.indptr[-1], dtype=np.int64)]
    )
    vwgt = np.concatenate([g.vwgt, np.ones(extra)])
    return CSRGraph(indptr, g.indices, ewgt=g.ewgt, vwgt=vwgt)


def _graph_cases():
    return [
        ("grid", grid2d(23, 19).graph),
        ("delaunay", random_delaunay(700, seed=11).graph),
        ("star", star_graph(301).graph),
        ("isolated", _with_isolated(grid2d(12, 12).graph)),
    ]


GRAPHS = _graph_cases()


def _pos_masses(g, seed=0):
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    pos = rng.random((n, 2)) * max(np.sqrt(n), 1.0)
    masses = 1.0 + rng.random(n)
    return pos, masses


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestAttractiveExactness:
    def test_matches_reference(self, name, g):
        pos, _ = _pos_masses(g)
        got = attractive_forces(g, pos, 1.3)
        ref = _attractive_forces_reference(g, pos, 1.3)
        assert np.array_equal(got, ref)

    def test_workspace_reuse_is_stable(self, name, g):
        ws = AttractiveWorkspace()
        for seed in range(3):
            pos, _ = _pos_masses(g, seed)
            got = attractive_forces(g, pos, 0.8, workspace=ws)
            ref = _attractive_forces_reference(g, pos, 0.8)
            assert np.array_equal(got, ref)


def _bits_equal(a, b) -> bool:
    """Bitwise equality: unlike ``array_equal`` it tells −0.0 from +0.0."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def _corner(pos):
    """Squeeze every point into one corner of its original box, so most
    lattice cells over that box are empty."""
    lo = pos.min(axis=0)
    return lo + (pos - lo) * 0.1


# s = 40 (B = 1,600): the larger graphs occupy hundreds of cells, so the
# field spans several blocks and the last one is partial
@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("s", [3, 8, 17, 40])
class TestLatticeExactness:
    def test_forces_match_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        ws = LatticeWorkspace()
        for seed in range(2):  # reuse the workspace across calls
            pos, masses = _pos_masses(g, seed)
            got = repulsive_forces_lattice(
                pos, masses, 0.2, 1.1, box=box, s=s, workspace=ws
            )
            ref = _repulsive_forces_lattice_reference(
                pos, masses, 0.2, 1.1, box=box, s=s
            )
            assert _bits_equal(got, ref)

    def test_field_matches_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        stats = lattice_stats(pos, masses, box, s)
        ws = LatticeWorkspace()
        got = beta_force_field(stats, 0.2, 1.1, workspace=ws)
        ref = _beta_force_field_reference(stats, 0.2, 1.1)
        assert _bits_equal(got, ref)

    def test_sparse_corner_matches_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        pos = _corner(pos)
        stats = lattice_stats(pos, masses, box, s)
        got = beta_force_field(stats, 0.2, 1.1)
        assert _bits_equal(got, _beta_force_field_reference(stats, 0.2, 1.1))
        got = repulsive_forces_lattice(pos, masses, 0.2, 1.1, box=box, s=s)
        ref = _repulsive_forces_lattice_reference(
            pos, masses, 0.2, 1.1, box=box, s=s
        )
        assert _bits_equal(got, ref)

    def test_workspace_shrinks_from_large_lattice(self, name, g, s):
        # grown at s = 64 (B = 4,096), then reused at the smaller s
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        ws = LatticeWorkspace()
        for side in (64, s):
            got = repulsive_forces_lattice(
                pos, masses, 0.2, 1.1, box=box, s=side, workspace=ws
            )
            ref = _repulsive_forces_lattice_reference(
                pos, masses, 0.2, 1.1, box=box, s=side
            )
            assert _bits_equal(got, ref)


@pytest.mark.parametrize("block_elems", [1, 7, 1000])
def test_field_block_boundaries(monkeypatch, block_elems):
    """Tiny blocks walk many block boundaries, full and partial."""
    monkeypatch.setattr(lattice, "_BLOCK_ELEMS", block_elems)
    g = random_delaunay(700, seed=11).graph
    ws = LatticeWorkspace()
    for seed, s in ((0, 17), (1, 40), (2, 9)):
        pos, masses = _pos_masses(g, seed)
        box = Box.of_points(pos).expanded(1.05)
        if seed == 1:
            pos = _corner(pos)
        stats = lattice_stats(pos, masses, box, s)
        got = beta_force_field(stats, 0.2, 1.1, workspace=ws)
        assert _bits_equal(got, _beta_force_field_reference(stats, 0.2, 1.1))


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestBarnesHutExactness:
    def test_matches_reference(self, name, g):
        ws = BHWorkspace()
        for seed in range(2):
            pos, masses = _pos_masses(g, seed)
            got = repulsive_forces_bh(pos, masses, 0.2, 1.1, workspace=ws)
            ref = _repulsive_forces_bh_reference(pos, masses, 0.2, 1.1)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestLayoutLoopExactness:
    def test_lattice_smoothing_matches_reference(self, name, g):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        kern = partial(_lattice_kernel, box=box, s=8, ws=LatticeWorkspace())
        got = force_directed_layout(
            g, pos, masses=masses, max_iters=6, step0=1.0, repulsion=kern
        )
        ref = _force_directed_layout_reference(
            g, pos, masses=masses, max_iters=6, step0=1.0, repulsion=kern
        )
        assert np.array_equal(got.pos, ref.pos)
        assert got.final_energy == ref.final_energy
        assert got.iterations == ref.iterations
        assert got.final_step == ref.final_step

    def test_auto_repulsion_matches_reference(self, name, g):
        pos, masses = _pos_masses(g, 4)
        got = force_directed_layout(g, pos, masses=masses, max_iters=4)
        ref = _force_directed_layout_reference(
            g, pos, masses=masses, max_iters=4
        )
        assert np.array_equal(got.pos, ref.pos)

    def test_fixed_vertices_match_reference(self, name, g):
        pos, masses = _pos_masses(g, 5)
        fixed = np.zeros(g.num_vertices, dtype=bool)
        fixed[:: max(1, g.num_vertices // 7)] = True
        got = force_directed_layout(
            g, pos, masses=masses, max_iters=4, fixed=fixed
        )
        ref = _force_directed_layout_reference(
            g, pos, masses=masses, max_iters=4, fixed=fixed
        )
        assert np.array_equal(got.pos, ref.pos)
