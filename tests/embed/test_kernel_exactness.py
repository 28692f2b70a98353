"""Bit-exactness of the optimised embedding kernels.

Every hot-path kernel rewritten for the million-vertex push (workspace
reuse, bincount scatters, blocked field sums, the flat point-blocked
Barnes–Hut far field) must produce output *bit-identical* to the
implementation it replaced — the pre-refactor bodies are kept as
``*_reference`` oracles in :mod:`tests.oracles` for exactly this
comparison.  Each kernel is checked on several graph
families, including degenerate ones (star hub, isolated vertices), and
with a shared workspace reused across repeated calls (stale-buffer bugs
only show up on the second call).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.embed import lattice, quadtree
from repro.embed.box import Box
from repro.embed.fdl import force_directed_layout
from repro.embed.forces import (
    AttractiveWorkspace,
    attractive_forces,
    repulsive_forces_exact,
)
from repro.embed.lattice import (
    LatticeWorkspace,
    beta_force_field,
    lattice_stats,
    repulsive_forces_lattice,
)
from repro.embed.multilevel import _lattice_kernel
from repro.embed.quadtree import _EXACT_CUTOFF, repulsive_forces_bh
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid2d, random_delaunay, star_graph
from tests.oracles.barnes_hut import repulsive_forces_bh_reference
from tests.oracles.embed import (
    attractive_forces_reference,
    beta_force_field_reference,
    force_directed_layout_reference,
    repulsive_forces_exact_reference,
    repulsive_forces_lattice_reference,
)


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
        ref = attractive_forces_reference(g, pos, 1.3)
        assert np.array_equal(got, ref)

    def test_workspace_reuse_is_stable(self, name, g):
        ws = AttractiveWorkspace()
        for seed in range(3):
            pos, _ = _pos_masses(g, seed)
            got = attractive_forces(g, pos, 0.8, workspace=ws)
            ref = attractive_forces_reference(g, pos, 0.8)
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
            ref = repulsive_forces_lattice_reference(
                pos, masses, 0.2, 1.1, box=box, s=s
            )
            assert _bits_equal(got, ref)

    def test_field_matches_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        stats = lattice_stats(pos, masses, box, s)
        ws = LatticeWorkspace()
        got = beta_force_field(stats, 0.2, 1.1, workspace=ws)
        ref = beta_force_field_reference(stats, 0.2, 1.1)
        assert _bits_equal(got, ref)

    def test_sparse_corner_matches_reference(self, name, g, s):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        pos = _corner(pos)
        stats = lattice_stats(pos, masses, box, s)
        got = beta_force_field(stats, 0.2, 1.1)
        assert _bits_equal(got, beta_force_field_reference(stats, 0.2, 1.1))
        got = repulsive_forces_lattice(pos, masses, 0.2, 1.1, box=box, s=s)
        ref = repulsive_forces_lattice_reference(
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
            ref = repulsive_forces_lattice_reference(
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
        assert _bits_equal(got, beta_force_field_reference(stats, 0.2, 1.1))


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestBarnesHutExactness:
    def test_matches_reference(self, name, g):
        for seed in range(2):
            pos, masses = _pos_masses(g, seed)
            got = repulsive_forces_bh(pos, masses, 0.2, 1.1)
            ref = repulsive_forces_bh_reference(pos, masses, 0.2, 1.1)
            assert _bits_equal(got, ref)


def _clustered(n=925, seed=0):
    """The shape of a coarsest production layout: tight clumps of 5–50
    points, each inside one finest cell, plus a sparse scatter, so most
    finest-level cells are empty."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(5, 50, size=40)
    sizes = sizes[np.cumsum(sizes) <= n - 100]
    centres = rng.random((sizes.size, 2)) * 40.0
    clumps = np.repeat(centres, sizes, axis=0)
    clumps += rng.normal(scale=0.05, size=clumps.shape)
    scatter = rng.random((n - clumps.shape[0], 2)) * 40.0
    return np.vstack([clumps, scatter]), rng.integers(1, 9, size=n) * 1.0


def _bh_cases():
    rng = np.random.default_rng(7)
    cases = {}
    cases["clustered"] = _clustered()
    cases["clustered-1k5"] = _clustered(1_500, seed=1)
    n = _EXACT_CUTOFF + 1
    cases["cutoff+1"] = (rng.random((n, 2)) * 11.0, 1.0 + rng.random(n))
    pos, masses = rng.random((600, 2)) * 25.0, 1.0 + rng.random(600)
    masses[rng.random(600) < 0.3] = 0.0
    cases["zero-mass"] = (pos, masses)
    pos = rng.random((400, 2)) * 20.0
    cases["duplicates"] = (np.vstack([pos, pos[:150], pos[:50]]), np.ones(600))
    cases["flat-y"] = (np.column_stack([rng.random(500) * 30.0, np.full(500, 2.5)]),
                       1.0 + rng.random(500))
    cases["flat-x"] = (np.column_stack([np.full(500, -4.0), rng.random(500)]),
                       1.0 + rng.random(500))
    return cases


BH_CASES = _bh_cases()


@pytest.mark.parametrize("case", sorted(BH_CASES))
def test_bh_matches_oracle(case):
    pos, masses = BH_CASES[case]
    got = repulsive_forces_bh(pos, masses, 0.2, 1.1)
    assert _bits_equal(got, repulsive_forces_bh_reference(pos, masses, 0.2, 1.1))


def _exact_cases():
    """Inputs at and around the exact kernel's sizes: the coarsest
    layouts of the simulated sweep have 160 and 188 points, and
    ``repulsion="auto"`` takes it up to 600 points."""
    rng = np.random.default_rng(13)
    cases = {n: (rng.random((n, 2)) * 9.0, 1.0 + rng.random(n))
             for n in (1, 2, 3, 37, 300)}
    for n in (160, 188, 500):
        cases[f"clustered-{n}"] = _clustered(n, seed=2)
    pos = rng.normal(size=(256, 2)) * 1e-7
    cases["tiny-scale"] = (pos, rng.integers(1, 5, size=256) * 1.0)
    pos = rng.random((200, 2)) * 5.0
    cases["coincident"] = (np.vstack([pos[:120], np.repeat(pos[:1], 80, 0)]),
                           1.0 + rng.random(200))
    masses = 1.0 + rng.random(300)
    masses[rng.random(300) < 0.4] = 0.0
    cases["zero-mass"] = (rng.random((300, 2)) * 7.0, masses)
    pos = rng.random((150, 2)) * 4.0 - 2.0
    pos[rng.random((150, 2)) < 0.3] = -0.0
    cases["signed-zeros"] = (pos, np.zeros(150))
    for name in ("duplicates", "flat-x", "flat-y"):
        cases[name] = BH_CASES[name]
    return cases


EXACT_CASES = _exact_cases()


@pytest.mark.parametrize("case", sorted(EXACT_CASES, key=str))
@pytest.mark.parametrize("c,k", [(0.2, 1.0), (0.2, 1.1), (1.0, 0.3)])
def test_exact_matches_oracle(case, c, k):
    pos, masses = EXACT_CASES[case]
    got = repulsive_forces_exact(pos, masses, c, k)
    assert _bits_equal(got, repulsive_forces_exact_reference(pos, masses, c, k))
    # unit masses take the default path
    got = repulsive_forces_exact(pos, None, c, k)
    assert _bits_equal(got, repulsive_forces_exact_reference(pos, None, c, k))


@pytest.mark.parametrize("block_elems", [1, 500, 4_099])
def test_bh_block_boundaries(monkeypatch, block_elems):
    """Tiny budgets split the far field into many point blocks, down to
    one point per block, with the last block overlapping the one before."""
    monkeypatch.setattr(quadtree, "_BLOCK_ELEMS", block_elems)
    for case in ("clustered", "zero-mass", "duplicates"):
        pos, masses = BH_CASES[case]
        got = repulsive_forces_bh(pos, masses, 0.2, 1.1)
        ref = repulsive_forces_bh_reference(pos, masses, 0.2, 1.1)
        assert _bits_equal(got, ref), case


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestLayoutLoopExactness:
    def test_lattice_smoothing_matches_reference(self, name, g):
        pos, masses = _pos_masses(g)
        box = Box.of_points(pos).expanded(1.05)
        kern = partial(_lattice_kernel, box=box, s=8, ws=LatticeWorkspace())
        got = force_directed_layout(
            g, pos, masses=masses, max_iters=6, step0=1.0, repulsion=kern
        )
        ref = force_directed_layout_reference(
            g, pos, masses=masses, max_iters=6, step0=1.0, repulsion=kern
        )
        assert np.array_equal(got.pos, ref.pos)
        assert got.final_energy == ref.final_energy
        assert got.iterations == ref.iterations
        assert got.final_step == ref.final_step

    def test_auto_repulsion_matches_reference(self, name, g):
        pos, masses = _pos_masses(g, 4)
        got = force_directed_layout(g, pos, masses=masses, max_iters=4)
        ref = force_directed_layout_reference(
            g, pos, masses=masses, max_iters=4
        )
        assert np.array_equal(got.pos, ref.pos)
