"""The nine-graph evaluation suite (Table 1 analogues).

The paper's Table 1 lists nine UFL graphs with 1–21 M vertices.  The
exact matrices are unavailable offline, so each entry here is a scaled
synthetic analogue with matching *character* (see DESIGN.md §2).  Every
entry records the paper's N and M (in millions) so the benchmark
harness can print Table 1 with both paper and reproduction sizes.

A global ``scale`` knob shrinks or grows the whole suite; the default
``scale=1.0`` sizes (roughly 8k–36k vertices) let the entire SC'13
evaluation — every method × graph × processor count — run in minutes on
a laptop while preserving the quality/time *relationships* the paper
reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import GraphError
from ..rng import DEFAULT_SEED, SeedLike, derive_seed
from . import generators as gen
from .generators import GeneratedGraph

__all__ = ["SuiteEntry", "SUITE", "LARGE4", "suite_names", "build", "build_suite"]


@dataclass(frozen=True)
class SuiteEntry:
    """One row of Table 1: a named analogue of a UFL graph."""

    name: str
    paper_name: str
    paper_n_millions: float
    paper_m_millions: float
    description: str
    builder: Callable[[float, SeedLike], GeneratedGraph]

    def build(self, scale: float = 1.0, seed: SeedLike = None) -> GeneratedGraph:
        if scale <= 0:
            raise GraphError("scale must be positive")
        if seed is None:
            # a stable digest: ``hash(str)`` is salted per process
            seed = derive_seed(DEFAULT_SEED, zlib.crc32(self.name.encode()) & 0xFFFF)
        g = self.builder(scale, seed)
        return GeneratedGraph(g.graph, g.coords, self.name)


def _s(base: int, scale: float) -> int:
    return max(16, int(round(base * scale)))


def _side(base: int, scale: float) -> int:
    return max(4, int(round(base * np.sqrt(scale))))


_ENTRIES: List[SuiteEntry] = [
    SuiteEntry(
        "ecology1", "ecology1", 1.0, 4.99,
        "5-point grid (landscape ecology stencil)",
        lambda sc, seed: gen.grid2d(_side(100, sc), _side(100, sc)),
    ),
    SuiteEntry(
        "ecology2", "ecology2", 0.99, 4.99,
        "5-point grid, slightly different shape",
        lambda sc, seed: gen.grid2d(_side(96, sc), _side(104, sc)),
    ),
    SuiteEntry(
        "delaunay_n20", "delaunay_n20", 1.05, 6.29,
        "Delaunay triangulation of random points (small)",
        lambda sc, seed: gen.random_delaunay(_s(8192, sc), seed),
    ),
    SuiteEntry(
        "G3_circuit", "G3_circuit", 1.58, 7.66,
        "grid with irregular circuit 'shorts'",
        lambda sc, seed: gen.circuit_grid(_side(110, sc), _side(110, sc), 0.02, seed),
    ),
    SuiteEntry(
        "kkt_power", "kkt_power", 2.06, 12.77,
        "KKT system of optimal power flow (irregular, heavy-tailed)",
        lambda sc, seed: gen.kkt_power_like(_side(76, sc), seed=seed),
    ),
    SuiteEntry(
        "hugetrace-00000", "hugetrace-00000", 4.59, 13.76,
        "long thin annular mesh (trace-like domain)",
        lambda sc, seed: gen.annulus_delaunay(_s(14000, sc), seed=seed),
    ),
    SuiteEntry(
        "delaunay_n23", "delaunay_n23", 8.39, 50.33,
        "Delaunay triangulation (medium)",
        lambda sc, seed: gen.random_delaunay(_s(18000, sc), seed),
    ),
    SuiteEntry(
        "delaunay_n24", "delaunay_n24", 16.77, 100.66,
        "Delaunay triangulation (large)",
        lambda sc, seed: gen.random_delaunay(_s(30000, sc), seed),
    ),
    SuiteEntry(
        "hugebubbles-00020", "hugebubbles-00020", 21.20, 63.58,
        "perforated mesh with bubble holes (largest)",
        lambda sc, seed: gen.perforated_delaunay(_s(34000, sc), seed=seed),
    ),
]

#: Table-1 order, keyed by analogue name.
SUITE: Dict[str, SuiteEntry] = {e.name: e for e in _ENTRIES}

#: The four largest graphs used in Figure 9.
LARGE4 = ["hugetrace-00000", "delaunay_n23", "delaunay_n24", "hugebubbles-00020"]


def suite_names() -> List[str]:
    """Suite graph names in Table-1 order."""
    return [e.name for e in _ENTRIES]


def build(name: str, scale: float = 1.0, seed: SeedLike = None) -> GeneratedGraph:
    """Build one suite graph by name."""
    if name not in SUITE:
        raise GraphError(f"unknown suite graph {name!r}; known: {suite_names()}")
    return SUITE[name].build(scale, seed)


def build_suite(
    scale: float = 1.0, seed: SeedLike = None, names: Optional[List[str]] = None
) -> Dict[str, GeneratedGraph]:
    """Build all (or the named subset of) suite graphs."""
    return {n: build(n, scale, seed) for n in (names or suite_names())}
