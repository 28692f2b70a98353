"""Force-directed graph embedding (sequential and fixed-lattice)."""

from .box import Box, cell_ids, cell_indices
from .fdl import LayoutResult, force_directed_layout, random_positions
from .forces import (
    DEFAULT_C,
    AttractiveWorkspace,
    attractive_forces,
    repulsive_forces_exact,
    spring_energy,
)
from .lattice import (
    LatticeStats,
    LatticeWorkspace,
    beta_force_field,
    lattice_stats,
    repulsive_forces_lattice,
)
from .multilevel import (
    EmbeddingResult,
    coarsest_layout,
    hu_layout,
    lattice_side_for,
    multilevel_embedding,
)
from .quadtree import repulsive_forces_bh
from .quality import (
    EdgeLengthStats,
    crossing_proxy,
    edge_length_stats,
    neighborhood_preservation,
    normalized_stress,
)
from .ssde import bfs_hops, ssde_embedding

__all__ = [
    "Box",
    "cell_ids",
    "cell_indices",
    "LayoutResult",
    "force_directed_layout",
    "random_positions",
    "DEFAULT_C",
    "AttractiveWorkspace",
    "attractive_forces",
    "repulsive_forces_exact",
    "spring_energy",
    "LatticeStats",
    "LatticeWorkspace",
    "beta_force_field",
    "lattice_stats",
    "repulsive_forces_lattice",
    "EmbeddingResult",
    "coarsest_layout",
    "hu_layout",
    "lattice_side_for",
    "multilevel_embedding",
    "repulsive_forces_bh",
    "EdgeLengthStats",
    "crossing_proxy",
    "edge_length_stats",
    "neighborhood_preservation",
    "normalized_stress",
    "bfs_hops",
    "ssde_embedding",
]
