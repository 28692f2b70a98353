"""Multilevel coarsening: matchings, contraction, hierarchies."""

from .contract import coarse_map, contract, project_labels
from .hierarchy import Hierarchy, build_hierarchy
from .matching import (
    heavy_edge_matching,
    heavy_edge_matching_vec,
    validate_matching,
)

__all__ = [
    "coarse_map",
    "contract",
    "project_labels",
    "Hierarchy",
    "build_hierarchy",
    "heavy_edge_matching",
    "heavy_edge_matching_vec",
    "validate_matching",
]
