"""High-level k-way drivers: direct, recursive, and hierarchical.

Three entry points sit on top of the registry:

* :func:`kway_geometric` — the sequential face of the ``kway-geometric``
  method: embed (unless coordinates are given), split the sphere into K
  centroid cells, greedy boundary refinement;
* :func:`partition_kway` — partition into K parts with *any* registered
  method: direct k-way methods run natively, bisection methods run
  through :func:`recursive_bisection` followed by the same k-way
  refinement pass;
* :func:`hierarchical_kway` — K = K1×K2 (node × core) partitioning as
  two stacked k-way calls with per-level imbalance budgets.  The final
  label of a vertex in node-part ``p1`` and core-part ``p2`` is
  ``p1 * K2 + p2``, so ``label // K2`` recovers the node level — the
  nested-labelling contract the tests pin down.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ConfigError, PartitionError
from ..graph.csr import CSRGraph
from ..graph.partition import Bisection, KWayPartition
from ..refine.kway import kway_refine
from ..results import PartitionResult
from ..rng import SeedLike, derive_seed
from .config import ScalaPartConfig
from .cost import get_cost_model, resolve_costs
from .stages import EMBED_STAGE, KWAY_GEOMETRIC_STAGE, KWAY_REFINE_STAGE

__all__ = [
    "hierarchical_kway",
    "kway_geometric",
    "parse_hierarchy",
    "partition_kway",
]

#: (node, core) imbalance budgets of :func:`hierarchical_kway`
LEVEL_IMBALANCE = (0.03, 0.05)


def kway_geometric(
    graph: CSRGraph,
    coords=None,
    *,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
    k: int = 2,
    cost_model=None,
    max_imbalance: Optional[float] = None,
) -> PartitionResult:
    """Sequential direct geometric k-way (embed → K cells → refine).

    ``coords`` may be ``None`` (the multilevel embedding runs first), a
    raw ``(n, 2)`` array, or an ``EmbeddingArtifact``.
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if graph.num_vertices < k:
        raise PartitionError(
            f"cannot split {graph.num_vertices} vertices into {k} parts"
        )
    cfg = config or ScalaPartConfig()
    costs = resolve_costs(graph, cost_model)
    bound = cfg.max_imbalance if max_imbalance is None else max_imbalance

    stage_seconds = {}
    extras = {"cost_model": get_cost_model(cost_model).name}
    artifacts = {}
    upstream = coords
    if upstream is None:
        emb = EMBED_STAGE.run(graph, None, cfg, seed)
        stage_seconds["embed"] = emb.seconds
        extras.update({"pos": emb.coords, "levels": emb.info["levels"]})
        artifacts["embed"] = emb
        upstream = emb

    assign = KWAY_GEOMETRIC_STAGE.run(graph, upstream, cfg, seed,
                                      k=k, costs=costs)
    ref = KWAY_REFINE_STAGE.run(graph, assign, cfg, seed,
                                max_imbalance=bound)
    stage_seconds["partition"] = assign.seconds
    stage_seconds["refine"] = ref.seconds
    extras.update(assign.info)
    extras.update(ref.info)
    artifacts.update({"partition": assign, "refine": ref})
    extras["artifacts"] = artifacts

    part = ref.partition
    return PartitionResult(
        bisection=part.to_bisection() if k <= 2 else None,
        kway=part,
        method="KWay-Geometric",
        seconds=sum(stage_seconds.values()),
        stage_seconds=stage_seconds,
        extras=extras,
    )


def partition_kway(
    graph: CSRGraph,
    k: int,
    method: Union[str, "MethodSpec"] = "kway-geometric",  # noqa: F821
    *,
    coords=None,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
    cost_model=None,
    max_imbalance: float = 0.05,
    refine: bool = True,
) -> PartitionResult:
    """Partition into ``k`` parts with any registered method.

    Direct k-way methods (``spec.kway``) run natively; bisection
    methods run through recursive bisection and, when ``refine`` is
    set, the same greedy boundary k-way refinement that follows the
    direct path — so both routes share one balance contract.
    """
    from .methods import MethodSpec, get_method

    spec = method if isinstance(method, MethodSpec) else get_method(method)
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if spec.sequential is None:
        raise PartitionError(f"method {spec.name!r} has no sequential entry")
    costs = resolve_costs(graph, cost_model)

    if spec.kway:
        return spec.sequential(
            graph, coords, config=config, seed=seed,
            k=k, cost_model=cost_model, max_imbalance=max_imbalance,
        )

    if spec.needs_coords and coords is None:
        raise PartitionError(
            f"method {spec.name!r} needs coordinates for k-way partitioning"
        )
    from .recursive import recursive_bisection
    from .stages import as_coords

    t0 = time.perf_counter()
    kres = recursive_bisection(
        graph, k, spec.sequential,
        coords=None if coords is None else as_coords(coords),
        seed=seed, cost_model=cost_model, config=config,
    )
    part = KWayPartition(graph, kres.parts, k, costs=costs)
    extras = {
        "bisections": kres.bisections,
        "cost_model": get_cost_model(cost_model).name,
    }
    if refine and k >= 2:
        rr = kway_refine(part, max_imbalance=max_imbalance)
        part = rr.partition
        extras.update({"refine_passes": rr.passes, "refine_moves": rr.moves,
                       "recursive_cut": rr.initial_cut})
    seconds = time.perf_counter() - t0
    return PartitionResult(
        bisection=Bisection(graph, part.parts.astype(np.int8))
        if k <= 2 else None,
        kway=part,
        method=spec.name,
        seconds=seconds,
        stage_seconds={"partition": seconds},
        extras=extras,
    )


def parse_hierarchy(text: str) -> Tuple[int, int]:
    """Parse a ``"K1xK2"`` hierarchy spec (e.g. ``"2x4"``)."""
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(
            f"hierarchy must look like K1xK2 (e.g. 2x4), got {text!r}"
        )
    try:
        k1, k2 = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"hierarchy levels must be integers, got {text!r}"
        ) from None
    if k1 < 1 or k2 < 1:
        raise ConfigError(f"hierarchy levels must be >= 1, got {text!r}")
    return k1, k2


def hierarchical_kway(
    graph: CSRGraph,
    k1: int,
    k2: int,
    method: Union[str, "MethodSpec"] = "kway-geometric",  # noqa: F821
    *,
    coords=None,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
    cost_model=None,
) -> PartitionResult:
    """Hierarchical K = K1×K2 partitioning (node × core).

    Two stacked k-way calls: level 1 splits the graph into ``k1`` node
    parts under the tighter budget ``LEVEL_IMBALANCE[0]`` (3%); level 2
    splits each node part into ``k2`` core parts under
    ``LEVEL_IMBALANCE[1]`` (5%).  The overall imbalance is bounded by
    ``(1 + e1)(1 + e2) − 1``, which is why the node level gets the
    tighter budget.  Labels nest: ``label = p1 * k2 + p2``.
    """
    if k1 < 1 or k2 < 1:
        raise PartitionError(f"hierarchy levels must be >= 1, got {k1}x{k2}")
    k = k1 * k2
    if graph.num_vertices < k:
        raise PartitionError(
            f"cannot split {graph.num_vertices} vertices into {k1}x{k2} parts"
        )
    e1, e2 = LEVEL_IMBALANCE
    t0 = time.perf_counter()
    top = partition_kway(
        graph, k1, method,
        coords=coords, config=config, seed=seed,
        cost_model=cost_model, max_imbalance=e1,
    )
    costs = resolve_costs(graph, cost_model)
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    coords_arr = None
    if coords is not None:
        from .stages import as_coords

        coords_arr = as_coords(coords)
    for p1 in range(k1):
        ids = np.flatnonzero(top.parts == p1)
        if k2 == 1 or ids.size == 0:
            labels[ids] = p1 * k2
            continue
        sub, sub_ids = graph.subgraph(ids)
        sub_res = partition_kway(
            sub, min(k2, sub.num_vertices), method,
            coords=coords_arr[sub_ids] if coords_arr is not None else None,
            config=config, seed=derive_seed(seed, 0x41E2, p1),
            # slice the resolved costs so the core level balances the
            # same quantity the node level did
            cost_model=None if costs is None else costs[sub_ids],
            max_imbalance=e2,
        )
        labels[sub_ids] = p1 * k2 + sub_res.parts
    part = KWayPartition(graph, labels, k, costs=costs)
    return PartitionResult(
        bisection=part.to_bisection() if k <= 2 else None,
        kway=part,
        method=top.method,
        seconds=time.perf_counter() - t0,
        stage_seconds={"partition": time.perf_counter() - t0},
        extras={
            "hierarchy": (k1, k2),
            "level1_parts": top.parts,
            "level_imbalance": (e1, e2),
            "cost_model": get_cost_model(cost_model).name,
        },
    )
