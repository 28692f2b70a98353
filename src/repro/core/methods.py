"""Central method registry: one place that knows every partitioner.

Every consumer used to hardcode its own method list — the bench runner
kept a ``METHODS`` dict plus a nine-branch ``_execute`` if-chain, the
CLI kept ``_METHODS`` and ``_TRACE_METHODS``, and each ``*_parallel``
wrapper repeated the same engine boilerplate.  Following the
KaHIP/KaPPa design of a single configurable driver over interchangeable
components, this module is now the sole source of truth:

* :class:`MethodSpec` describes one method — display/CLI names, whether
  it consumes coordinates, its sequential entry point (normalised
  signature), its distributed rank program, the engine seed salt, and
  its balance contract;
* :func:`register_method` is a decorator that registers the decorated
  sequential entry point (all nine methods below are registered this
  way);
* ``METHOD_REGISTRY`` is consumed by
  :func:`repro.core.parallel.run_parallel`, the bench runner, the CLI
  and :func:`repro.core.recursive.recursive_bisection` — adding a
  method here makes it appear everywhere at once.

Sequential entry points share the signature
``fn(graph, coords=None, *, config=None, seed=None) -> PartitionResult``
(coordinate sources may be raw arrays or
:class:`~repro.core.stages.EmbeddingArtifact` objects); distributed
rank programs share
``fn(comm, graph, *, coords=None, config=None, seed=None,
max_imbalance=None)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines.multilevel import parmetis_like, scotch_like
from ..baselines.parallel_ml import (
    dist_parmetis_like,
    dist_rcb_bisect,
    dist_scotch_like,
)
from ..baselines.rcb import rcb_bisect
from ..baselines.spectral import spectral_bisect
from ..errors import ConfigError
from ..geometric.gmt import GMTResult, g7, g7_nl, g30
from ..results import PartitionResult
from .config import ScalaPartConfig
from .scalapart import scalapart, sp_pg7_nl
from .stages import (
    EMBED_STAGE,
    GEOMETRIC_STAGE,
    KWAY_GEOMETRIC_STAGE,
    STRIP_REFINE_STAGE,
    EmbeddingArtifact,
    as_coords,
)

__all__ = [
    "MethodSpec",
    "METHOD_REGISTRY",
    "register_method",
    "get_method",
    "method_names",
    "cli_choices",
    "distributed_methods",
    "distributed_entry_points",
    "methods_table",
]


@dataclass(frozen=True)
class MethodSpec:
    """Everything the drivers need to know about one method."""

    #: canonical display name ("ScalaPart", "Pt-Scotch-like", ...)
    name: str
    #: lowercase CLI / argparse spelling ("scalapart", "scotch", ...)
    cli_name: str
    #: does the method consume vertex coordinates?
    needs_coords: bool = False
    #: ``fn(graph, coords=None, *, config=None, seed=None)``
    sequential: Optional[Callable] = None
    #: rank program ``fn(comm, graph, *, coords=None, config=None,
    #: seed=None, max_imbalance=None)``
    distributed: Optional[Callable] = None
    #: salt mixed into the engine seed by ``run_parallel`` (``None`` for
    #: deterministic methods, which always run the engine with seed 0)
    seed_salt: Optional[int] = None
    #: imbalance target handed to the distributed program's refinement
    default_max_imbalance: Optional[float] = None
    #: post-run guarantee: ``run_parallel`` validates packaged results
    #: against this bound when declared
    balance_bound: Optional[float] = None
    #: native k-way method: its entry points accept ``k`` and
    #: ``cost_model`` keywords and label vertices in ``[0, k)``
    #: (bisection methods reach k > 2 via recursive bisection instead)
    kway: bool = False
    #: registered method that re-enters the pipeline downstream of a
    #: persisted embedding (fed via ``coords=``) on resume; a method
    #: with one is checkpointable: its rank program accepts a
    #: ``checkpoint=`` keyword and persists its embedding there
    resume_method: Optional[str] = None
    #: one-line description (README method table, ``--help`` text)
    description: str = ""

    @property
    def traceable(self) -> bool:
        """Can the method run on the SPMD engine (``repro trace``)?"""
        return self.distributed is not None


#: the single registry every consumer reads
METHOD_REGISTRY: Dict[str, MethodSpec] = {}

#: cli_name / lowercase-name -> canonical name
_ALIASES: Dict[str, str] = {}


def register_method(
    name: str,
    *,
    cli_name: Optional[str] = None,
    needs_coords: bool = False,
    distributed: Optional[Callable] = None,
    seed_salt: Optional[int] = None,
    default_max_imbalance: Optional[float] = None,
    balance_bound: Optional[float] = None,
    kway: bool = False,
    resume_method: Optional[str] = None,
    description: str = "",
):
    """Decorator: register the decorated sequential entry point.

    The decorated function becomes ``spec.sequential`` and is returned
    unchanged, so it stays directly callable.
    """

    def deco(fn: Callable) -> Callable:
        spec = MethodSpec(
            name=name,
            cli_name=cli_name or name.lower(),
            needs_coords=needs_coords,
            sequential=fn,
            distributed=distributed,
            seed_salt=seed_salt,
            default_max_imbalance=default_max_imbalance,
            balance_bound=balance_bound,
            kway=kway,
            resume_method=resume_method,
            description=description,
        )
        if spec.name in METHOD_REGISTRY:
            raise ConfigError(f"method {spec.name!r} registered twice")
        if spec.cli_name in _ALIASES:
            raise ConfigError(f"CLI name {spec.cli_name!r} registered twice")
        METHOD_REGISTRY[spec.name] = spec
        _ALIASES[spec.cli_name] = spec.name
        _ALIASES.setdefault(spec.name.lower(), spec.name)
        return fn

    return deco


def get_method(name: str) -> MethodSpec:
    """Look a method up by canonical or CLI name (case-insensitive)."""
    if name in METHOD_REGISTRY:
        return METHOD_REGISTRY[name]
    canonical = _ALIASES.get(str(name).lower())
    if canonical is None:
        raise ConfigError(
            f"unknown method {name!r}; known: {sorted(METHOD_REGISTRY)}"
        )
    return METHOD_REGISTRY[canonical]


def method_names(traceable_only: bool = False) -> List[str]:
    """Canonical names, registration order."""
    return [s.name for s in METHOD_REGISTRY.values()
            if s.traceable or not traceable_only]


def cli_choices(traceable_only: bool = False) -> List[str]:
    """Sorted CLI names (the argparse ``choices`` lists)."""
    return sorted(s.cli_name for s in METHOD_REGISTRY.values()
                  if s.traceable or not traceable_only)


def distributed_methods() -> List[MethodSpec]:
    """Specs with a distributed rank program, registration order.

    The cross-backend differential harness iterates this list: every
    method here must produce bit-identical partitions on
    ``backend="sim"`` and ``backend="procs"``.
    """
    return [s for s in METHOD_REGISTRY.values() if s.distributed is not None]


def distributed_entry_points() -> List[Tuple[str, Callable]]:
    """``(method name, rank program)`` for every registered method with
    a distributed path — the roots the whole-program protocol checker
    (:mod:`repro.analysis.protocol`, ``repro lint --registry``)
    model-checks for schedule divergence and unmatched point-to-point
    traffic before a procs run can deadlock on them.
    """
    return [(s.name, s.distributed) for s in distributed_methods()]


def methods_table() -> str:
    """The README method table, regenerated from the registry."""
    rows = ["| method | CLI name | coords | parallel | description |",
            "|---|---|---|---|---|"]
    for s in METHOD_REGISTRY.values():
        rows.append(
            f"| {s.name} | `{s.cli_name}` "
            f"| {'yes' if s.needs_coords else '—'} "
            f"| {'yes' if s.traceable else '—'} "
            f"| {s.description} |"
        )
    return "\n".join(rows)


# ----------------------------------------------------------------------
# distributed rank programs (normalised signatures)
# ----------------------------------------------------------------------

def _dist_scalapart(comm, graph, *, coords=None, config=None, seed=None,
                    max_imbalance=None, checkpoint=None):
    """Full distributed ScalaPart: the three shared stages in order.

    ``checkpoint`` is a
    :class:`~repro.parallel.checkpoint.CheckpointContext`; rank 0
    persists the completed embedding so a later attempt (or process)
    can resume from stages 3–4.  The save is pure rank-local I/O — no
    communication happens on the rank-0-only branch.
    """
    emb = yield from EMBED_STAGE.run_dist(comm, graph, None, config, seed)
    if checkpoint is not None and comm.rank == 0:
        checkpoint.save_artifact(emb)
    return (yield from _dist_sp_pg7_nl(comm, graph, coords=emb,
                                       config=config, seed=seed))


def _dist_sp_pg7_nl(comm, graph, *, coords=None, config=None, seed=None,
                    max_imbalance=None):
    """Partition-only component: stages 3–4 on given coordinates.

    Fed an :class:`EmbeddingArtifact` (by a full or a resumed ScalaPart
    run), the embedding's diagnostics join the result.
    """
    geo = yield from GEOMETRIC_STAGE.run_dist(comm, graph, coords,
                                              config, seed)
    side, info = yield from STRIP_REFINE_STAGE.run_dist(comm, graph, geo,
                                                        config, seed)
    if isinstance(coords, EmbeddingArtifact):
        info = {**info, **coords.info, "pos": coords.coords}
    return side, info


def _dist_parmetis(comm, graph, *, coords=None, config=None, seed=None,
                   max_imbalance=None):
    return (yield from dist_parmetis_like(
        comm, graph, seed=seed,
        max_imbalance=0.05 if max_imbalance is None else max_imbalance))


def _dist_scotch(comm, graph, *, coords=None, config=None, seed=None,
                 max_imbalance=None):
    return (yield from dist_scotch_like(
        comm, graph, seed=seed,
        max_imbalance=0.05 if max_imbalance is None else max_imbalance))


def _dist_rcb(comm, graph, *, coords=None, config=None, seed=None,
              max_imbalance=None):
    comm.set_phase("partition")
    return (yield from dist_rcb_bisect(comm, graph, as_coords(coords)))


def _dist_kway_geometric(comm, graph, *, coords=None, config=None, seed=None,
                         max_imbalance=None, k=2, cost_model=None,
                         checkpoint=None):
    """Direct k-way: embed (unless coords given), K-cell assignment,
    root-side greedy boundary refinement."""
    from .cost import resolve_costs

    costs = resolve_costs(graph, cost_model)
    info = {}
    if coords is None:
        coords = yield from EMBED_STAGE.run_dist(comm, graph, None, config,
                                                 seed)
        if checkpoint is not None and comm.rank == 0:
            checkpoint.save_artifact(coords)
    if isinstance(coords, EmbeddingArtifact):
        # fresh or resumed, the embedding's diagnostics join the result
        info = {**coords.info, "pos": coords.coords}
    parts, kinfo = yield from KWAY_GEOMETRIC_STAGE.run_dist(
        comm, graph, coords, config, seed,
        k=k, costs=costs, max_imbalance=max_imbalance,
    )
    return parts, {**info, **kinfo}


# ----------------------------------------------------------------------
# registrations (sequential entry points with normalised signatures)
# ----------------------------------------------------------------------

def _max_imbalance(config: Optional[ScalaPartConfig]) -> float:
    """Balance target of a refining bisector: ``config.max_imbalance``
    (0.05 without a config, the default of every bisector here)."""
    return (config or ScalaPartConfig()).max_imbalance


def _wrap_gmt(res: GMTResult, name: str, seconds: float) -> PartitionResult:
    return PartitionResult(
        bisection=res.bisection,
        method=name,
        seconds=seconds,
        stage_seconds={"partition": seconds},
        extras={"geometric_cut": res.cut, "sdist": res.sdist,
                "candidates": res.candidates},
    )


@register_method(
    "ScalaPart", distributed=_dist_scalapart, seed_salt=1,
    resume_method="SP-PG7-NL",
    description="full pipeline: coarsen, lattice-embed, circles, strip FM",
)
def _scalapart(graph, coords=None, *, config=None, seed=None):
    return scalapart(graph, config, seed=seed)


@register_method(
    "SP-PG7-NL", cli_name="sp-pg7-nl", needs_coords=True,
    distributed=_dist_sp_pg7_nl, seed_salt=2,
    description="stages 3–4 only: great circles + strip FM on given coords",
)
def _sp_pg7_nl(graph, coords=None, *, config=None, seed=None):
    return sp_pg7_nl(graph, coords, config, seed=seed)


@register_method(
    "ParMetis-like", cli_name="parmetis", distributed=_dist_parmetis,
    seed_salt=3, default_max_imbalance=0.05, balance_bound=0.15,
    description="speed-tuned multilevel bisection (greedy refinement)",
)
def _parmetis(graph, coords=None, *, config=None, seed=None):
    return parmetis_like(graph, seed=seed,
                         max_imbalance=_max_imbalance(config))


@register_method(
    "Pt-Scotch-like", cli_name="scotch", distributed=_dist_scotch,
    seed_salt=4, default_max_imbalance=0.05, balance_bound=0.15,
    description="quality-tuned multilevel bisection (band FM)",
)
def _scotch(graph, coords=None, *, config=None, seed=None):
    return scotch_like(graph, seed=seed,
                       max_imbalance=_max_imbalance(config))


@register_method(
    "RCB", cli_name="rcb", needs_coords=True, distributed=_dist_rcb,
    balance_bound=0.05,
    description="recursive coordinate bisection (Zoltan-style median cut)",
)
def _rcb(graph, coords=None, *, config=None, seed=None):
    return rcb_bisect(graph, as_coords(coords), seed=seed)


@register_method(
    "Spectral", cli_name="spectral",
    description="Fiedler-vector bisection (classical reference)",
)
def _spectral(graph, coords=None, *, config=None, seed=None):
    return spectral_bisect(graph, seed=seed,
                           max_imbalance=_max_imbalance(config))


@register_method(
    "G30", cli_name="g30", needs_coords=True,
    description="sequential GMT, 23 circles + 7 lines (2 centerpoints)",
)
def _g30(graph, coords=None, *, config=None, seed=None):
    t0 = time.perf_counter()
    res = g30(graph, as_coords(coords), seed=seed)
    return _wrap_gmt(res, "G30", time.perf_counter() - t0)


@register_method(
    "G7", cli_name="g7", needs_coords=True,
    description="sequential GMT, 5 circles + 2 lines (1 centerpoint)",
)
def _g7(graph, coords=None, *, config=None, seed=None):
    t0 = time.perf_counter()
    res = g7(graph, as_coords(coords), seed=seed)
    return _wrap_gmt(res, "G7", time.perf_counter() - t0)


@register_method(
    "G7-NL", cli_name="g7-nl", needs_coords=True,
    description="G7 without line separators (what ScalaPart parallelises)",
)
def _g7_nl(graph, coords=None, *, config=None, seed=None):
    t0 = time.perf_counter()
    res = g7_nl(graph, as_coords(coords), seed=seed)
    return _wrap_gmt(res, "G7-NL", time.perf_counter() - t0)


@register_method(
    "KWay-Geometric", cli_name="kway-geometric",
    distributed=_dist_kway_geometric, seed_salt=5,
    default_max_imbalance=0.05, balance_bound=0.10, kway=True,
    resume_method="KWay-Geometric",
    description="direct k-way: K centroid cells on the sphere + boundary refine",
)
def _kway_geometric(graph, coords=None, *, config=None, seed=None, k=2,
                    cost_model=None, max_imbalance=None):
    from .kway import kway_geometric

    return kway_geometric(graph, coords, config=config, seed=seed, k=k,
                          cost_model=cost_model, max_imbalance=max_imbalance)
