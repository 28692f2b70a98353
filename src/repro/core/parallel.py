"""Registry-driven host runner for the distributed methods.

:func:`run_parallel` runs any registered method on ``P`` virtual ranks
and packages the outcome as a
:class:`~repro.results.PartitionResult` whose ``seconds`` is the
*simulated* execution time — the quantity the paper's Figures 3–6/9
plot — and whose ``stage_seconds`` carries the per-phase breakdown.
It is the only way to launch a distributed run.

Fault recovery
--------------
With a :class:`RetryPolicy`, :func:`run_parallel` degrades gracefully
instead of propagating the first engine fault.  On a typed failure
(:class:`~repro.errors.RankFailure`, :class:`~repro.errors.
DeadlockError`, :class:`~repro.errors.BudgetExceededError`, any other
:class:`~repro.errors.CommError`, or a balance-validation
:class:`~repro.errors.PartitionError`) it walks one fixed ladder:

1. **retry** — re-run at full ``P`` with a re-salted seed and the
   ``max_steps`` budget scaled by ``BACKOFF**attempt``;
2. **shrink** — halve the rank count (``P/2``, ``P/4``, … down to
   ``MIN_RANKS``), the Holtgrewe-style repartition-on-fewer-PEs path;
3. **fallback** — distributed ScalaPart, then sequential ScalaPart,
   then sequential RCB (see :func:`_ladder`).

Every partition, recovered or not, is checked once against
:func:`_allowed_imbalance`, so degradation never returns a silently
broken partition.  The full attempt trail lands in
``result.extras["recovery"]``, or, when every rung fails, in the
``recovery`` attribute of the :class:`~repro.errors.PartitionError`
raised; the whole ladder is deterministic per ``(seed, FaultPlan)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..embed.multilevel import hu_layout
from ..errors import CommError, ConfigError, PartitionError, ReproError
from ..graph.csr import CSRGraph
from ..graph.partition import Bisection, KWayPartition
from ..parallel.checkpoint import CheckpointContext, as_store
from ..parallel.engine import run_spmd
from ..parallel.faults import FaultPlan
from ..parallel.machine import MachineModel, QDR_CLUSTER
from ..parallel.trace import SpmdResult
from ..rng import SeedLike, derive_seed
from .config import ScalaPartConfig
from .cost import resolve_costs
from .methods import MethodSpec, get_method
from .stages import as_coords
from ..results import PartitionResult

__all__ = ["RetryPolicy", "run_parallel"]

#: seed-salting namespace for recovery attempts (epoch 0 keeps the
#: caller's seed; attempt k reruns with derive_seed(seed, salt, k))
_RETRY_SALT = 0x5AFE

#: ``max_steps`` grows by this factor per recovery attempt
BACKOFF = 2.0

#: the shrink step halves the rank count down to this floor
MIN_RANKS = 2


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`run_parallel` degrades when an engine run fails.

    ``retries`` re-runs at full ``P`` come first, then the fixed shrink
    and fallback steps of the module docstring.  ``validate_imbalance``
    is the balance bound applied to partitions whose method declares no
    ``balance_bound`` of its own.  Recovery is immediate: attempts
    follow each other without a sleep.
    """

    retries: int = 1
    validate_imbalance: float = 0.15

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if not (0 <= self.validate_imbalance < 1):
            raise ConfigError(
                "validate_imbalance must be in [0, 1), got "
                f"{self.validate_imbalance}"
            )


def _allowed_imbalance(spec: MethodSpec, max_imbalance: Optional[float],
                       retry: Optional[RetryPolicy]) -> Optional[float]:
    """The one balance bound a run of ``spec`` is checked against.

    The method's declared ``balance_bound``, else the retry policy's
    ``validate_imbalance`` (``None`` — no check — without either),
    loosened to the caller's ``max_imbalance`` target when that is
    larger: a run is never rejected for meeting the balance it was
    asked for.
    """
    bound = spec.balance_bound
    if bound is None and retry is not None:
        bound = retry.validate_imbalance
    if bound is None or max_imbalance is None:
        return bound
    return max(bound, max_imbalance)


def _package(
    graph: CSRGraph,
    res: SpmdResult,
    method: str,
    *,
    k: int = 2,
    costs=None,
    is_kway: bool = False,
) -> PartitionResult:
    """Package an SPMD run as a :class:`PartitionResult`.

    ``simulated`` reflects the producing backend: the procs backend's
    ``seconds`` are measured wall time, not modelled cluster time.
    K-way methods (``is_kway``) return label arrays in ``[0, k)``;
    their results carry a :class:`KWayPartition` (plus a
    :class:`Bisection` view when ``k == 2``, so 2-way harnesses see
    them like any other method).
    """
    side, info = res.values[0]
    bis = None
    kway = None
    if is_kway:
        kway = KWayPartition(
            graph, np.asarray(side, dtype=np.int64), k, costs=costs
        )
        if k <= 2:
            bis = kway.to_bisection()
    else:
        bis = Bisection(graph, np.asarray(side, dtype=np.int8))
    # phases are hierarchical ("embed/refresh" ⊂ "embed"): report every
    # label the run used plus the aggregated top-level stages the paper's
    # figures consume
    stage_seconds = {name: ph.elapsed for name, ph in res.phases.items()}
    phase_comm = {name: ph.comm_fraction for name, ph in res.phases.items()}
    for root in res.phase_roots():
        agg = res.phase(root)
        stage_seconds[root] = agg.elapsed
        phase_comm[root] = agg.comm_fraction
    extras = {
        **{k: v for k, v in info.items() if k != "pos"},
        "nranks": res.nranks,
        "backend": res.backend,
        "comm_fraction": res.comm_fraction,
        "phase_comm": phase_comm,
        "comm_stats": res.comm_stats,
        "trace": res,
    }
    if res.pids is not None:
        extras["pids"] = list(res.pids)
    return PartitionResult(
        bisection=bis,
        kway=kway,
        method=method,
        seconds=res.elapsed,
        simulated=(res.backend == "sim"),
        stage_seconds=stage_seconds,
        extras=extras,
    )


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def _ladder(spec: MethodSpec, nranks: int, retries: int,
            k: int) -> List[Tuple[str, str, MethodSpec, int]]:
    """The recovery plan as ``(step, mode, spec, nranks)`` rows.

    The primary run, ``retries`` reruns at full ``P`` and halvings down
    to :data:`MIN_RANKS`, then the fallbacks in the registry's quality
    order: distributed ScalaPart on the last rank count tried (unless it
    is the failing method, or ``k > 2`` parts are asked of its bisection
    rank program), sequential ScalaPart, and sequential RCB as the
    geometry-only last resort.  ``mode`` is ``"engine"`` or
    ``"sequential"``.
    """
    rows = [("primary", "engine", spec, nranks)]
    rows += [("retry", "engine", spec, nranks)] * retries
    p = nranks // 2
    while p >= MIN_RANKS:
        rows.append(("shrink", "engine", spec, p))
        p //= 2
    scala = get_method("ScalaPart")
    if spec.name != scala.name and k == 2:
        rows.append(("fallback", "engine", scala, rows[-1][3]))
    rows.append(("fallback", "sequential", scala, 1))
    rows.append(("fallback", "sequential", get_method("RCB"), 1))
    return rows


def _run_recovering(
    spec: MethodSpec,
    nranks: int,
    seed: SeedLike,
    faults: Optional[FaultPlan],
    retry: RetryPolicy,
    k: int,
    max_imbalance: Optional[float],
    engine: Callable[..., PartitionResult],
    sequential: Callable[..., PartitionResult],
) -> PartitionResult:
    """Walk the recovery ladder until an attempt yields a valid cut.

    ``engine(spec, nranks, seed, plan, scale)`` and
    ``sequential(spec, seed)`` close over the run settings that stay
    fixed for the whole ladder; this function picks only what varies per
    attempt: method, rank count, seed, fault epoch and budget scale.
    """
    attempts: List[Dict[str, Any]] = []
    last_exc: Optional[BaseException] = None
    for attempt, (step, mode, aspec, p) in enumerate(
            _ladder(spec, nranks, retry.retries, k)):
        aseed = seed if attempt == 0 else derive_seed(seed, _RETRY_SALT,
                                                      attempt)
        rec: Dict[str, Any] = {"step": step, "mode": mode,
                               "method": aspec.name, "nranks": p,
                               "attempt": attempt}
        # the engine's fault domain fails with CommError; outside it, a
        # sequential rung can only fail on its own merits
        caught = (CommError, PartitionError) if mode == "engine" \
            else ReproError
        try:
            if mode == "engine":
                plan = None if faults is None else faults.for_attempt(attempt)
                out = engine(aspec, p, aseed, plan, BACKOFF ** attempt)
                ck = out.extras.get("checkpoint")
                if ck is not None and ck.get("resumed_from"):
                    rec["resumed_from"] = ck["resumed_from"]
            else:
                out = sequential(aspec, aseed)
            out.validate(_allowed_imbalance(aspec, max_imbalance, retry))
        except caught as exc:
            rec["status"] = "failed"
            rec["error"] = f"{type(exc).__name__}: {_first_line(exc)}"
            attempts.append(rec)
            last_exc = exc
            continue
        # the failed attempt's traceback pins its frames (and their
        # buffers) in a cycle: drop it on success
        last_exc = None
        rec["status"] = "ok"
        rec["cut"] = int(out.cut_size)
        rec["imbalance"] = float(out.imbalance)
        attempts.append(rec)
        recovery: Dict[str, Any] = {
            "attempts": attempts,
            "recovered": len(attempts) > 1,
            "final_method": aspec.name,
            "final_nranks": p,
        }
        ck = out.extras.get("checkpoint")
        if ck is not None:
            recovery["resumed_from"] = ck.get("resumed_from")
        out.extras["recovery"] = recovery
        return out

    err = PartitionError(
        f"recovery exhausted after {len(attempts)} attempt(s) for method "
        f"{spec.name!r} on {nranks} ranks; last error: "
        f"{type(last_exc).__name__ if last_exc else 'none'}: "
        f"{_first_line(last_exc) if last_exc else ''}"
    )
    err.recovery = {"attempts": attempts, "recovered": False}
    raise err from last_exc


def run_parallel(
    method,
    graph: CSRGraph,
    nranks: int,
    *,
    coords=None,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
    machine: MachineModel = QDR_CLUSTER,
    max_imbalance: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    max_steps: Optional[int] = None,
    backend: str = "sim",
    op_timeout: Optional[float] = None,
    k: int = 2,
    cost_model=None,
    checkpoint=None,
) -> PartitionResult:
    """Run a registered method on ``nranks`` virtual ranks.

    ``method`` is a :class:`~repro.core.methods.MethodSpec`, a canonical
    name or a CLI name.  ``coords`` (for coordinate-based methods) may
    be a raw ``(n, 2)`` array or an
    :class:`~repro.core.stages.EmbeddingArtifact` captured from another
    run.  ``max_imbalance`` overrides the refinement target handed to
    the rank program (``spec.default_max_imbalance`` otherwise); the
    packaged result is checked against :func:`_allowed_imbalance`
    (the spec's declared ``balance_bound``, loosened to a larger
    ``max_imbalance``).  Payloads are delivered zero-copy and the dynamic
    sanitizer follows the ``REPRO_SANITIZE`` environment variable (see
    :func:`~repro.parallel.engine.run_spmd`).

    ``faults`` injects a deterministic
    :class:`~repro.parallel.faults.FaultPlan` into the engine;
    ``max_steps`` bounds the run (see
    :func:`~repro.parallel.engine.run_spmd`).  Without a ``retry``
    policy the resulting typed errors propagate to the caller; with one,
    the recovery ladder documented in the module docstring is descended
    and the attempt trail is attached as ``extras["recovery"]``.

    ``backend`` selects the executor (``"sim"`` — the deterministic
    simulator, or ``"procs"`` — one worker process per rank; see
    :func:`~repro.parallel.engine.run_spmd`); both run the same rank
    program and must produce bit-identical partitions.  ``op_timeout``
    bounds per-operation blocking on the procs backend.

    ``k`` is the number of parts; values other than 2 need a native
    k-way method (``spec.kway``, e.g. ``"kway-geometric"``).
    ``cost_model`` selects the balance cost (a registered name, a
    :class:`~repro.core.cost.CostModel`, or a per-vertex array) and is
    forwarded to k-way rank programs; recovered k-way fallbacks run
    recursive bisection + k-way refinement under the same model.

    ``checkpoint`` enables durable elastic recovery: a directory path
    or :class:`~repro.parallel.checkpoint.CheckpointStore`.  Methods
    with a ``resume_method`` persist their completed embedding (atomic,
    crc-verified, keyed by graph hash × config fingerprint × seed);
    every attempt of the caller's method — including the primary one,
    so a restarted process benefits too — probes the store first and,
    on a strictly verified hit, resumes downstream of the embedding via
    the spec's ``resume_method`` instead of re-coarsening and
    re-embedding.  Any key mismatch or corrupt payload demotes to a
    full recompute and is recorded in ``extras["checkpoint"]["ignored"]``.
    The outcome is reported in ``extras["checkpoint"]`` (and mirrored as
    ``extras["recovery"]["resumed_from"]`` when a retry policy is
    active).
    """
    spec = method if isinstance(method, MethodSpec) else get_method(method)
    if spec.distributed is None:
        raise ConfigError(
            f"method {spec.name!r} has no distributed implementation"
        )
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k != 2 and not spec.kway:
        raise ConfigError(
            f"method {spec.name!r} is a bisection method; only native "
            f"k-way methods accept k={k} (use partition_kway for "
            "recursive bisection)"
        )
    if graph.num_vertices < max(2, k):
        raise PartitionError(
            f"cannot split {graph.num_vertices} vertices into "
            f"{max(2, k)} parts"
        )
    if spec.needs_coords:
        coords = as_coords(coords)
    store = as_store(checkpoint)
    ctx = None
    if store is not None:
        ctx = CheckpointContext.for_run(store, graph, spec, config, seed,
                                        k=k, cost_model=cost_model)

    def engine(aspec: MethodSpec, p: int, aseed: SeedLike,
               plan: Optional[FaultPlan], scale: float) -> PartitionResult:
        # with a checkpoint, probe the store for the embedding first: a
        # verified hit swaps the run to the spec's resume_method fed the
        # persisted coordinates, while a full run persists its own
        # embedding for the next attempt
        target = (max_imbalance if max_imbalance is not None
                  else aspec.default_max_imbalance)
        run_spec, run_coords, resumed_from, save_ctx = aspec, coords, None, None
        if ctx is not None and ctx.covers(aspec):
            artifact = ctx.load_stage() if coords is None else None
            if artifact is None:
                save_ctx = ctx
            else:
                run_spec = get_method(aspec.resume_method)
                run_coords = artifact
                resumed_from = artifact.stage

        def prog(comm):
            kw = {}
            if run_spec.kway:
                kw.update(k=k, cost_model=cost_model)
            if save_ctx is not None:
                kw["checkpoint"] = save_ctx
            return (yield from run_spec.distributed(
                comm, graph, coords=run_coords, config=config, seed=aseed,
                max_imbalance=target, **kw,
            ))

        engine_seed = 0 if run_spec.seed_salt is None \
            else derive_seed(aseed, run_spec.seed_salt)
        steps = None if max_steps is None \
            else type(max_steps)(max_steps * scale)
        res = run_spmd(prog, p, machine=machine, seed=engine_seed,
                       faults=plan, max_steps=steps, backend=backend,
                       op_timeout=op_timeout)
        costs = resolve_costs(graph, cost_model) if aspec.kway else None
        out = _package(graph, res, aspec.name, k=k, costs=costs,
                       is_kway=aspec.kway)
        if ctx is not None:
            out.extras["checkpoint"] = {
                "resumed_from": resumed_from,
                "store": str(ctx.store.root),
                "ignored": list(ctx.ignored),
            }
        return out

    if retry is None:
        out = engine(spec, nranks, seed, faults, 1.0)
        bound = _allowed_imbalance(spec, max_imbalance, None)
        if bound is not None:
            out.validate(bound)
        return out

    def sequential(aspec: MethodSpec, aseed: SeedLike) -> PartitionResult:
        scoords = None
        if aspec.needs_coords:
            scoords = (coords if coords is not None
                       else hu_layout(graph, seed=aseed))
        if k != 2:
            # k-way fallback: any bisection method reaches K parts via
            # recursive bisection + the shared k-way refinement
            from .kway import partition_kway

            return partition_kway(
                graph, k, aspec, coords=scoords, config=config,
                seed=aseed, cost_model=cost_model,
                max_imbalance=(max_imbalance if max_imbalance is not None
                               else 0.05),
            )
        return aspec.sequential(graph, scoords, config=config, seed=aseed)

    return _run_recovering(spec, nranks, seed, faults, retry, k,
                           max_imbalance, engine, sequential)
