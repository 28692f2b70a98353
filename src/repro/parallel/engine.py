"""SPMD coroutine engine: virtual ranks, six-op communicators, clocks.

This is the substrate that stands in for the paper's MPI cluster.  A
*rank program* is a generator function

.. code-block:: python

    def program(comm, graph):
        local = graph_slice(graph, comm.rank, comm.size)
        comm.charge(local.num_edges)              # local computation
        total = yield from comm.allreduce(local.num_edges)
        return total

executed simultaneously (in simulation) on ``P`` virtual ranks by
:func:`run_spmd`.  Communication methods are generator methods and must
be invoked as ``result = yield from comm.op(...)``; purely local
operations (:meth:`Comm.charge`, :meth:`Comm.set_phase`) are plain
calls.  The engine advances each rank until it blocks on communication,
matches communication requests across ranks, charges Hockney-model
costs to per-rank simulated clocks, and resumes ranks with the results.

Why coroutines and not threads: the evaluation sweeps P up to 1,024
virtual ranks; generator-based ranks cost ~micro-seconds to suspend and
resume, are deterministic (ranks are always stepped in rank order), and
cannot data-race.  The *data path is real* — collectives really move
the Python/NumPy payloads between rank programs — so distributed
algorithms compute real results while the clocks estimate what the
communication would cost on the modelled cluster.

Semantics notes
---------------
* :class:`Comm` offers the six operations the paper's rank programs
  post — ``barrier``, ``bcast``, ``gather``, ``allreduce`` (named
  reductions only), the nearest-neighbour ``exchange`` and ``split`` —
  and nothing else: there is no point-to-point path.
* A collective completes when *every* rank of its communicator has
  posted the *same* collective (kind, root and reduction op, checked
  by :mod:`repro.parallel.ops`); posting mismatched collectives raises
  :class:`~repro.errors.CommError`, and a state where no rank can
  advance raises :class:`~repro.errors.DeadlockError` naming the parked
  operations — both invaluable when debugging distributed algorithms.
* Payloads are delivered zero-copy: NumPy arrays arrive as *read-only
  views* (``flags.writeable = False``) of the sender's buffer, so halo
  exchanges, gathers and β-refreshes cost O(1) per array instead of
  a full copy.  Receivers that need to mutate call ``.copy()``
  explicitly (attempting in-place mutation raises ``ValueError``), and
  senders must not mutate a payload after posting it — a sender that
  needs to keep writing sends ``obj.copy()``.  This is the same
  contract as the :class:`~repro.graph.distributed.Shared` idiom.
* ``run_spmd(..., sanitize=True)`` (or ``REPRO_SANITIZE=1`` in the
  environment) enables the dynamic sanitizer
  (:mod:`repro.analysis.sanitizer`): posted payloads are checksummed
  and mutation before delivery raises :class:`CommError`, completed
  collectives are ledgered per rank and cross-checked on exit, and
  communication generators created without ``yield from`` are reported
  when their rank returns.
* ``run_spmd(..., faults=FaultPlan(...))`` injects deterministic rank
  kills (:mod:`repro.parallel.faults`): a rank dies at a scheduled or
  randomly drawn op index.  Surviving ranks that depend on it raise
  :class:`~repro.errors.RankFailure`; ``max_steps`` /
  ``max_sim_seconds`` convert runaway programs into a typed
  :class:`~repro.errors.BudgetExceededError`.  With ``faults=None``
  (default) none of this machinery is on the hot path.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.sanitizer import Sanitizer, payload_checksum
from ..errors import (
    BudgetExceededError,
    CommError,
    DeadlockError,
    RankFailure,
)
from ..rng import SeedLike, spawn_streams
from .faults import FaultEvent, FaultPlan
from .machine import MachineModel, QDR_CLUSTER
from .ops import (
    _ROOTED,
    _Group,
    _Op,
    _op_words,
    _readonly_payload,
    check_reduction_op,
    check_run,
    collective_results,
    expect_op,
    match_collective,
    op_desc,
    parked_entry,
    payload_words,
    plan_split,
)
from .trace import COLLECTIVE_KINDS, CommStats, DEFAULT_PHASE, PhaseBreakdown, SpmdResult

__all__ = ["Comm", "run_spmd", "payload_words"]

#: execution backends run_spmd can dispatch to
_BACKENDS = ("sim", "procs")


class Comm:
    """Per-rank handle to a communicator of the virtual machine.

    Mirrors the mpi4py lower-case object API for the six operations
    the rank programs post: ``barrier``, ``bcast``, ``gather``,
    ``allreduce``, ``exchange`` and ``split``.  Every communication
    method is a generator and must be driven with ``yield from``.
    """

    def __init__(self, engine: "_Engine", group: _Group, grank: int) -> None:
        self._engine = engine
        self._group = group
        self._grank = grank

    # -- local, non-yielding ----------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's index within the communicator."""
        return self._group.members.index(self._grank)

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._group.size

    @property
    def world_rank(self) -> int:
        """Global rank id in the world communicator."""
        return self._grank

    @property
    def rng(self) -> np.random.Generator:
        """Rank-private deterministic random stream."""
        return self._engine.rngs[self._grank]

    @property
    def machine(self) -> MachineModel:
        return self._engine.machine

    def charge(self, work: float) -> None:
        """Charge ``work`` units of local computation to this rank's clock."""
        self._engine.charge(self._grank, work)

    def charge_comm_seconds(self, seconds: float) -> None:
        """Book modelled communication time directly on this rank's clock.

        For phases whose functional execution is folded (computed once
        and shared) but whose real communication schedule is known
        analytically — e.g. the coarsest-graph embedding's per-iteration
        exchanges.  Use sparingly; prefer real collectives.
        """
        if seconds < 0:
            raise CommError("cannot charge negative communication time")
        self._engine.charge_comm(self._grank, seconds)

    def set_phase(self, name: str) -> None:
        """Attribute subsequent time to phase ``name`` (see Figures 7–8)."""
        self._engine.set_phase(self._grank, name)

    @property
    def clock(self) -> float:
        """Current simulated time on this rank (seconds)."""
        return float(self._engine.clocks[self._grank])

    # -- collectives ---------------------------------------------------------
    def barrier(self):
        yield _Op("barrier", self._group.cid)

    def bcast(self, obj: Any, root: int = 0, words: Optional[float] = None):
        result = yield _Op("bcast", self._group.cid, value=obj, root=root, words=words)
        return result

    def allreduce(self, value: Any, op: str = "sum", words: Optional[float] = None):
        """Reduce with the named ``op`` (``"sum"``, ``"prod"``, ``"min"``
        or ``"max"``); every rank gets the result."""
        check_reduction_op(op)
        result = yield _Op("allreduce", self._group.cid, value=value, op=op, words=words)
        return result

    def gather(self, value: Any, root: int = 0, words: Optional[float] = None):
        result = yield _Op("gather", self._group.cid, value=value, root=root, words=words)
        return result

    def exchange(self, messages: Dict[int, Any], words: Optional[float] = None):
        """Halo exchange: send ``messages[nbr]`` to each neighbour (local
        rank), receive ``{nbr: payload}`` from every rank that targeted
        this one.  All ranks of the communicator must participate (ranks
        with nothing to send pass ``{}``); posted as one synchronising
        step — the idiom for the per-iteration boundary exchanges of the
        lattice embedding."""
        result = yield _Op("exchange", self._group.cid, value=messages, words=words)
        return result

    def split(self, color: Any, key: int = 0):
        """Partition the communicator by ``color`` (``None`` = leave).

        Returns a new :class:`Comm` whose ranks are ordered by
        ``(key, old rank)``, or ``None`` for ranks with ``color=None``.
        """
        result = yield _Op("split", self._group.cid, color=color, key=key)
        return result


# ----------------------------------------------------------------------
# sanitized communicator
# ----------------------------------------------------------------------

class _SanitizedComm(Comm):
    """Comm whose communication generators register with the engine's
    sanitizer, so ops created without ``yield from`` can be reported
    when the rank program returns (lint rule SP101's dynamic twin)."""

    def _tracked(self, name: str, inner):
        return self._engine.sanitizer.track(self._grank, name, inner)


def _make_tracked_method(name: str):
    base = getattr(Comm, name)

    def method(self, *args: Any, **kwargs: Any):
        return self._tracked(name, base(self, *args, **kwargs))

    method.__name__ = name
    method.__doc__ = base.__doc__
    return method


# every Comm communication method, wrapped for undriven-generator tracking
for _name in COLLECTIVE_KINDS:
    setattr(_SanitizedComm, _name, _make_tracked_method(_name))
del _name


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

_READY, _PARKED, _DONE, _DEAD = 0, 1, 2, 3


class _RankState:
    __slots__ = ("grank", "gen", "status", "op", "result", "send_value")

    def __init__(self, grank: int, gen) -> None:
        self.grank = grank
        self.gen = gen
        self.status = _READY
        self.op: Optional[_Op] = None
        self.result: Any = None
        self.send_value: Any = None


class _Engine:
    def __init__(self, nranks: int, machine: MachineModel, seed: SeedLike,
                 sanitize: bool = False,
                 faults: Optional[FaultPlan] = None,
                 max_steps: Optional[int] = None,
                 max_sim_seconds: Optional[float] = None) -> None:
        self.machine = machine
        self.sanitizer: Optional[Sanitizer] = Sanitizer(nranks) if sanitize else None
        # fault injection + budgets: all None on the no-fault fast path,
        # so the hot loop pays only `is not None` checks
        self.faults = faults
        self.max_steps = max_steps
        self.max_sim_seconds = max_sim_seconds
        self.steps = 0
        self.op_counts = [0] * nranks if faults is not None else None
        self.dead: Dict[int, FaultEvent] = {}
        self.nranks = nranks
        self.clocks = np.zeros(nranks)
        self.comp_time = np.zeros(nranks)
        self.comm_time = np.zeros(nranks)
        self.phase = [DEFAULT_PHASE] * nranks
        self.phase_acc: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.rngs = spawn_streams(seed, nranks)
        self.groups: Dict[Any, _Group] = {}
        #: collectives completed per communicator (names split children)
        self.coll_seq: Dict[Any, int] = {}
        self.stats: Dict[str, CommStats] = defaultdict(
            lambda: CommStats.zeros(nranks))

    # -- accounting ----------------------------------------------------------
    def _phase_arrays(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        if name not in self.phase_acc:
            self.phase_acc[name] = (np.zeros(self.nranks), np.zeros(self.nranks))
        return self.phase_acc[name]

    def charge(self, grank: int, work: float) -> None:
        dt = self.machine.compute_cost(work)
        self.clocks[grank] += dt
        self.comp_time[grank] += dt
        self._phase_arrays(self.phase[grank])[0][grank] += dt

    def charge_comm(self, grank: int, dt: float) -> None:
        self.clocks[grank] += dt
        self.comm_time[grank] += dt
        self._phase_arrays(self.phase[grank])[1][grank] += dt

    def advance_to(self, grank: int, t: float) -> None:
        """Move a rank's clock forward to ``t``, booking the gap as comm."""
        if t > self.clocks[grank]:
            self.charge_comm(grank, t - float(self.clocks[grank]))

    def set_phase(self, grank: int, name: str) -> None:
        self.phase[grank] = name

    def stats_for(self, grank: int) -> CommStats:
        """Comm counters of the phase ``grank`` is currently in."""
        return self.stats[self.phase[grank]]

    def make_comm(self, group: _Group, grank: int) -> Comm:
        cls = Comm if self.sanitizer is None else _SanitizedComm
        return cls(self, group, grank)


def _env_sanitize() -> bool:
    """Default for ``run_spmd``'s ``sanitize`` from the environment."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on"
    )


def run_spmd(
    fn: Callable,
    nranks: int,
    *args: Any,
    machine: MachineModel = QDR_CLUSTER,
    seed: SeedLike = None,
    sanitize: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
    max_steps: Optional[int] = None,
    max_sim_seconds: Optional[float] = None,
    backend: str = "sim",
    op_timeout: Optional[float] = None,
    stall_timeout: Optional[float] = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute rank program ``fn`` on ``nranks`` virtual ranks.

    ``fn(comm, *args, **kwargs)`` must be a generator function (or a
    plain function if it performs no communication).  Returns a
    :class:`~repro.parallel.trace.SpmdResult` with per-rank return
    values and the simulated timing accounts.

    NumPy payloads are delivered as zero-copy read-only views (see the
    module docstring's semantics notes).

    ``sanitize`` enables the dynamic sanitizer (payload checksums, the
    collective ledger and undriven-generator errors — see the module
    docstring).  ``None`` (default) reads the ``REPRO_SANITIZE``
    environment variable, so a test shard can turn it on without
    touching call sites.  A correct rank program returns
    identical results with and without it.

    ``faults`` is a deterministic :class:`~repro.parallel.faults.
    FaultPlan` the scheduler consults to kill ranks; a run with a killed
    rank never returns: the surviving ranks that depend on it, or the
    end of the run, raise :class:`~repro.errors.RankFailure`.  ``max_steps``
    / ``max_sim_seconds`` bound the run (communication ops posted /
    simulated clock) and convert runaway programs into a typed
    :class:`~repro.errors.BudgetExceededError` instead of a hang.  With
    all three left ``None`` (the default) the engine takes the existing
    fast path unchanged.

    ``backend`` selects the executor: ``"sim"`` (default) is the
    deterministic single-process simulator documented above;
    ``"procs"`` runs the same rank program on one worker *process* per
    rank (:func:`~repro.parallel.procs.run_spmd_procs`) with measured
    wall-clock timing.  ``op_timeout`` bounds how long a procs-backend
    rank may block on one operation before a
    :class:`~repro.errors.DeadlockError`; ``stall_timeout`` bounds how
    long the procs parent tolerates *every* live rank sitting blocked
    at once before declaring a global deadlock via its heartbeat
    supervisor (both ignored by the simulator, which detects deadlocks
    exactly).  An unknown backend raises
    ``ValueError`` — catching typos that the engine's ``**kwargs``
    forwarding used to swallow silently.
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known backends: "
            + ", ".join(repr(b) for b in _BACKENDS)
        )
    if backend == "procs":
        from .procs import run_spmd_procs

        # env-derived sanitize is deliberately NOT resolved here: only an
        # explicit sanitize=True is an error on the procs backend
        return run_spmd_procs(
            fn, nranks, *args, machine=machine, seed=seed,
            sanitize=sanitize, faults=faults,
            max_steps=max_steps, max_sim_seconds=max_sim_seconds,
            op_timeout=op_timeout, stall_timeout=stall_timeout, **kwargs,
        )
    check_run(nranks)
    if sanitize is None:
        sanitize = _env_sanitize()
    eng = _Engine(nranks, machine, seed, sanitize=sanitize, faults=faults,
                  max_steps=max_steps, max_sim_seconds=max_sim_seconds)
    world = eng.groups[0] = _Group(0, tuple(range(nranks)))
    states: List[_RankState] = []
    for r in range(nranks):
        comm = eng.make_comm(world, r)
        out = fn(comm, *args, **kwargs)
        st = _RankState(r, out if inspect.isgenerator(out) else None)
        if st.gen is None:
            st.status = _DONE
            st.result = out
            _check_undriven(eng, r)
        states.append(st)

    ready = deque(st for st in states if st.status == _READY)
    while True:
        # 1. advance every runnable rank to its next blocking point
        while ready:
            st = ready.popleft()
            _step(eng, st)
        # 2. match parked requests
        progress = _complete_collectives(eng, states, ready)
        if eng.max_sim_seconds is not None \
                and float(eng.clocks.max()) > eng.max_sim_seconds:
            raise BudgetExceededError(
                f"simulated clock {float(eng.clocks.max()):.6g}s exceeded "
                f"the max_sim_seconds budget of {eng.max_sim_seconds:.6g}s",
                budget="sim_seconds", limit=eng.max_sim_seconds,
                used=float(eng.clocks.max()),
            )
        if ready:
            continue
        if all(st.status in (_DONE, _DEAD) for st in states):
            break
        if not progress:
            _raise_deadlock(eng, states)

    if eng.dead:
        # killed ranks never produced results: the job is incomplete
        # even if every survivor returned cleanly
        rank, ev = next(iter(sorted(eng.dead.items())))
        raise RankFailure(
            f"rank {rank} was killed in phase {ev.phase!r} at "
            f"t={ev.time:.6g}s (op {ev.op_index}) and never returned; "
            f"{len(eng.dead)} rank(s) dead at exit",
            dead_rank=rank, phase=ev.phase,
            sim_time=float(eng.clocks.max()),
        )
    _check_ledgers(eng)
    phases = {
        name: PhaseBreakdown(comp, comm)
        for name, (comp, comm) in eng.phase_acc.items()
    }
    comm_stats = CommStats.aggregate(eng.stats, nranks)
    return SpmdResult(
        values=[st.result for st in states],
        clocks=eng.clocks,
        comp_time=eng.comp_time,
        comm_time=eng.comm_time,
        phases=phases,
        comm_stats=comm_stats,
        **comm_stats.run_totals(),
    )


def _check_undriven(eng: _Engine, grank: int) -> None:
    """Sanitizer: fail if ``grank`` returned with undriven comm generators.

    Calling ``comm.bcast(...)`` without ``yield from`` builds a generator
    that never runs — the collective is silently never posted (lint rule
    SP101 catches the static pattern; this is the dynamic counterpart).
    """
    if eng.sanitizer is None:
        return
    leftover = eng.sanitizer.undriven_ops(grank)
    if leftover:
        ops = ", ".join(leftover)
        raise CommError(
            f"sanitizer: rank {grank} returned with {len(leftover)} "
            f"communication generator(s) it never drove: {ops}; "
            "communication methods must be driven with "
            "'yield from comm.<op>(...)' or the operation never executes"
        )


def _check_ledgers(eng: _Engine) -> None:
    """Sanitizer: cross-check per-communicator collective sequences."""
    if eng.sanitizer is None:
        return
    mismatch = eng.sanitizer.sequence_mismatch(eng.groups)
    if mismatch:
        raise CommError("sanitizer: " + mismatch)


def _sanitize_collective(eng: _Engine, kind: str, parked: List[_RankState]) -> None:
    """Verify posted-payload checksums and book the collective ledger."""
    root = parked[0].op.root if kind in _ROOTED else None
    for s in parked:
        if s.op.cksum is not None and payload_checksum(s.op.value) != s.op.cksum:
            raise CommError(
                f"sanitizer: rank {s.grank} had its {kind} payload mutated "
                "between posting the collective and its completion; other "
                "ranks alias this memory — post `obj.copy()` or delay the "
                "mutation until the collective completes"
            )
        eng.sanitizer.record_collective(s.grank, s.op.cid, kind, root)


def _kill_rank(eng: _Engine, st: _RankState, op_index: int) -> None:
    """Inject a rank death: close the generator, record the event the
    surviving ranks' :class:`~repro.errors.RankFailure` reports."""
    ev = FaultEvent(
        kind="kill", time=float(eng.clocks[st.grank]), rank=st.grank,
        op_index=op_index, phase=eng.phase[st.grank],
        detail=f"rank {st.grank} killed posting op {op_index}",
    )
    eng.dead[st.grank] = ev
    try:
        st.gen.close()
    except Exception:
        # a finally-block that yields raises on close; the rank is dead
        # either way
        pass
    st.op = None
    st.status = _DEAD


def _step(eng: _Engine, st: _RankState) -> None:
    """Run one rank until it parks on its next op or finishes."""
    value = st.send_value
    st.send_value = None
    try:
        op = st.gen.send(value)
    except StopIteration as stop:
        st.status = _DONE
        st.result = stop.value
        _check_undriven(eng, st.grank)
        return
    expect_op(st.grank, op)
    if eng.max_steps is not None:
        eng.steps += 1
        if eng.steps > eng.max_steps:
            raise BudgetExceededError(
                f"SPMD program posted more than max_steps="
                f"{eng.max_steps} communication operations",
                budget="steps", limit=eng.max_steps, used=eng.steps,
            )
    if eng.faults is not None:
        op_index = eng.op_counts[st.grank]
        eng.op_counts[st.grank] = op_index + 1
        if eng.faults.kill_now(st.grank, op_index, len(eng.dead)):
            _kill_rank(eng, st, op_index)
            return
    st.op = op
    st.status = _PARKED
    if eng.sanitizer is not None and op.value is not None:
        # snapshot the payload at post time; verified when the
        # collective completes (other ranks run in between and may
        # alias this memory via the Shared idiom)
        op.cksum = payload_checksum(op.value)


def _complete_collectives(eng: _Engine, states: List[_RankState], ready: deque) -> bool:
    # group parked collective ops by communicator
    by_cid: Dict[Any, List[_RankState]] = {}
    for st in states:
        if st.status == _PARKED and st.op is not None:
            by_cid.setdefault(st.op.cid, []).append(st)
    progress = False
    for cid, parked in by_cid.items():
        group = eng.groups[cid]
        if len(parked) != group.size:
            if eng.dead:
                dead_members = [g for g in group.members
                                if states[g].status == _DEAD]
                if dead_members:
                    # the collective can never complete: a member is dead
                    g = dead_members[0]
                    ev = eng.dead[g]
                    waiter = parked[0]
                    raise RankFailure(
                        f"collective '{waiter.op.kind}' on comm {cid} can "
                        f"never complete: rank {g} was killed in phase "
                        f"{ev.phase!r} at t={ev.time:.6g}s "
                        f"({len(parked)}/{group.size} ranks arrived)",
                        dead_rank=g, phase=ev.phase,
                        sim_time=float(eng.clocks[waiter.grank]),
                        detected_by=waiter.grank,
                    )
            # a member is missing: either still running (fine) or done (deadlock later)
            continue
        parked.sort(key=lambda s: group.members.index(s.grank))
        try:
            kind = match_collective(cid, [s.op for s in parked])
        except CommError as exc:
            if eng.sanitizer is None:
                raise
            history = "\n".join(
                "  " + eng.sanitizer.ledger_tail(s.grank) for s in parked
            )
            raise CommError(f"{exc}\nrecent collectives before the "
                            f"mismatch:\n{history}") from None
        if eng.sanitizer is not None:
            _sanitize_collective(eng, kind, parked)
        _count_collective(eng, kind, parked)
        _run_collective(eng, group, kind, parked)
        for st in parked:
            st.op = None
            st.status = _READY
            ready.append(st)
        progress = True
    return progress


def _count_collective(eng: _Engine, kind: str, parked: List[_RankState]) -> None:
    """Book one collective into the comm ledger (before clocks move).

    Every member books its participation, its contributed payload and
    the skew it absorbed waiting for the slowest member; the operation
    itself is counted once, in the phase of the communicator's first
    member.
    """
    t0 = max(float(eng.clocks[s.grank]) for s in parked)
    for s in parked:
        g = s.grank
        eng.stats_for(g).book_collective(g, kind, _op_words(s.op),
                                         t0 - float(eng.clocks[g]))
    eng.stats_for(parked[0].grank).book_collective_op(kind)


def _collective_words(kind: str, ops: List[_Op]) -> float:
    """Per-rank payload size the Hockney model charges a collective."""
    if kind == "barrier":
        return 0.0
    if kind == "split":
        return 1.0
    if kind == "bcast":
        return _op_words(ops[ops[0].root])
    return max(_op_words(o) for o in ops)


def _run_collective(eng: _Engine, group: _Group, kind: str, parked: List[_RankState]) -> None:
    p = group.size
    ops = [st.op for st in parked]
    t0 = max(float(eng.clocks[st.grank]) for st in parked)
    seq = eng.coll_seq.get(group.cid, 0)
    eng.coll_seq[group.cid] = seq + 1
    if kind == "split":
        results: List[Any] = []
        for st, child in zip(parked, plan_split(group, seq, ops)):
            if child is None:
                results.append(None)
                continue
            g = eng.groups.setdefault(child[0], _Group(*child))
            results.append(eng.make_comm(g, st.grank))
    else:
        results = collective_results(kind, ops, _readonly_payload)
    if kind == "exchange":
        for st, o, inbox in zip(parked, ops, results):
            msgs = o.value or {}
            out_words = (o.words if o.words is not None
                         else sum(payload_words(v) for v in msgs.values()))
            in_words = sum(payload_words(v) for v in inbox.values())
            cost = eng.machine.exchange_cost(len(msgs), float(out_words),
                                             float(in_words))
            eng.advance_to(st.grank, t0 + cost)
            st.send_value = inbox
        return
    t_done = t0 + eng.machine.collective_cost(kind, p, _collective_words(kind, ops))
    for st, result in zip(parked, results):
        eng.advance_to(st.grank, t_done)
        st.send_value = result


def _raise_deadlock(eng: _Engine, states: List[_RankState]) -> None:
    """No rank can progress: name every parked op with its context.

    Each blocked rank contributes one entry (kind, comm, phase) to both the message and the exception's ``parked`` list, so
    the deadlock is diagnosable without re-running under trace.
    """
    lines = []
    parked = []
    for st in states:
        if st.status in (_DONE, _DEAD):
            continue
        phase = eng.phase[st.grank]
        parked.append(parked_entry(st.grank, st.op, phase))
        desc = "running" if st.op is None else op_desc(st.op)
        lines.append(f"  rank {st.grank}: waiting on {desc} "
                     f"[phase {phase!r}]")
    if eng.dead:
        for rank, ev in sorted(eng.dead.items()):
            lines.append(f"  rank {rank}: DEAD (killed in phase "
                         f"{ev.phase!r} at t={ev.time:.6g}s)")
        rank, ev = next(iter(sorted(eng.dead.items())))
        raise RankFailure(
            "SPMD stalled after a rank failure: no surviving rank can "
            "make progress.\n" + "\n".join(lines),
            dead_rank=rank, phase=ev.phase,
            sim_time=float(eng.clocks.max()),
        )
    raise DeadlockError(
        "SPMD deadlock: no rank can make progress.\n" + "\n".join(lines),
        parked=parked,
    )
