"""Real-parallel executor: one OS process per rank (``backend="procs"``).

:func:`run_spmd_procs` runs the *same* rank programs the simulated
engine runs — unmodified generator functions driving the same
:class:`~repro.parallel.engine.Comm` surface — but each rank is a real
``multiprocessing`` worker (fork start method), collective payloads
move over per-rank queues, and large NumPy arrays travel pickle-free
through named ``shared_memory`` segments.  The simulated engine is the
executable oracle: for a deterministic rank program, both backends
must produce bit-identical per-rank results and identical
communication ledgers (asserted by
``tests/parallel/test_backend_parity.py``).

How parity is achieved
----------------------
Workers drive the engine's :class:`Comm` and every rule of what an op
means — matching, collective results, split naming, ledger booking —
comes from :mod:`repro.parallel.ops`, the core the simulator uses too.
Each collective is computed by the communicator's first member (local
rank 0) in local-rank order; every worker derives its ``comm.rng``
with :func:`~repro.rng.spawn_streams` from the one seed; the parent
merges the per-rank ledger columns.

What differs (and is documented in DESIGN §"Execution backends"):
clocks are *measured wall seconds* (not Hockney-model estimates), so
clock-dependent outputs are excluded from parity; received payloads
never alias the sender's memory (process isolation copies every
payload); ``sanitize=True`` and ``max_sim_seconds`` are simulated-only and raise
:class:`~repro.errors.ConfigError`; ``max_steps`` is enforced per rank
rather than globally.

Fault injection is real here: a scheduled or randomly drawn kill
(:class:`~repro.parallel.faults.KillRank`, ``kill_rate``) ends the
worker with ``os._exit`` and the parent surfaces a typed
:class:`~repro.errors.RankFailure`.  The kill draws hash the same
``(seed, attempt, rank, op)`` sites as on the simulator; ``max_kills``
caps random kills per *worker* rather than per run (no worker can
observe another's death).

Two layers of supervision bound a stalled run.  Per op: a blocked
operation polls its inbox with exponential backoff and raises
:class:`~repro.errors.DeadlockError` (with the simulator's parked-op
context dict) after ``op_timeout`` seconds.  Per run: every worker
publishes a heartbeat — ops completed, blocked/running state, and its
parked-op context — through shared arrays; when *every* live
unfinished worker has sat blocked for ``stall_timeout`` seconds the
parent declares the run deadlocked immediately instead of waiting out
the full per-op timeout.

On startup the parent also sweeps stale ``rpr``-prefixed ``/dev/shm``
segments whose creating process is gone (a previously *crashed* parent
never reached its own exit-path sweep) and reports the swept names via
:class:`~repro.errors.CommWarning`.
"""

from __future__ import annotations

import glob
import itertools
import os
import queue as _queue
import re
import time
import traceback
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import errors as _errors
from ..errors import (
    BudgetExceededError,
    CommError,
    CommWarning,
    ConfigError,
    DeadlockError,
    RankFailure,
)
from ..graph.distributed import Shared
from ..rng import SeedLike, spawn_streams
from .engine import _env_sanitize
from .faults import FaultPlan
from .machine import MachineModel, QDR_CLUSTER
from .ops import (
    _Group,
    _Op,
    _copy_payload,
    _op_words,
    check_run,
    collective_results,
    expect_op,
    match_collective,
    op_desc,
    parked_entry,
    plan_split,
)
from .trace import COLLECTIVE_KINDS, CommStats, DEFAULT_PHASE, PhaseBreakdown, SpmdResult

__all__ = ["run_spmd_procs", "procs_available", "DEFAULT_OP_TIMEOUT",
           "DEFAULT_STALL_TIMEOUT"]

#: default seconds a blocked op waits before raising DeadlockError
DEFAULT_OP_TIMEOUT = 120.0

#: default seconds of *every* live rank sitting blocked before the
#: parent's heartbeat supervisor declares a global deadlock (clamped to
#: op_timeout; a single blocked rank still waits the full op_timeout)
DEFAULT_STALL_TIMEOUT = 20.0

#: worker exit code signalling an injected KillRank (not a crash)
_KILLED_EXIT = 66

#: arrays at or above this many bytes travel via shared memory
_SHM_THRESHOLD = 1 << 16

#: parent poll interval while waiting for worker results (seconds)
_POLL = 0.1

_RUN_COUNTER = itertools.count()

#: one-shot latch for the REPRO_SANITIZE-is-ignored warning, so a CI
#: shard that launches hundreds of procs runs sees the notice once
_ENV_SANITIZE_WARNED = False


def _warn_env_sanitize_ignored() -> None:
    global _ENV_SANITIZE_WARNED
    if _ENV_SANITIZE_WARNED:
        return
    _ENV_SANITIZE_WARNED = True
    warnings.warn(
        "REPRO_SANITIZE is set but backend='procs' cannot sanitize: the "
        "payload sanitizer is simulated-only, so this run is NOT "
        "sanitized.  Unset REPRO_SANITIZE or use backend='sim' "
        "(pass sanitize=True explicitly to make this an error).",
        CommWarning,
        stacklevel=3,
    )

#: diagnostics of the most recent run in this process (leak tests)
_LAST_RUN: Dict[str, Any] = {}


def procs_available() -> bool:
    """Can ``backend="procs"`` run here?  Requires the fork start
    method (rank programs are closures and are inherited, never
    pickled)."""
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


# ----------------------------------------------------------------------
# shared-memory payload codec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _ShmArray:
    """Placeholder for an ndarray parked in a named shm segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    order: str  # "C" or "F"


class _SharedRef:
    """Pickled stand-in for :class:`Shared` (codec-internal)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def _untrack(shm) -> None:
    """Detach a freshly *created* segment from the resource tracker.

    Ownership is explicit here: the consumer unlinks (its attach-time
    registration and unlink-time unregistration balance out on
    CPython < 3.13, where attaching also registers) and the parent
    sweeps leftovers by name prefix.  Leaving the creator's
    registration in place would make the tracker double-unlink at
    interpreter exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class _SegmentFactory:
    """Names and creates this worker's outgoing shm segments."""

    def __init__(self, prefix: str, rank: int) -> None:
        self._prefix = prefix
        self._rank = rank
        self._seq = itertools.count()

    def new(self, nbytes: int):
        from multiprocessing.shared_memory import SharedMemory

        name = f"{self._prefix}r{self._rank}s{next(self._seq):x}"
        shm = SharedMemory(name=name, create=True, size=max(1, nbytes))
        _untrack(shm)
        return shm


def _encode_payload(obj: Any, seg: _SegmentFactory) -> Any:
    """Replace large arrays with shm placeholders; rebuild containers."""
    if isinstance(obj, np.ndarray):
        if obj.nbytes < _SHM_THRESHOLD:
            # small arrays pickle through the queue; strip read-only
            # views down to plain owned arrays first
            return obj if obj.flags.owndata and obj.flags.writeable \
                else obj.copy()
        if obj.flags.f_contiguous and not obj.flags.c_contiguous:
            order, data = "F", obj
        else:
            order, data = "C", np.ascontiguousarray(obj)
        shm = seg.new(data.nbytes)
        dst = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf,
                         order=order)
        dst[...] = data
        meta = _ShmArray(shm.name, data.dtype.str, tuple(data.shape), order)
        shm.close()
        return meta
    if isinstance(obj, list):
        return [_encode_payload(x, seg) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_encode_payload(x, seg) for x in obj)
    if isinstance(obj, dict):
        return {k: _encode_payload(v, seg) for k, v in obj.items()}
    if isinstance(obj, Shared):
        return _SharedRef(_encode_payload(obj.value, seg))
    return obj


def _decode_payload(obj: Any) -> Any:
    """Inverse of :func:`_encode_payload`; consumes (unlinks) segments."""
    if isinstance(obj, _ShmArray):
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(name=obj.name)
        src = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                         buffer=shm.buf, order=obj.order)
        arr = src.copy(order=obj.order)
        shm.close()
        shm.unlink()
        return arr
    if isinstance(obj, list):
        return [_decode_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_decode_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _decode_payload(v) for k, v in obj.items()}
    if isinstance(obj, _SharedRef):
        return Shared(_decode_payload(obj.value))
    return obj


def _drain_segments(obj: Any) -> None:
    """Unlink every segment referenced by an un-decoded payload
    (cleanup of messages that will never be delivered)."""
    if isinstance(obj, _ShmArray):
        from multiprocessing.shared_memory import SharedMemory

        try:
            shm = SharedMemory(name=obj.name)
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass
        return
    if isinstance(obj, (list, tuple)):
        for x in obj:
            _drain_segments(x)
    elif isinstance(obj, dict):
        for v in obj.values():
            _drain_segments(v)
    elif isinstance(obj, _SharedRef):
        _drain_segments(obj.value)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: park-kind encoding for the heartbeat channel (fixed order)
_PARK_KINDS: Tuple[str, ...] = tuple(sorted(COLLECTIVE_KINDS))

#: bytes reserved per rank for the heartbeat's phase label and comm id
_PHASE_BYTES = 24
_COMM_BYTES = 32


def _put_text(arr, rank: int, width: int, text: str) -> None:
    raw = text.encode("utf-8", "replace")[:width]
    arr[rank * width:(rank + 1) * width] = raw.ljust(width, b"\x00")


def _get_text(arr, rank: int, width: int) -> str:
    raw = bytes(arr[rank * width:(rank + 1) * width])
    return raw.rstrip(b"\x00").decode("utf-8", "replace")


class _Heartbeat:
    """Shared-array liveness channel between the workers and the parent.

    Each worker is the sole writer of its own slots: completed-op
    counter, running/blocked/done state with the monotonic time of the
    last transition, and (while blocked) the parked-op context the
    simulator's :class:`~repro.errors.DeadlockError` reports.  The
    parent reads the arrays lock-free — staleness of one poll interval
    is harmless because the supervisor only acts on *sustained*
    all-blocked states.
    """

    _RUNNING, _BLOCKED, _DONE = 0, 1, 2

    def __init__(self, nranks: int) -> None:
        from multiprocessing.sharedctypes import RawArray

        self.nranks = nranks
        self.state = RawArray("i", nranks)
        self.since = RawArray("d", [time.monotonic()] * nranks)
        self.ops = RawArray("q", nranks)
        self.kind = RawArray("i", [-1] * nranks)
        self.phase = RawArray("c", _PHASE_BYTES * nranks)
        self.comm = RawArray("c", _COMM_BYTES * nranks)

    # -- worker-side writers --------------------------------------------
    def blocked(self, rank: int, parked: Dict[str, Any]) -> None:
        self.kind[rank] = _PARK_KINDS.index(parked["kind"])
        _put_text(self.phase, rank, _PHASE_BYTES, str(parked.get("phase", "")))
        _put_text(self.comm, rank, _COMM_BYTES, str(parked["comm"]))
        self.since[rank] = time.monotonic()
        self.state[rank] = self._BLOCKED

    def running(self, rank: int) -> None:
        self.state[rank] = self._RUNNING
        self.since[rank] = time.monotonic()

    def op_done(self, rank: int) -> None:
        self.ops[rank] += 1

    def done(self, rank: int) -> None:
        self.state[rank] = self._DONE
        self.since[rank] = time.monotonic()

    # -- parent-side reader ---------------------------------------------
    def parked_of(self, rank: int) -> Dict[str, Any]:
        ki = self.kind[rank]
        # the world communicator is 0, split children are path strings
        cid = _get_text(self.comm, rank, _COMM_BYTES)
        return {
            "rank": rank,
            "kind": _PARK_KINDS[ki] if 0 <= ki < len(_PARK_KINDS) else "?",
            "comm": int(cid) if cid.isdigit() else cid or None,
            "phase": _get_text(self.phase, rank, _PHASE_BYTES),
        }


class _Router:
    """This worker's view of the message fabric.

    One inbound queue per rank; messages are ``(key, encoded)`` pairs,
    keyed by collective step (a member's contribution or the
    coordinator's result).  Out-of-order arrivals are buffered per key,
    preserving per-key FIFO order.  Blocking fetches poll with per-op
    exponential backoff — cheap sub-millisecond first polls for the
    common fast delivery, capped growth while parked — and publish
    their parked context on the heartbeat channel so the parent's
    supervisor can diagnose a global stall.
    """

    def __init__(self, inboxes: List[Any], grank: int,
                 timeout: float, hb: Optional[_Heartbeat] = None) -> None:
        self.inboxes = inboxes
        self.grank = grank
        self.timeout = timeout
        self.hb = hb
        self._buffer: Dict[Tuple, deque] = {}

    def post(self, dst_grank: int, key: Tuple, encoded: Any) -> None:
        self.inboxes[dst_grank].put((key, encoded))

    def fetch(self, key: Tuple, desc: str, parked: Dict[str, Any]) -> Any:
        """Blocking receive of the message filed under ``key``."""
        buf = self._buffer.get(key)
        if buf:
            return buf.popleft()
        deadline = time.monotonic() + self.timeout
        inbox = self.inboxes[self.grank]
        if self.hb is not None:
            self.hb.blocked(self.grank, parked)
        poll = 0.002
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"procs backend: rank {self.grank} made no progress "
                        f"for {self.timeout:.6g}s waiting on {desc} "
                        f"[phase {parked['phase']!r}]",
                        parked=[parked],
                    )
                try:
                    k, encoded = inbox.get(timeout=min(remaining, poll))
                except _queue.Empty:
                    poll = min(poll * 2.0, 0.25)
                    continue
                if k == key:
                    return encoded
                self._buffer.setdefault(k, deque()).append(encoded)
        finally:
            if self.hb is not None:
                self.hb.running(self.grank)

    def drain(self) -> None:
        """Consume leftover segments so nothing leaks on normal exit."""
        for q in self._buffer.values():
            for encoded in q:
                _drain_segments(encoded)
        inbox = self.inboxes[self.grank]
        while True:
            try:
                _, encoded = inbox.get_nowait()
            except _queue.Empty:
                return
            _drain_segments(encoded)


class _WorkerSide:
    """Engine stand-in inside one worker: the object a :class:`Comm`
    holds.  Time is *measured* (wall seconds between op boundaries);
    ``charge``/``charge_comm`` are therefore no-ops."""

    def __init__(self, grank: int, nranks: int, machine: MachineModel,
                 seed: SeedLike, router: _Router,
                 seg: _SegmentFactory,
                 hb: Optional[_Heartbeat] = None) -> None:
        self.grank = grank
        self.machine = machine
        self.rngs = spawn_streams(seed, nranks)
        self.router = router
        self.seg = seg
        self.hb = hb
        self.clocks = np.zeros(nranks)
        self.comp_time = 0.0
        self.comm_time = 0.0
        self.phase = DEFAULT_PHASE
        self.phase_acc: Dict[str, List[float]] = {}
        self.stats: Dict[str, CommStats] = defaultdict(
            lambda: CommStats.zeros(nranks))
        self.groups: Dict[Any, _Group] = {}
        self.coll_seq: Dict[Any, int] = {}
        self._mark = time.perf_counter()

    # -- Comm-facing surface -------------------------------------------
    def charge(self, grank: int, work: float) -> None:
        pass  # real time is measured, not modelled

    def charge_comm(self, grank: int, dt: float) -> None:
        pass

    def set_phase(self, grank: int, name: str) -> None:
        self.mark_comp()
        self.phase = name

    # -- wall-clock accounting ------------------------------------------
    def _phase_cell(self) -> List[float]:
        cell = self.phase_acc.get(self.phase)
        if cell is None:
            cell = self.phase_acc[self.phase] = [0.0, 0.0]
        return cell

    def _book(self, slot: int) -> None:
        now = time.perf_counter()
        dt = now - self._mark
        self._mark = now
        if dt <= 0:
            return
        self._phase_cell()[slot] += dt
        if slot == 0:
            self.comp_time += dt
        else:
            self.comm_time += dt
        self.clocks[self.grank] += dt

    def mark_comp(self) -> None:
        self._book(0)

    def mark_comm(self) -> None:
        self._book(1)

    def make_comm(self, group: _Group, grank: int):
        from .engine import Comm

        return Comm(self, group, grank)


def _collective(side: _WorkerSide, op: _Op) -> Any:
    """One collective step, computed by the communicator's first member.

    Members ship their requests to the coordinator, which matches and
    computes the results with :mod:`repro.parallel.ops` and posts each
    member its share.
    """
    cid = op.cid
    group = side.groups[cid]
    seq = side.coll_seq.get(cid, 0)
    side.coll_seq[cid] = seq + 1
    me = side.grank
    side.stats[side.phase].book_collective(me, op.kind, _op_words(op))
    coord = group.members[0]
    desc, parked = op_desc(op), parked_entry(me, op, side.phase)
    if me != coord:
        contrib = (op.kind, op.root, op.color, op.key, op.op,
                   _encode_payload(op.value, side.seg))
        side.router.post(coord, ("cc", me, seq, cid), contrib)
        result = _decode_payload(
            side.router.fetch(("cr", cid, seq), desc, parked))
    else:
        ops: List[_Op] = [op]
        for member in group.members[1:]:
            contrib = side.router.fetch(("cc", member, seq, cid), desc, parked)
            kind, root, color, key, redop, encoded = contrib
            ops.append(_Op(kind, cid, value=_decode_payload(encoded), root=root,
                           op=redop, color=color, key=key))
        kind = match_collective(cid, ops)
        if kind == "split":
            results = plan_split(group, seq, ops)
        else:
            # identity delivery: the shm codec copies every payload it posts
            results = collective_results(kind, ops, lambda v: v)
        side.stats[side.phase].book_collective_op(kind)
        for member, res in zip(group.members[1:], results[1:]):
            side.router.post(member, ("cr", cid, seq),
                             _encode_payload(res, side.seg))
        result = _copy_payload(results[0])
    if op.kind == "split" and result is not None:
        child = side.groups[result[0]] = _Group(*result)
        return side.make_comm(child, me)
    return result


def _drive(side: _WorkerSide, gen, plan: Optional[FaultPlan],
           max_steps: Optional[int]) -> Any:
    """Drive one rank program to completion against the real fabric."""
    value = None
    op_index = 0
    side._mark = time.perf_counter()
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            side.mark_comp()
            return stop.value
        side.mark_comp()
        expect_op(side.grank, op)
        if max_steps is not None and op_index + 1 > max_steps:
            raise BudgetExceededError(
                f"rank {side.grank} posted more than max_steps={max_steps} "
                "communication operations (the procs backend bounds each "
                "rank separately)",
                budget="steps", limit=max_steps, used=op_index + 1,
            )
        if plan is not None and plan.kill_now(side.grank, op_index, 0):
            os._exit(_KILLED_EXIT)
        op_index += 1
        value = _collective(side, op)
        if side.hb is not None:
            side.hb.op_done(side.grank)
        side.mark_comm()


def _worker_entry(rank: int, nranks: int, fn, args, kwargs,
                  machine: MachineModel, seed: SeedLike, prefix: str,
                  inboxes, results_q, plan: Optional[FaultPlan],
                  max_steps: Optional[int], op_timeout: float,
                  hb: Optional[_Heartbeat]) -> None:
    """Process entry point for one rank (fork: everything inherited)."""
    import inspect

    seg = _SegmentFactory(prefix, rank)
    router = _Router(inboxes, rank, op_timeout, hb=hb)
    side = _WorkerSide(rank, nranks, machine, seed, router, seg, hb=hb)
    world = _Group(0, tuple(range(nranks)))
    side.groups[0] = world
    comm = side.make_comm(world, rank)
    try:
        out = fn(comm, *args, **kwargs)
        if inspect.isgenerator(out):
            result = _drive(side, out, plan, max_steps)
        else:
            result = out
        router.drain()
        payload = _encode_payload({
            "value": result,
            "pid": os.getpid(),
            "clock": float(side.clocks[rank]),
            "comp": side.comp_time,
            "comm": side.comm_time,
            "phase_acc": dict(side.phase_acc),
            "stats": {name: s.to_dict() for name, s in side.stats.items()},
        }, seg)
        results_q.put(("done", rank, payload))
    except BaseException as exc:  # noqa: BLE001 - reconstructed in parent
        attrs = {}
        for name in ("parked", "dead_rank", "phase", "sim_time",
                     "detected_by", "budget", "limit", "used"):
            if hasattr(exc, name):
                attrs[name] = getattr(exc, name)
        results_q.put(("error", rank, type(exc).__name__, str(exc), attrs,
                       traceback.format_exc()))
    finally:
        if hb is not None:
            hb.done(rank)
        results_q.close()
        results_q.join_thread()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def _validate(nranks: int, sanitize: Optional[bool],
              faults: Optional[FaultPlan],
              max_sim_seconds: Optional[float]) -> None:
    check_run(nranks)
    if sanitize:
        raise ConfigError(
            "sanitize=True is simulated-only: the dynamic sanitizer "
            "instruments the in-process scheduler and cannot observe "
            "payloads across process boundaries; run backend='sim' to "
            "sanitize (REPRO_SANITIZE is ignored by backend='procs')"
        )
    if max_sim_seconds is not None:
        raise ConfigError(
            "max_sim_seconds is simulated-only (the procs backend has no "
            "modelled clock); use max_steps or op_timeout instead"
        )
    if not procs_available():
        raise CommError(
            "backend='procs' requires the fork start method "
            "(rank programs are closures and cannot be pickled)"
        )


def _raise_worker_error(rank: int, cls_name: str, message: str,
                        attrs: Dict[str, Any], tb: str) -> None:
    cls = getattr(_errors, cls_name, None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        if cls is DeadlockError:
            raise DeadlockError(message, parked=attrs.get("parked"))
        exc = cls(message)
        for name, value in attrs.items():
            setattr(exc, name, value)
        raise exc
    raise CommError(
        f"procs backend: rank {rank} raised {cls_name}: {message}\n{tb}"
    )


def _scheduled_kill_for(faults: Optional[FaultPlan],
                        rank: int) -> Optional[int]:
    """op ordinal of the active scheduled kill for ``rank``, if any."""
    if faults is None:
        return None
    for k in faults.kills:
        if k.rank == rank and faults._active(k.attempts):
            return k.at_op
    return None


def _sweep_segments(prefix: str) -> List[str]:
    """Remove leftover /dev/shm segments of this run; return their names."""
    leaked = []
    for path in glob.glob(f"/dev/shm/{prefix}*"):
        leaked.append(os.path.basename(path))
        try:
            os.unlink(path)
        except OSError:
            pass
    return sorted(leaked)


_STALE_SEGMENT_RE = re.compile(r"^rpr([0-9a-f]+)g")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError, OSError):
        return True  # exists (or unknowable) — leave its segments alone
    return True


def _sweep_stale_segments() -> List[str]:
    """Remove ``rpr``-prefixed segments whose creating parent is gone.

    A *crashed* parent never reaches its own exit-path sweep, so its
    run's segments would accumulate in /dev/shm across runs.  Segment
    names embed the creating parent's pid (``rpr{pid:x}g…``); anything
    from a dead pid — other than our own — is fair game.  Returns the
    swept names so the caller can surface them in a CommWarning.
    """
    swept = []
    own = os.getpid()
    for path in glob.glob("/dev/shm/rpr*"):
        name = os.path.basename(path)
        m = _STALE_SEGMENT_RE.match(name)
        if m is None:
            continue
        try:
            pid = int(m.group(1), 16)
        except ValueError:  # pragma: no cover - regex guarantees hex
            continue
        if pid == own or _pid_alive(pid):
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        swept.append(name)
    return sorted(swept)


def run_spmd_procs(
    fn,
    nranks: int,
    *args: Any,
    machine: MachineModel = QDR_CLUSTER,
    seed: SeedLike = None,
    sanitize: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
    max_steps: Optional[int] = None,
    max_sim_seconds: Optional[float] = None,
    op_timeout: Optional[float] = None,
    stall_timeout: Optional[float] = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute rank program ``fn`` on ``nranks`` worker *processes*.

    Same contract as :func:`~repro.parallel.engine.run_spmd` (which
    delegates here for ``backend="procs"``); see the module docstring
    for the semantic differences.  The returned
    :class:`~repro.parallel.trace.SpmdResult` has ``backend="procs"``,
    wall-clock timing accounts, and the per-rank worker ``pids``.

    ``stall_timeout`` bounds a *global* stall: when every live
    unfinished worker has sat blocked that long, the parent raises
    :class:`~repro.errors.DeadlockError` without waiting out the full
    per-op ``op_timeout``.  Defaults to
    ``min(op_timeout, DEFAULT_STALL_TIMEOUT)``.
    """
    import multiprocessing as mp

    _validate(nranks, sanitize, faults, max_sim_seconds)
    if sanitize is None and _env_sanitize():
        _warn_env_sanitize_ignored()
    if op_timeout is None:
        op_timeout = DEFAULT_OP_TIMEOUT
    if stall_timeout is None:
        stall_timeout = min(op_timeout, DEFAULT_STALL_TIMEOUT)

    stale = _sweep_stale_segments()
    if stale:
        warnings.warn(
            f"backend='procs' swept {len(stale)} stale shared-memory "
            "segment(s) left behind by dead processes: "
            + ", ".join(stale),
            CommWarning,
            stacklevel=2,
        )

    ctx = mp.get_context("fork")
    prefix = f"rpr{os.getpid():x}g{next(_RUN_COUNTER):x}"
    inboxes = [ctx.Queue() for _ in range(nranks)]
    results_q = ctx.Queue()
    hb = _Heartbeat(nranks)
    workers = [
        ctx.Process(
            target=_worker_entry,
            args=(r, nranks, fn, args, kwargs, machine, seed, prefix,
                  inboxes, results_q, faults, max_steps, op_timeout, hb),
            daemon=True,
        )
        for r in range(nranks)
    ]
    done: Dict[int, Dict[str, Any]] = {}
    error: Optional[Tuple] = None
    report = _LAST_RUN
    report.clear()
    report.update({"prefix": prefix, "leaked": None, "stale_swept": stale})
    try:
        for w in workers:
            w.start()
        deadline = time.monotonic() + op_timeout + 30.0 * max(1, nranks)
        while len(done) < nranks and error is None:
            try:
                msg = results_q.get(timeout=_POLL)
            except _queue.Empty:
                msg = None
            if msg is not None:
                if msg[0] == "done":
                    done[msg[1]] = _decode_payload(msg[2])
                else:
                    error = msg
                continue
            # no message: check for silently dead workers
            for r, w in enumerate(workers):
                if r in done or w.exitcode is None:
                    continue
                # drain once more — the result may have raced the exit
                try:
                    while True:
                        msg = results_q.get_nowait()
                        if msg[0] == "done":
                            done[msg[1]] = _decode_payload(msg[2])
                        else:
                            error = msg
                except _queue.Empty:
                    pass
                if r in done or error is not None:
                    break
                at_op = _scheduled_kill_for(faults, r)
                if w.exitcode == _KILLED_EXIT:
                    if at_op is not None:
                        where = f"at op {at_op}"
                    else:
                        where = (f"at op {int(hb.ops[r])} "
                                 "(random kill_rate draw)")
                    detail = (f"rank {r} was killed (injected fault) "
                              f"{where} and never returned")
                else:
                    detail = (f"rank {r} worker process died with exit code "
                              f"{w.exitcode} before returning a result")
                raise RankFailure(
                    "procs backend: " + detail, dead_rank=r, phase="",
                    sim_time=0.0,
                )
            if error is not None:
                continue
            # heartbeat supervision: when every live unfinished worker
            # has sat blocked for stall_timeout, no message can ever
            # arrive — declare the deadlock now instead of waiting out
            # the full per-op timeout
            pending = [r for r, w in enumerate(workers)
                       if r not in done and w.exitcode is None]
            if pending and all(hb.state[r] == _Heartbeat._BLOCKED
                               for r in pending):
                newest = max(hb.since[r] for r in pending)
                if time.monotonic() - newest > stall_timeout:
                    raise DeadlockError(
                        f"procs backend: all {len(pending)} unfinished "
                        f"rank(s) sat blocked for {stall_timeout:.6g}s "
                        "(heartbeat supervision); the run was terminated",
                        parked=[hb.parked_of(r) for r in pending],
                    )
            if time.monotonic() > deadline:
                raise DeadlockError(
                    f"procs backend: no worker produced a result within "
                    f"{op_timeout:.6g}s (+grace); the run was terminated",
                    parked=[],
                )
        if error is not None:
            _, rank, cls_name, message, attrs, tb = error
            _raise_worker_error(rank, cls_name, message, attrs, tb)
    finally:
        for w in workers:
            if w.is_alive():
                w.terminate()
        for w in workers:
            w.join(timeout=5.0)
        for q in inboxes:
            q.cancel_join_thread()
            q.close()
        results_q.cancel_join_thread()
        results_q.close()
        report["leaked"] = _sweep_segments(prefix)

    # ---- assemble the cross-rank result -------------------------------
    recs = [done[r] for r in range(nranks)]
    phases: Dict[str, PhaseBreakdown] = defaultdict(
        lambda: PhaseBreakdown.zeros(nranks))
    stats: Dict[str, CommStats] = defaultdict(lambda: CommStats.zeros(nranks))
    for r, rec in enumerate(recs):
        for name, (comp, comm) in rec["phase_acc"].items():
            phases[name].comp[r] += comp
            phases[name].comm[r] += comm
        for name, d in rec["stats"].items():
            stats[name].add(CommStats.from_dict(d))
    comm_stats = CommStats.aggregate(stats, nranks)
    return SpmdResult(
        values=[rec["value"] for rec in recs],
        clocks=np.array([rec["clock"] for rec in recs], dtype=np.float64),
        comp_time=np.array([rec["comp"] for rec in recs], dtype=np.float64),
        comm_time=np.array([rec["comm"] for rec in recs], dtype=np.float64),
        phases=dict(phases),
        comm_stats=comm_stats,
        backend="procs",
        pids=[rec["pid"] for rec in recs],
        **comm_stats.run_totals(),
    )
