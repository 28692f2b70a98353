"""Deterministic fault model for the SPMD engine (chaos engineering).

The paper targets 1,024-processor runs, where rank failures and lost or
late messages are the operating norm rather than the exception.  This
module describes *what goes wrong* in a run — the engine
(:func:`repro.parallel.engine.run_spmd` with ``faults=...``) consults a
:class:`FaultPlan` while it schedules ranks and messages, and the
recovery ladder in :func:`repro.core.parallel.run_parallel` decides what
to do about the resulting typed errors.

Design constraints
------------------
* **Deterministic.**  Same seed + same plan ⇒ the identical fault
  sequence, run after run.  Scheduled faults (:class:`KillRank`,
  :class:`MessageFault`) fire at fixed op/message ordinals; random
  faults are decided by counter-based hashing (``SeedSequence`` over
  ``(seed, attempt, site)``), never by drawing from a shared stream, so
  a decision for one site cannot perturb any other.
* **Transient by default.**  Real faults are tied to a moment, not to
  the job: a re-run lands on different hardware.  Scheduled faults
  therefore fire on attempt 0 only unless ``attempts=None`` (every
  attempt) or an explicit attempt tuple is given; random faults are
  re-drawn per attempt.  The recovery ladder advances the plan's
  ``attempt`` epoch via :meth:`FaultPlan.for_attempt`.
* **Observable.**  Every injected fault becomes a :class:`FaultEvent`
  on the run's :class:`~repro.parallel.trace.SpmdResult` and a
  ``{"record": "fault"}`` line in the JSONL trace.

Fault kinds
-----------
``kill``
    a rank dies when it posts its ``at_op``-th communication operation;
    surviving ranks that depend on it raise
    :class:`~repro.errors.RankFailure`.
``drop`` / ``duplicate`` / ``delay``
    a point-to-point message is lost (the receiver blocks — typically a
    :class:`~repro.errors.DeadlockError`), delivered twice, or arrives
    late by ``delay`` simulated seconds.
``corrupt``
    the delivered payload is perturbed.  Under ``sanitize=True`` the
    posted-payload checksum no longer matches at delivery and the run
    raises :class:`~repro.errors.CommError`; without the sanitizer the
    corruption flows through and the recovery ladder's balance
    validation is the last line of defence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CommError

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "KillRank",
    "MessageFault",
    "MESSAGE_FAULT_KINDS",
    "corrupt_payload",
]

#: every point-to-point fault kind a plan can inject
MESSAGE_FAULT_KINDS: Tuple[str, ...] = ("drop", "duplicate", "delay", "corrupt")

#: salt namespaces for the counter-based hash (keep decisions independent)
_SALT_KILL = 0x4B
_SALT_MSG = 0x6D
_SALT_DELAY = 0x64

_MASK63 = 0x7FFFFFFFFFFFFFFF


def _uniform(*salt: int) -> float:
    """Deterministic uniform in ``[0, 1)`` from integer salts.

    Counter-based (one hash per decision site) so fault decisions are
    independent of each other and of evaluation order.
    """
    ss = np.random.SeedSequence([int(s) & _MASK63 for s in salt])
    return float(ss.generate_state(1, dtype=np.uint64)[0]) / float(2 ** 64)


# ----------------------------------------------------------------------
# events (what actually happened during a run)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded at its simulated injection time."""

    kind: str            #: "kill" | "drop" | "duplicate" | "delay" | "corrupt"
    time: float          #: simulated seconds at injection
    rank: int = -1       #: killed rank, or the sender of a faulted message
    dest: int = -1       #: global destination rank (message faults)
    tag: int = -1        #: message tag (message faults)
    op_index: int = -1   #: rank-local op ordinal (kills)
    msg_index: int = -1  #: sender-local send ordinal (message faults)
    phase: str = ""      #: phase of the affected rank at injection
    detail: str = ""     #: human-readable description

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the JSONL trace)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "rank": self.rank,
            "dest": self.dest,
            "tag": self.tag,
            "op_index": self.op_index,
            "msg_index": self.msg_index,
            "phase": self.phase,
            "detail": self.detail,
        }


# ----------------------------------------------------------------------
# scheduled faults
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KillRank:
    """Kill ``rank`` when it posts its ``at_op``-th communication op.

    ``attempts`` restricts the kill to specific recovery attempts
    (default: attempt 0 only — a transient node failure); ``None``
    means every attempt (a hard failure that forces the ladder down to
    fewer ranks or a sequential fallback).
    """

    rank: int
    at_op: int = 0
    attempts: Optional[Tuple[int, ...]] = (0,)


@dataclass(frozen=True)
class MessageFault:
    """Apply ``kind`` to the ``index``-th point-to-point send of ``rank``.

    ``index`` counts that sender's own sends.  The sender-local ordinal
    is identical on both backends, so the fault fires at the same
    logical message everywhere.  ``delay`` is the extra seconds for
    ``kind="delay"`` (simulated on the sim backend, wall-clock on
    procs).
    """

    kind: str
    index: int
    rank: int
    delay: float = 0.0
    attempts: Optional[Tuple[int, ...]] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_FAULT_KINDS:
            raise CommError(
                f"unknown message-fault kind {self.kind!r}; expected one "
                f"of {MESSAGE_FAULT_KINDS}"
            )


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of faults for one SPMD run.

    Combine *scheduled* faults (``kills``, ``messages``) with *random*
    rates (per-op kill probability, per-message drop/duplicate/delay/
    corrupt probabilities).  Random decisions hash ``(seed, attempt,
    site)`` so the same plan produces the identical fault sequence every
    run, and a different ``attempt`` epoch (see :meth:`for_attempt`)
    re-draws them — faults are transient across recovery attempts, the
    way real hardware faults are.
    """

    seed: int = 0
    kills: Tuple[KillRank, ...] = ()
    messages: Tuple[MessageFault, ...] = ()
    #: per-op probability that a rank dies posting that op
    kill_rate: float = 0.0
    #: per-message probabilities (checked in this order, first hit wins)
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: scale of random delays (simulated seconds)
    mean_delay: float = 1e-4
    #: cap on random kills per attempt (scheduled kills are uncapped)
    max_kills: int = 1
    #: recovery epoch — advanced by the ladder, not set by hand
    attempt: int = 0

    def __post_init__(self) -> None:
        for rate in (self.kill_rate, self.drop_rate, self.duplicate_rate,
                     self.delay_rate, self.corrupt_rate):
            if not 0.0 <= rate <= 1.0:
                raise CommError(f"fault rate {rate} outside [0, 1]")
        object.__setattr__(self, "kills", tuple(self.kills))
        object.__setattr__(self, "messages", tuple(self.messages))

    # -- epochs ---------------------------------------------------------
    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The same plan as seen by recovery attempt ``attempt``."""
        return replace(self, attempt=int(attempt))

    def _active(self, attempts: Optional[Tuple[int, ...]]) -> bool:
        return attempts is None or self.attempt in attempts

    # -- engine queries -------------------------------------------------
    def kill_now(self, rank: int, op_index: int, killed_so_far: int) -> bool:
        """Should ``rank`` die posting its ``op_index``-th op?"""
        for k in self.kills:
            if k.rank == rank and k.at_op == op_index and self._active(k.attempts):
                return True
        if self.kill_rate > 0.0 and killed_so_far < self.max_kills:
            return _uniform(self.seed, self.attempt, _SALT_KILL,
                            rank, op_index) < self.kill_rate
        return False

    def message_fault(
        self, sender: int, sender_index: int
    ) -> Optional[Tuple[str, float]]:
        """Fault (kind, delay-seconds) for the ``sender_index``-th send
        of ``sender``, or ``None`` for clean delivery.

        The sender-local ordinal is the site random rates hash on, so a
        plan's faults land on the same logical messages under
        ``backend="sim"`` and ``backend="procs"``.
        """
        for m in self.messages:
            if self._active(m.attempts) and m.rank == sender \
                    and m.index == sender_index:
                return m.kind, m.delay
        rates = (("drop", self.drop_rate), ("duplicate", self.duplicate_rate),
                 ("delay", self.delay_rate), ("corrupt", self.corrupt_rate))
        for pos, (kind, rate) in enumerate(rates):
            if rate > 0.0 and _uniform(self.seed, self.attempt, _SALT_MSG,
                                       pos, sender, sender_index) < rate:
                delay = 0.0
                if kind == "delay":
                    delay = self.mean_delay * (0.5 + _uniform(
                        self.seed, self.attempt, _SALT_DELAY, sender,
                        sender_index))
                return kind, delay
        return None

    # -- introspection --------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Can this plan inject anything at all?"""
        return bool(self.kills or self.messages or self.kill_rate
                    or self.drop_rate or self.duplicate_rate
                    or self.delay_rate or self.corrupt_rate)

    def describe(self) -> str:
        """One-line human-readable summary (chaos CLI reports)."""
        parts: List[str] = [f"seed={self.seed}", f"attempt={self.attempt}"]
        if self.kills:
            parts.append(f"kills={len(self.kills)}")
        if self.messages:
            parts.append(f"messages={len(self.messages)}")
        for name in ("kill_rate", "drop_rate", "duplicate_rate",
                     "delay_rate", "corrupt_rate"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value:g}")
        return "FaultPlan(" + ", ".join(parts) + ")"


# ----------------------------------------------------------------------
# payload corruption
# ----------------------------------------------------------------------

def corrupt_payload(obj: Any, salt: int) -> Tuple[Any, str]:
    """Deterministically perturb one element of a payload.

    Returns ``(corrupted, description)``; ``description`` is ``""``
    when the payload holds nothing corruptible (the delivery proceeds
    unchanged, but the event is still recorded).  Arrays are copied —
    the sender's buffer is never touched — and delivered read-only if
    the original view was.
    """
    if isinstance(obj, np.ndarray):
        if obj.size == 0:
            return obj, ""
        out = obj.copy()
        idx = salt % obj.size
        flat = out.reshape(-1)
        if out.dtype == np.bool_:
            flat[idx] = ~flat[idx]
            desc = f"flipped element {idx}"
        elif np.issubdtype(out.dtype, np.integer):
            flat[idx] = flat[idx] ^ 1
            desc = f"bit-flipped element {idx}"
        elif np.issubdtype(out.dtype, np.floating) \
                or np.issubdtype(out.dtype, np.complexfloating):
            flat[idx] = flat[idx] + 1.0
            desc = f"perturbed element {idx}"
        else:
            return obj, ""
        if not obj.flags.writeable:
            out.flags.writeable = False
        return out, f"{desc} of {out.dtype} array"
    if isinstance(obj, bool):
        return (not obj), "flipped bool"
    if isinstance(obj, int):
        return obj ^ 1, "bit-flipped int"
    if isinstance(obj, float):
        return obj + 1.0, "perturbed float"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        for i, item in enumerate(items):
            new, desc = corrupt_payload(item, salt)
            if desc:
                items[i] = new
                where = f"item {i}: {desc}"
                return (items if isinstance(obj, list) else tuple(items)), where
        return obj, ""
    if isinstance(obj, dict):
        out = dict(obj)
        for key in out:
            new, desc = corrupt_payload(out[key], salt)
            if desc:
                out[key] = new
                return out, f"key {key!r}: {desc}"
        return obj, ""
    return obj, ""
