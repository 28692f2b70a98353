"""Deterministic fault model for the SPMD engine (chaos engineering).

The paper targets 1,024-processor runs, where rank failures are the
operating norm rather than the exception.  This module describes *what
goes wrong* in a run — the engine
(:func:`repro.parallel.engine.run_spmd` with ``faults=...``) consults a
:class:`FaultPlan` each time a rank posts an operation, and the
recovery ladder in :func:`repro.core.parallel.run_parallel` decides what
to do about the resulting typed errors.

Design constraints
------------------
* **Deterministic.**  Same seed + same plan ⇒ the identical fault
  sequence, run after run.  Scheduled kills (:class:`KillRank`) fire
  at fixed op ordinals; random kills are decided by counter-based
  hashing (``SeedSequence`` over
  ``(seed, attempt, site)``), never by drawing from a shared stream, so
  a decision for one site cannot perturb any other.
* **Transient by default.**  Real faults are tied to a moment, not to
  the job: a re-run lands on different hardware.  Scheduled faults
  therefore fire on attempt 0 only unless ``attempts=None`` (every
  attempt) or an explicit attempt tuple is given; random faults are
  re-drawn per attempt.  The recovery ladder advances the plan's
  ``attempt`` epoch via :meth:`FaultPlan.for_attempt`.
* **Observable.**  A killed rank never lets the run return: the
  :class:`~repro.errors.RankFailure` that ends it names the dead rank
  and the phase it died in, read from the kill's :class:`FaultEvent`.

Fault kind
----------
``kill`` is the one kind: a rank dies when it posts its ``at_op``-th
communication operation (or when the ``kill_rate`` draw for that op
fires); surviving ranks that depend on it raise
:class:`~repro.errors.RankFailure`.  The rank programs post only
collectives and the nearest-neighbour ``exchange``, so there is no
point-to-point message a drop, duplicate, delay or corrupt fault could
land on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..errors import CommError

__all__ = ["FaultEvent", "FaultPlan", "KillRank"]

#: salt namespace of the kill draws in the counter-based hash
_SALT_KILL = 0x4B

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

    kind: str            #: "kill"
    time: float          #: simulated seconds at injection
    rank: int = -1       #: killed rank
    op_index: int = -1   #: rank-local op ordinal the rank died posting
    phase: str = ""      #: phase of the killed rank at injection
    detail: str = ""     #: human-readable description


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


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of rank kills for one SPMD run.

    Combine *scheduled* kills (``kills``) with a *random* per-op kill
    probability (``kill_rate``).  Random decisions hash ``(seed,
    attempt, rank, op)`` so the same plan produces the identical fault
    sequence every run, and a different ``attempt`` epoch (see
    :meth:`for_attempt`) re-draws them — faults are transient across
    recovery attempts, the way real hardware faults are.
    """

    seed: int = 0
    kills: Tuple[KillRank, ...] = ()
    #: per-op probability that a rank dies posting that op
    kill_rate: float = 0.0
    #: cap on random kills per attempt (scheduled kills are uncapped)
    max_kills: int = 1
    #: recovery epoch — advanced by the ladder, not set by hand
    attempt: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_rate <= 1.0:
            raise CommError(f"fault rate {self.kill_rate} outside [0, 1]")
        object.__setattr__(self, "kills", tuple(self.kills))

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
