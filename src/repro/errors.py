"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures without
swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid graph operations."""


class PartitionError(ReproError):
    """Raised for invalid partitions (non-covering, unbalanced, ...).

    When a recovery ladder runs out of rungs, ``recovery`` holds its
    trail in the form a recovered run reports as
    ``extras["recovery"]``: ``{"attempts": [...], "recovered": False}``.
    """

    recovery = None


class EmbeddingError(ReproError):
    """Raised when an embedding cannot be computed or is degenerate."""


class GeometryError(ReproError):
    """Raised by the geometric partitioner (degenerate point sets, ...)."""


class CommError(ReproError):
    """Raised by the virtual parallel machine for communication misuse."""


class DeadlockError(CommError):
    """Raised when the SPMD engine detects that no rank can make progress.

    ``parked`` carries one dict per blocked rank — ``rank``, ``kind``
    (the op the rank is parked on), ``comm`` and ``phase`` — so a
    deadlock is diagnosable without re-running under trace.
    """

    def __init__(self, message: str, parked=None) -> None:
        super().__init__(message)
        self.parked = list(parked) if parked else []


class RankFailure(CommError):
    """A virtual rank was killed (fault injection) and the job depends
    on it.

    Raised when a surviving rank waits on a collective the dead rank can
    never join, or at exit when a killed rank's result is missing.  Carries
    the dead rank, the phase it died in, and the simulated clock at the
    point of detection.
    """

    def __init__(self, message: str, *, dead_rank: int = -1,
                 phase: str = "", sim_time: float = 0.0,
                 detected_by=None) -> None:
        super().__init__(message)
        self.dead_rank = dead_rank
        self.phase = phase
        self.sim_time = sim_time
        self.detected_by = detected_by


class BudgetExceededError(CommError):
    """A simulated-execution budget was exhausted.

    :func:`~repro.parallel.engine.run_spmd` converts runaway programs
    into this typed error instead of a hang when ``max_steps`` or
    ``max_sim_seconds`` is set.  ``budget`` names the exhausted limit
    (``"steps"`` or ``"sim_seconds"``); ``limit``/``used`` quantify it.
    """

    def __init__(self, message: str, *, budget: str = "steps",
                 limit: float = 0.0, used: float = 0.0) -> None:
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.used = used


class CommWarning(UserWarning):
    """Suspicious but non-fatal SPMD communication outcome.

    Emitted by ``backend="procs"`` runs when ``REPRO_SANITIZE`` is set
    (that backend cannot sanitize) and when a run sweeps stale
    shared-memory segments left behind by dead processes.
    """


class ConfigError(ReproError):
    """Raised for invalid configuration values."""


class CheckpointError(ReproError):
    """A checkpoint artifact cannot be used (missing, corrupt, or keyed
    to a different run).

    Raised by :meth:`~repro.parallel.checkpoint.CheckpointStore.load`;
    the resume path in :func:`~repro.core.parallel.run_parallel` always
    catches it — an unusable checkpoint demotes to a full recompute,
    never to a failed run.
    """


class CheckpointWarning(UserWarning):
    """A checkpoint artifact was found but ignored (corrupt payload,
    crc mismatch, stale key).  The run continues with a full recompute;
    the warning names the file and the reason so operators can clean up
    a poisoned checkpoint directory."""
