"""SPMD virtual machine: coroutine ranks, six communicator ops, Hockney costs."""

from .checkpoint import (
    CheckpointKey,
    CheckpointStore,
    graph_content_hash,
)
from .engine import Comm, payload_words, run_spmd
from .faults import FaultEvent, FaultPlan, KillRank
from .machine import MachineModel, QDR_CLUSTER, ZERO_COST
from .procs import procs_available, run_spmd_procs
from .topology import ProcessGrid, grid_dims
from .trace import (
    CommStats,
    GLOBAL_COLLECTIVES,
    PhaseBreakdown,
    SpmdResult,
    read_trace_jsonl,
    trace_records,
    write_trace_jsonl,
)

__all__ = [
    "CheckpointKey",
    "CheckpointStore",
    "graph_content_hash",
    "Comm",
    "payload_words",
    "run_spmd",
    "FaultEvent",
    "FaultPlan",
    "KillRank",
    "MachineModel",
    "QDR_CLUSTER",
    "ZERO_COST",
    "procs_available",
    "run_spmd_procs",
    "ProcessGrid",
    "grid_dims",
    "PhaseBreakdown",
    "CommStats",
    "GLOBAL_COLLECTIVES",
    "SpmdResult",
    "read_trace_jsonl",
    "trace_records",
    "write_trace_jsonl",
]
