"""Execution traces and results for the SPMD virtual machine.

The paper's Figures 7–8 break ScalaPart's runtime into components
(coarsening / embedding / partitioning) and, within embedding, into
computation vs communication.  The engine therefore accounts every
simulated second to a *phase* (a label the algorithm sets via
``comm.set_phase``) and within the phase to either computation or
communication.  :class:`SpmdResult` exposes those accounts.

Phases are hierarchical: a label like ``"embed/refresh"`` is a child of
``"embed"``, and :meth:`SpmdResult.phase` / :meth:`CommStats.phase`
aggregate a parent over all of its children, so coarse queries
("how much time did embedding take?") keep working when algorithms
label finer stages.

Communication observability
---------------------------
The paper's central claims are *communication* claims — ScalaPart wins
by replacing global collectives with blocked (stale-tolerant) β-refresh
and nearest-neighbour ghost exchange.  Clock seconds alone cannot
verify that, so the engine additionally maintains a :class:`CommStats`
ledger: per-rank, per-phase collective invocations by kind, words
moved, and wait/idle seconds (time a rank sat parked because of skew,
beyond the modelled transfer cost).
:func:`trace_records` / :func:`write_trace_jsonl` serialise the full
account as JSON-lines so benchmarks and external tools can assert
communication-volume claims (e.g. the Fig. 8 block-size ablation)
instead of only timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PhaseBreakdown",
    "CommStats",
    "SpmdResult",
    "COLLECTIVE_KINDS",
    "GLOBAL_COLLECTIVES",
    "trace_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
]

DEFAULT_PHASE = "main"

#: Separator of hierarchical phase labels ("embed/refresh" ⊂ "embed").
PHASE_SEP = "/"

#: Every operation a :class:`~repro.parallel.engine.Comm` can post — all
#: of them collectives over a communicator.
COLLECTIVE_KINDS: Tuple[str, ...] = (
    "barrier", "bcast", "allreduce", "gather", "split", "exchange",
)

#: Collectives that synchronise the whole communicator and move data
#: through a tree/butterfly — the operations the paper's blocked
#: β-refresh exists to amortise.  ``exchange`` is deliberately *not*
#: here: it is the nearest-neighbour halo pattern whose per-iteration
#: use is the point of the algorithm.
GLOBAL_COLLECTIVES: Tuple[str, ...] = ("bcast", "allreduce", "gather")


def _subphases(phases: Dict[str, Any], name: str) -> List[str]:
    """Keys of ``phases`` equal to ``name`` or nested under it."""
    prefix = name + PHASE_SEP
    return [k for k in phases if k == name or k.startswith(prefix)]


@dataclass
class PhaseBreakdown:
    """Per-rank computation/communication seconds for one phase."""

    comp: np.ndarray
    comm: np.ndarray

    @property
    def elapsed(self) -> float:
        """Max over ranks of (comp + comm) within this phase."""
        total = self.comp + self.comm
        return float(total.max()) if total.size else 0.0

    @property
    def comp_elapsed(self) -> float:
        return float(self.comp.max()) if self.comp.size else 0.0

    @property
    def comm_elapsed(self) -> float:
        return float(self.comm.max()) if self.comm.size else 0.0

    @property
    def comm_fraction(self) -> float:
        """Fraction of this phase's elapsed time spent communicating
        (on the critical-path rank)."""
        e = self.elapsed
        if e <= 0:
            return 0.0
        i = int(np.argmax(self.comp + self.comm))
        return float(self.comm[i] / (self.comp[i] + self.comm[i]))

    @classmethod
    def zeros(cls, nranks: int) -> "PhaseBreakdown":
        return cls(np.zeros(nranks), np.zeros(nranks))

    @classmethod
    def merged(cls, parts: Sequence["PhaseBreakdown"], nranks: int) -> "PhaseBreakdown":
        """Element-wise sum of several breakdowns (phase aggregation)."""
        out = cls.zeros(nranks)
        for ph in parts:
            out.comp += ph.comp
            out.comm += ph.comm
        return out


@dataclass
class CommStats:
    """Per-rank communication counters for one phase (or a whole run).

    The engine increments these as the data moves; they are *measured*
    counts, not analytic estimates, which is what lets tests assert
    communication claims (one world allreduce bumps ``collectives
    ["allreduce"]`` by exactly one on every rank).

    Attributes
    ----------
    sends / recvs / words_sent / words_received:
        point-to-point message and word counts.  :class:`~repro.parallel.
        engine.Comm` has no point-to-point operation, so these stay 0;
        they are kept so ledgers and JSONL traces keep one schema.
    collectives:
        kind -> per-rank participation counts; a collective over a
        sub-communicator only increments its members.
    collective_ops:
        kind -> number of completed collective *operations* (one world
        allreduce is one op regardless of P).
    collective_words:
        per-rank words contributed to collectives.
    wait_time:
        per-rank idle seconds: time spent parked waiting for peers
        beyond the modelled transfer cost of the operation itself.
    phases:
        per-phase child stats (empty on the per-phase entries).
    """

    nranks: int
    sends: np.ndarray
    recvs: np.ndarray
    words_sent: np.ndarray
    words_received: np.ndarray
    collectives: Dict[str, np.ndarray]
    collective_ops: Dict[str, int]
    collective_words: np.ndarray
    wait_time: np.ndarray
    phases: Dict[str, "CommStats"] = field(default_factory=dict)

    # -- construction ------------------------------------------------------
    @classmethod
    def zeros(cls, nranks: int) -> "CommStats":
        return cls(
            nranks=nranks,
            sends=np.zeros(nranks),
            recvs=np.zeros(nranks),
            words_sent=np.zeros(nranks),
            words_received=np.zeros(nranks),
            collectives={},
            collective_ops={},
            collective_words=np.zeros(nranks),
            wait_time=np.zeros(nranks),
        )

    def _coll_array(self, kind: str) -> np.ndarray:
        arr = self.collectives.get(kind)
        if arr is None:
            arr = self.collectives[kind] = np.zeros(self.nranks)
        return arr

    # -- mutation (engine-facing) -----------------------------------------
    # ``wait`` is idle time beyond the modelled cost of the op itself
    def book_collective(self, rank: int, kind: str, words: float,
                        wait: float = 0.0) -> None:
        """``rank``'s participation in one collective."""
        self._coll_array(kind)[rank] += 1
        self.collective_words[rank] += words
        if wait > 0:
            self.wait_time[rank] += wait

    def book_collective_op(self, kind: str) -> None:
        """One completed collective, booked once per operation."""
        self.collective_ops[kind] = self.collective_ops.get(kind, 0) + 1

    def add(self, other: "CommStats") -> None:
        """Accumulate ``other`` into this record (in place)."""
        self.sends += other.sends
        self.recvs += other.recvs
        self.words_sent += other.words_sent
        self.words_received += other.words_received
        self.collective_words += other.collective_words
        self.wait_time += other.wait_time
        for kind, arr in other.collectives.items():
            self._coll_array(kind)[:] += arr
        for kind, nops in other.collective_ops.items():
            self.collective_ops[kind] = self.collective_ops.get(kind, 0) + nops

    @classmethod
    def aggregate(cls, phases: Dict[str, "CommStats"], nranks: int) -> "CommStats":
        """Run-level totals carrying the per-phase records as children."""
        out = cls.zeros(nranks)
        for stats in phases.values():
            out.add(stats)
        out.phases = dict(phases)
        return out

    # -- queries -----------------------------------------------------------
    def phase(self, name: str) -> "CommStats":
        """Stats of one phase, aggregated over its hierarchical children
        (zeros if the phase never communicated)."""
        keys = _subphases(self.phases, name)
        out = CommStats.zeros(self.nranks)
        for k in keys:
            out.add(self.phases[k])
        return out

    @property
    def total_messages(self) -> int:
        """Point-to-point messages posted, over all ranks."""
        return int(self.sends.sum())

    def run_totals(self) -> Dict[str, Any]:
        """The run-level counters of :class:`SpmdResult`."""
        return {"messages": self.total_messages,
                "collectives": sum(self.collective_ops.values()),
                "words_sent": float(self.words_sent.sum())}

    @property
    def total_words(self) -> float:
        """Words moved: point-to-point plus collective contributions."""
        return float(self.words_sent.sum() + self.collective_words.sum())

    @property
    def total_wait(self) -> float:
        return float(self.wait_time.sum())

    def collective_invocations(
        self, kinds: Optional[Iterable[str]] = None
    ) -> int:
        """Completed collective operations, summed over ``kinds``
        (default: the globally-synchronising kinds — excludes the
        nearest-neighbour ``exchange`` plus ``barrier``/``split``)."""
        if kinds is None:
            kinds = GLOBAL_COLLECTIVES
        return sum(self.collective_ops.get(k, 0) for k in kinds)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (used by the JSONL trace)."""
        return {
            "nranks": self.nranks,
            "sends": self.sends.tolist(),
            "recvs": self.recvs.tolist(),
            "words_sent": self.words_sent.tolist(),
            "words_received": self.words_received.tolist(),
            "collectives": {k: v.tolist() for k, v in sorted(self.collectives.items())},
            "collective_ops": dict(sorted(self.collective_ops.items())),
            "collective_words": self.collective_words.tolist(),
            "wait_time": self.wait_time.tolist(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CommStats":
        nranks = int(d["nranks"])
        return cls(
            nranks=nranks,
            sends=np.asarray(d["sends"], dtype=np.float64),
            recvs=np.asarray(d["recvs"], dtype=np.float64),
            words_sent=np.asarray(d["words_sent"], dtype=np.float64),
            words_received=np.asarray(d["words_received"], dtype=np.float64),
            collectives={
                k: np.asarray(v, dtype=np.float64)
                for k, v in d.get("collectives", {}).items()
            },
            collective_ops={k: int(v) for k, v in d.get("collective_ops", {}).items()},
            collective_words=np.asarray(d["collective_words"], dtype=np.float64),
            wait_time=np.asarray(d["wait_time"], dtype=np.float64),
        )

    def summary(self) -> str:
        """One-line human-readable account."""
        colls = ", ".join(
            f"{k}={n}" for k, n in sorted(self.collective_ops.items()) if n
        )
        return (
            f"msgs={self.total_messages} words={self.total_words:.0f} "
            f"wait={self.total_wait * 1e3:.3f}ms colls[{colls}]"
        )


@dataclass
class SpmdResult:
    """Result of one :func:`~repro.parallel.engine.run_spmd` execution.

    Attributes
    ----------
    values:
        per-rank return values of the rank program.
    clocks:
        final simulated clock of every rank (seconds).
    comp_time / comm_time:
        per-rank split of the clock into computation and communication.
    phases:
        per-phase :class:`PhaseBreakdown` (phase labels are set by the
        algorithms via ``comm.set_phase``; hierarchical via ``/``).
    messages / collectives:
        counts of point-to-point messages (always 0: there is no
        point-to-point operation) and of collective operations.
    words_sent:
        total 8-byte words moved by point-to-point messages (always 0).
    comm_stats:
        full per-rank, per-phase communication ledger (:class:`CommStats`).
    backend:
        which executor produced the result: ``"sim"`` (clocks are
        Hockney-model estimates) or ``"procs"`` (clocks are measured
        wall seconds on real worker processes).
    pids:
        per-rank OS process ids (``None`` on the simulated backend,
        where every rank shares the host process).
    """

    values: List[Any]
    clocks: np.ndarray
    comp_time: np.ndarray
    comm_time: np.ndarray
    phases: Dict[str, PhaseBreakdown]
    messages: int = 0
    collectives: int = 0
    words_sent: float = 0.0
    comm_stats: Optional[CommStats] = None
    backend: str = "sim"
    pids: Optional[List[int]] = None

    @property
    def nranks(self) -> int:
        return int(self.clocks.shape[0])

    @property
    def elapsed(self) -> float:
        """Simulated execution time: the maximum rank clock."""
        return float(self.clocks.max()) if self.clocks.size else 0.0

    @property
    def comm_fraction(self) -> float:
        """Communication share of the critical-path rank's time."""
        if self.clocks.size == 0 or self.elapsed == 0:
            return 0.0
        i = int(np.argmax(self.clocks))
        return float(self.comm_time[i] / self.clocks[i])

    def phase(self, name: str) -> PhaseBreakdown:
        """Breakdown for one phase, aggregated over hierarchical
        children (zeros if the phase never ran)."""
        keys = _subphases(self.phases, name)
        if len(keys) == 1:
            return self.phases[keys[0]]
        return PhaseBreakdown.merged([self.phases[k] for k in keys], self.nranks)

    def phase_elapsed(self, name: str) -> float:
        return self.phase(name).elapsed

    def phase_roots(self) -> List[str]:
        """Top-level phase names, in sorted order."""
        return sorted({k.split(PHASE_SEP, 1)[0] for k in self.phases})

    def phase_comm_stats(self, name: str) -> CommStats:
        """Comm counters of one phase (zeros when untracked)."""
        if self.comm_stats is None:
            return CommStats.zeros(self.nranks)
        return self.comm_stats.phase(name)

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        parts = [
            f"P={self.nranks}",
            f"T={self.elapsed * 1e3:.3f}ms",
            f"comm={100 * self.comm_fraction:.1f}%",
            f"msgs={self.messages}",
            f"colls={self.collectives}",
        ]
        for name, ph in sorted(self.phases.items()):
            parts.append(f"{name}={ph.elapsed * 1e3:.3f}ms")
        return " ".join(parts)


# ----------------------------------------------------------------------
# JSONL trace export
# ----------------------------------------------------------------------

def trace_records(result: SpmdResult) -> Iterator[Dict[str, Any]]:
    """Serialise a run as a stream of JSON-able records.

    The stream starts with one ``run`` record (per-rank clock accounts
    and run-level communication totals), followed by one ``phase``
    record per phase label in sorted order, each combining the phase's
    time breakdown with its communication counters.
    """
    stats = result.comm_stats
    run: Dict[str, Any] = {
        "record": "run",
        "backend": result.backend,
        "nranks": result.nranks,
        "elapsed": result.elapsed,
        "clocks": result.clocks.tolist(),
        "comp_time": result.comp_time.tolist(),
        "comm_time": result.comm_time.tolist(),
        "messages": result.messages,
        "collectives": result.collectives,
        "words_sent": result.words_sent,
    }
    if result.pids is not None:
        run["pids"] = list(result.pids)
    if stats is not None:
        run["comm"] = stats.to_dict()
    yield run
    for name in sorted(result.phases):
        ph = result.phases[name]
        rec: Dict[str, Any] = {
            "record": "phase",
            "phase": name,
            "comp": ph.comp.tolist(),
            "comm": ph.comm.tolist(),
            "elapsed": ph.elapsed,
            "comm_fraction": ph.comm_fraction,
        }
        if stats is not None and name in stats.phases:
            rec["comm_stats"] = stats.phases[name].to_dict()
        yield rec


def write_trace_jsonl(result: SpmdResult, dest: Union[str, IO[str]]) -> None:
    """Write the trace of ``result`` to ``dest`` (path or text file)."""
    if hasattr(dest, "write"):
        for rec in trace_records(result):
            dest.write(json.dumps(rec) + "\n")
    else:
        with open(dest, "w") as fh:
            write_trace_jsonl(result, fh)


def read_trace_jsonl(src: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into its records (inverse of
    :func:`write_trace_jsonl`; ``comm``/``comm_stats`` payloads can be
    rebuilt with :meth:`CommStats.from_dict`)."""
    if hasattr(src, "read"):
        return [json.loads(line) for line in src if line.strip()]
    with open(src) as fh:
        return read_trace_jsonl(fh)
