"""The end-to-end workloads: fixed inputs, one round's jobs, checks.

A job is what a user does once: load the graph, partition it, get a
validated answer.  Every round of a workload runs the same jobs with
the same job seeds, so rounds differ only by the machine and the
median round is a steady estimate.  The inputs do not depend on the
workload seed either: per-job wall varies by about ±5% with the job
seed and by about ±10% with the random mesh, on top of a spread across
runs the machine already makes 2-11%.  Jobs call ``read_metis``,
``scalapart`` and ``run_parallel`` through their module attributes at
call time, so the span wrappers of ``trace.py`` see every call; the
benchmark never goes through ``repro.bench`` and so never touches
``.bench_cache/``.

Why each workload exists (README.md has the measured phase shares):

* ``seq-grid-bisect`` — the plain single-process baseline on a grid
  whose coarsest layouts are large enough for Barnes–Hut.  Embedding is
  most of the job and the engine layers do nothing, so coarsen/embed
  kernel gains show here.
* ``procs-kway-delaunay`` — real processes on both cores, an irregular
  mesh, K=8: the only workload running the k-way partition phase.
* ``sim-paper-sweep`` — how users regenerate the paper's figures: four
  methods × P∈{4,16} × two suite graphs on the simulator.  Sixteen
  virtual ranks put the coroutine engine, delivery and ledger booking
  on the hot path; the only workload with modelled time, and its
  coarsest layouts are small enough for the exact repulsion.
* ``procs-resume-recover`` — the same pipeline used differently: one
  fresh job writes the embedding checkpoint, three resume from it, one
  is killed and retried.  Four jobs of five skip embedding, so process
  start-up/teardown, reading and checkpointing weigh most here.
"""

from __future__ import annotations

import contextlib
import glob
import importlib
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import parallel as core_parallel
from repro.core.methods import get_method
from repro.graph import generators, suite
from repro.graph import io as graph_io
from repro.parallel.faults import FaultPlan, KillRank
from repro.rng import DEFAULT_SEED

# ``repro.core.scalapart`` the attribute is the function re-exported by
# ``repro.core``; the module is what the span wrapper patches
core_scalapart = importlib.import_module("repro.core.scalapart")

#: real-process runs use one rank per core of the 2-core reference box
NRANKS = 2
#: the seed of every job, and of the random mesh and the suite graphs
#: (the figure harness's seed, so the sweep runs the figures' graphs)
JOB_SEED = 1
GRAPH_SEED = DEFAULT_SEED

SEQ_GRID_SIDE = 320
KWAY_VERTICES = 100_000
KWAY_PARTS = 8
SIM_SCALE = 1.0
SIM_GRAPHS = ("delaunay_n20", "hugebubbles-00020")
SIM_METHODS = ("ScalaPart", "ParMetis-like", "Pt-Scotch-like", "RCB")
SIM_NRANKS = (4, 16)
RESUME_GRID_SIDE = 320
RESUME_REPEATS = 3
#: the kill lands in the resumed SP-PG7-NL program's geometric phase
KILL_AT_OP = 3

#: the small inputs of the warm-up round and of ``--quick``
QUICK_GRID_SIDE = 32
QUICK_KWAY_VERTICES = 1_500
QUICK_SIM_SCALE = 0.1


@dataclass
class Job:
    """One user-visible job: ``run()`` returns ``(graph, PartitionResult)``."""

    jid: str
    method: str
    run: Callable[[], Tuple[Any, Any]]
    k: int = 2


@dataclass
class Outcome:
    """What one job produced, as checked from outside the program."""

    jid: str
    vertices: int = 0
    cut: Optional[int] = None
    imbalance: Optional[float] = None
    facts: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def balance_bound(method: str) -> float:
    """The method's declared bound, else the one recovery validates
    against (``RetryPolicy.validate_imbalance``)."""
    spec = get_method(method)
    if spec.balance_bound is not None:
        return spec.balance_bound
    return core_parallel.RetryPolicy().validate_imbalance


def check_partition(graph, result, k: int, bound: float) -> List[str]:
    """Validate labels, balance and the reported cut independently."""
    n = graph.num_vertices
    parts = np.asarray(result.parts)
    if parts.shape != (n,):
        return [f"labels have shape {parts.shape}, expected ({n},)"]
    if n and (parts.min() < 0 or parts.max() >= k):
        return [f"labels outside [0, {k})"]
    weights = np.bincount(parts, weights=graph.vwgt, minlength=k)
    problems = []
    if (weights == 0).any():
        problems.append("a part is empty")
    imbalance = float(weights.max() / (graph.vwgt.sum() / k) - 1.0)
    if imbalance > bound + 1e-12:
        problems.append(f"imbalance {imbalance:.4f} exceeds bound {bound}")
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    cut = int(np.count_nonzero(parts[src] != parts[graph.indices])) // 2
    if cut != result.cut_size:
        problems.append(f"reported cut {result.cut_size} != recomputed {cut}")
    return problems


def job_facts(result) -> Dict[str, Any]:
    """The result fields the metrics read (JSON-safe)."""
    ex = result.extras
    facts: Dict[str, Any] = {"backend": ex.get("backend", "seq")}
    if "geometric_cut" in ex:
        facts["geometric_cut"] = float(ex["geometric_cut"])
    if "strip_size" in ex:
        facts["strip_size"] = int(ex["strip_size"])
    if "sizes" in ex:
        facts["sizes"] = [int(s) for s in ex["sizes"]]
    if facts["backend"] in ("sim", "procs"):
        spmd, stats = ex["trace"], ex["comm_stats"]
        facts.update(
            seconds=float(result.seconds),
            phases={k: float(v) for k, v in result.stage_seconds.items()
                    if "/" not in k},
            messages=int(spmd.messages),
            collectives=int(spmd.collectives),
            words=float(stats.total_words),
            wait=float(stats.total_wait),
            comm_fraction=float(ex["comm_fraction"]),
        )
    if "checkpoint" in ex:
        facts["resumed_from"] = ex["checkpoint"]["resumed_from"]
    if "recovery" in ex:
        facts["trail"] = [[a["step"], a["status"], a.get("resumed_from")]
                          for a in ex["recovery"]["attempts"]]
    return facts


def leaked_segments() -> List[str]:
    """Shared-memory segments left by this process's procs runs."""
    return sorted(glob.glob(f"/dev/shm/rpr{os.getpid():x}g*"))


def run_job(job: Job, tracer=None) -> Outcome:
    """Run and validate one job; a raised error becomes a problem."""
    out = Outcome(job.jid)
    scope = tracer.span("job") if tracer is not None else contextlib.nullcontext()
    try:
        with scope:
            graph, result = job.run()
            out.problems += check_partition(graph, result, job.k,
                                            balance_bound(job.method))
    except Exception as exc:  # the benchmark must finish and report it
        traceback.print_exc()
        out.problems.append(f"{type(exc).__name__}: {exc}")
        return out
    out.vertices = graph.num_vertices
    out.cut = int(result.cut_size)
    out.imbalance = float(result.imbalance)
    out.facts = job_facts(result)
    return out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """Inputs, the jobs of one round, round checks."""

    name = ""
    backend = "seq"

    def build(self, workdir: Path, quick: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def jobs(self, inputs: Dict[str, Any], round_dir: Path) -> List[Job]:
        raise NotImplementedError

    def check_round(self, outcomes: List[Outcome]) -> None:
        """Cross-job expectations; problems go on the offending outcome."""


def _grid_file(side: int, workdir: Path) -> Path:
    path = workdir / f"grid{side}.graph"
    graph_io.write_metis(generators.grid2d(side, side).graph, path)
    return path


def _read(path: Path):
    return graph_io.read_metis(str(path))


class SeqGridBisect(Workload):
    name = "seq-grid-bisect"
    backend = "seq"

    def build(self, workdir, quick):
        return {"path": _grid_file(QUICK_GRID_SIDE if quick else SEQ_GRID_SIDE,
                                   workdir)}

    def jobs(self, inputs, round_dir):
        def run():
            g = _read(inputs["path"])
            return g, core_scalapart.scalapart(g, seed=JOB_SEED)
        return [Job("scalapart", "ScalaPart", run)]


class ProcsKwayDelaunay(Workload):
    name = "procs-kway-delaunay"
    backend = "procs"

    def build(self, workdir, quick):
        n = QUICK_KWAY_VERTICES if quick else KWAY_VERTICES
        path = workdir / f"delaunay{n}.graph"
        graph_io.write_metis(
            generators.random_delaunay(n, seed=GRAPH_SEED).graph, path)
        return {"path": path}

    def jobs(self, inputs, round_dir):
        def run():
            g = _read(inputs["path"])
            return g, core_parallel.run_parallel(
                "KWay-Geometric", g, NRANKS, k=KWAY_PARTS, backend="procs",
                seed=JOB_SEED)
        return [Job(f"kway{KWAY_PARTS}", "KWay-Geometric", run, k=KWAY_PARTS)]


class SimPaperSweep(Workload):
    name = "sim-paper-sweep"
    backend = "sim"

    def build(self, workdir, quick):
        # held in memory, as the figure harness does; the small inputs
        # trim the sweep to one graph at P=4
        names = SIM_GRAPHS[:1] if quick else SIM_GRAPHS
        scale = QUICK_SIM_SCALE if quick else SIM_SCALE
        return {"graphs": {n: suite.build(n, scale, seed=GRAPH_SEED)
                           for n in names},
                "nranks": SIM_NRANKS[:1] if quick else SIM_NRANKS}

    def jobs(self, inputs, round_dir):
        def make(method, p, name, gg):
            coords = gg.coords if get_method(method).needs_coords else None

            def run():
                return gg.graph, core_parallel.run_parallel(
                    method, gg.graph, p, coords=coords, seed=JOB_SEED)
            return Job(f"{method}/P{p}/{name}", method, run)
        return [make(m, p, name, gg) for m in SIM_METHODS
                for p in inputs["nranks"]
                for name, gg in inputs["graphs"].items()]


class ProcsResumeRecover(Workload):
    name = "procs-resume-recover"
    backend = "procs"

    def build(self, workdir, quick):
        return {"path": _grid_file(
            QUICK_GRID_SIDE if quick else RESUME_GRID_SIDE, workdir)}

    def jobs(self, inputs, round_dir):
        store = str(round_dir / "checkpoint")

        def make(jid, **kw):
            def run():
                g = _read(inputs["path"])
                return g, core_parallel.run_parallel(
                    "ScalaPart", g, NRANKS, backend="procs", seed=JOB_SEED,
                    checkpoint=store, **kw)
            return Job(jid, "ScalaPart", run)
        kill = FaultPlan(kills=(KillRank(rank=1, at_op=KILL_AT_OP),))
        return ([make("fresh")]
                + [make(f"resume{i}") for i in range(RESUME_REPEATS)]
                + [make("kill-retry", faults=kill,
                        retry=core_parallel.RetryPolicy())])

    def check_round(self, outcomes):
        fresh, *resumed, kill = outcomes
        if not fresh.ok:
            return
        if fresh.facts.get("resumed_from") is not None:
            fresh.problems.append("fresh job resumed from a checkpoint")
        for o in resumed:
            if o.ok and o.facts.get("resumed_from") != "embed":
                o.problems.append(
                    f"expected resumed_from='embed', got "
                    f"{o.facts.get('resumed_from')!r}")
            if o.ok and o.cut != fresh.cut:
                o.problems.append(
                    f"resumed cut {o.cut} != fresh cut {fresh.cut}")
        if kill.ok:
            trail = kill.facts.get("trail") or []
            if (len(trail) < 2 or trail[0][:2] != ["primary", "failed"]
                    or trail[-1] != ["retry", "ok", "embed"]):
                kill.problems.append(f"unexpected recovery trail {trail}")


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SeqGridBisect(), ProcsKwayDelaunay(), SimPaperSweep(),
                        ProcsResumeRecover())
}
