"""Cached sweep runner for the benchmark harness.

Every table and figure of the paper draws from the same grid of runs —
``method × graph × P``.  :func:`run_method` executes one cell and
caches the (small, JSON-serialisable) outcome both in memory and on
disk under ``.bench_cache/``, so regenerating all tables and figures
costs one sweep, and re-runs are instant.  The key covers the scale,
the seed and a digest of the ``repro`` sources, so a cache kept across
a code change never serves cells the current code would not compute;
delete the cache directory to force recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

from ..core.methods import METHOD_REGISTRY, get_method
from ..core.parallel import run_parallel
from ..results import PartitionResult
from ..errors import ConfigError
from .workloads import BENCH_SCALE, BENCH_SEED, MACHINE, bench_coords, bench_graph

__all__ = ["RunRecord", "run_method", "sweep", "METHODS", "clear_cache"]

_CACHE_DIR = Path(os.environ.get("REPRO_BENCH_CACHE", ".bench_cache"))
_MEMO: Dict[str, "RunRecord"] = {}


@dataclass(frozen=True)
class RunRecord:
    """One cell of the evaluation grid (JSON-serialisable)."""

    method: str
    graph: str
    p: int
    cut: int
    imbalance: float
    seconds: float
    simulated: bool
    stage_seconds: Dict[str, float]
    phase_comm: Dict[str, float]
    #: executor that produced the cell ("sim" for the simulator or any
    #: sequential run; "procs" for real worker processes)
    backend: str = "sim"
    #: completed collective operations by kind (empty for sequential runs)
    collective_ops: Dict[str, int] = field(default_factory=dict)
    #: words moved (point-to-point + collective contributions)
    total_words: float = 0.0
    #: number of parts in the labelling (2 = bisection cells)
    parts: int = 2
    #: vertex cost model keying the balance constraint
    cost_model: str = "unit"

    @property
    def key(self) -> str:
        base = f"{self.method}/{self.graph}/P{self.p}"
        return base if self.parts == 2 else f"{base}/K{self.parts}"


#: method name -> needs_coords flag (a registry view kept for
#: backwards compatibility; parallel methods take a P argument).
METHODS: Dict[str, bool] = {
    name: spec.needs_coords for name, spec in METHOD_REGISTRY.items()
}


def _source_digest(root: Path) -> str:
    """SHA-1 over every ``*.py`` file under ``root`` (relative path and
    bytes, in sorted path order)."""
    h = hashlib.sha1()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Digest of the installed ``repro`` package's sources."""
    return _source_digest(Path(__file__).resolve().parents[1])


def _cache_key(method: str, graph: str, p: int, backend: str = "sim",
               parts: int = 2, cost_model: str = "unit") -> str:
    # v7: records gained parts/cost_model fields (k-way sweep cells) —
    # the bump invalidates v6 records, whose JSON lacks the new keys.
    # Default bisection cells keep a stable key shape; k-way and
    # non-unit-cost cells get their own suffixed cells.  The source
    # digest retires every cell whenever the code changes.
    raw = (f"{method}|{graph}|{p}|{BENCH_SCALE}|{BENCH_SEED}|v7"
           f"|{_code_fingerprint()}")
    if backend != "sim":
        raw += f"|{backend}"
    if parts != 2:
        raw += f"|k{parts}"
    if cost_model != "unit":
        raw += f"|{cost_model}"
    return hashlib.sha1(raw.encode()).hexdigest()[:20]


def _execute(method: str, graph_name: str, p: int,
             backend: str = "sim", parts: int = 2,
             cost_model: str = "unit",
             checkpoint=None) -> PartitionResult:
    if method not in METHODS:
        raise ConfigError(
            f"unknown bench method {method!r}; known: {list(METHODS)}"
        )
    spec = get_method(method)
    gg = bench_graph(graph_name)
    g = gg.graph
    coords = bench_coords(graph_name) if spec.needs_coords else None
    if spec.traceable and (parts == 2 or spec.kway):
        # parallel methods: the engine seed varies with P (Tables 2–3
        # report cut ranges across P)
        return run_parallel(spec, g, p, coords=coords,
                            seed=BENCH_SEED ^ (p * 7919), machine=MACHINE,
                            backend=backend, k=parts, cost_model=cost_model,
                            checkpoint=checkpoint)
    if backend != "sim":
        raise ConfigError(
            f"method {method!r} has no distributed k-way path; "
            f"backend={backend!r} needs one"
        )
    if parts != 2:
        # bisection methods reach K parts through recursive bisection
        from ..core.kway import partition_kway

        return partition_kway(g, parts, spec, coords=coords,
                              seed=BENCH_SEED, cost_model=cost_model)
    # sequential quality references (P ignored; Table 2)
    return spec.sequential(g, coords, seed=BENCH_SEED)


def run_method(method: str, graph_name: str, p: int = 1,
               use_cache: bool = True, backend: str = "sim",
               parts: int = 2, cost_model: str = "unit",
               checkpoint=None) -> RunRecord:
    """Run (or fetch from cache) one cell of the evaluation grid.

    ``checkpoint`` (a store directory or
    :class:`~repro.parallel.checkpoint.CheckpointStore`) lets long
    sweeps restart cheaply after a crash: resumed cells recompute only
    the post-embedding stages.  It is deliberately NOT part of the
    cache key — a resumed run feeds the same persisted embedding the
    fresh run produced, so both land on the same partition.
    """
    key = _cache_key(method, graph_name, p, backend, parts, cost_model)
    if use_cache and key in _MEMO:
        return _MEMO[key]
    path = _CACHE_DIR / f"{key}.json"
    if use_cache and path.exists():
        rec = RunRecord(**json.loads(path.read_text()))
        _MEMO[key] = rec
        return rec
    res = _execute(method, graph_name, p, backend, parts, cost_model,
                   checkpoint=checkpoint)
    stats = res.extras.get("comm_stats")
    rec = RunRecord(
        method=method,
        graph=graph_name,
        p=p,
        cut=res.cut_size,
        imbalance=float(res.imbalance),
        seconds=float(res.seconds),
        simulated=res.simulated,
        backend=str(res.extras.get("backend", "sim")),
        stage_seconds={k: float(v) for k, v in res.stage_seconds.items()},
        phase_comm={
            k: float(v) for k, v in res.extras.get("phase_comm", {}).items()
        },
        collective_ops=(
            {k: int(v) for k, v in sorted(stats.collective_ops.items())}
            if stats is not None else {}
        ),
        total_words=float(stats.total_words) if stats is not None else 0.0,
        parts=parts,
        cost_model=cost_model,
    )
    if use_cache:
        _CACHE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(asdict(rec)))
        _MEMO[key] = rec
    return rec


def sweep(methods: List[str], graphs: List[str], ps: List[int],
          parts: int = 2, cost_model: str = "unit") -> List[RunRecord]:
    """Run the full grid (cached) and return all records."""
    out = []
    for gname in graphs:
        for method in methods:
            for p in ps:
                out.append(run_method(method, gname, p, parts=parts,
                                      cost_model=cost_model))
    return out


def clear_cache() -> None:
    """Drop memoised and on-disk results (tests use this)."""
    _MEMO.clear()
    if _CACHE_DIR.exists():
        for f in _CACHE_DIR.glob("*.json"):
            f.unlink()
