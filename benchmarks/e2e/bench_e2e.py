"""End-to-end partition benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python benchmarks/e2e/bench_e2e.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--check FILE] [--quick]

Each workload runs in its own subprocess, one after another, so peak
RSS is per workload.  Load is one closed-loop client: a job starts when
the previous one returned.  A workload process imports ``repro`` and
runs one round on the workload's small inputs (set-up), builds the full
inputs, runs one untimed warm-up round on them, then runs rounds for
``--seconds`` seconds (default: ``run_seconds`` of ``BENCHMARK.json``,
which is also what a runner of that file passes).  Every round runs the
same jobs with the same job seeds and every job's partition is
validated from outside.  Set-up is measured in three fresh processes,
the workload process and two that only set up, and reported as the
median.  The inputs are fixed (see ``workloads.py``); ``--seed`` is
recorded with the results.

``--trace`` alternates untraced and traced rounds instead; the traced
ones install the span wrappers of ``trace.py``, print a per-layer table
ranked by self time and write the spans as JSONL under ``out/``.
``--check FILE`` compares the run with an earlier results file (e.g.
``benchmarks/e2e/baseline.json``) using the bounds in the root
``BENCHMARK.json``.  ``--quick`` runs the small inputs, one warm-up and
one round; its timings are never compared.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` ones under ``--trace``).  The
exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark could not run (e.g. ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: set-up is measured this many times per workload (probes + the run)
SETUP_SAMPLES = 3
#: a workload process still running this long after its measuring time
#: is killed (set-up, inputs, warm-up and the rounds ``--trace`` needs)
CHILD_SLACK_S = 150.0

#: every end-to-end metric as (name, unit, better), in print order.  The
#: ones BENCHMARK.json lists carry its bound; the others repeat
#: bit-for-bit and ``--check`` compares them exactly.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("wall_s_p50", "s", "lower"),
    ("vertices_per_s", "vertices/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("cut_mean", "edges", "lower"),
    ("imbalance_max", "ratio", "lower"),
    ("failed_frac", "jobs/jobs", "lower"),
    ("modelled_s", "s", "lower"),
)
EXACT_METRICS = frozenset({"cut_mean", "imbalance_max", "failed_frac",
                           "modelled_s"})

#: top-level phase labels of distributed runs, folded onto the pipeline
#: phases (the multilevel baselines' initial partitioning and
#: uncoarsening count as partitioning)
PHASE_OF = {"coarsen": "coarsen", "embed": "embed", "partition": "partition",
            "initial": "partition", "uncoarsen": "partition"}
PHASES = ("coarsen", "embed", "partition")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("mb_per_s"):
        return "MiB/s"
    if name.endswith("ms_per_iter"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_frac", "shrink_per_level", "comm_fraction")):
        return "ratio"
    if name.endswith("words"):
        return "words"
    return {"checkpoint.store_bytes": "bytes", "geometric.cut": "edges",
            "refine.strip_size": "vertices"}.get(name, "count")


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# workload process
# ----------------------------------------------------------------------

@dataclass
class Round:
    """One round: its job outcomes, wall and checkpoint bytes on disk."""

    outcomes: list
    wall: float
    store_bytes: int


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(workload, inputs, rdir: Path, tracer=None) -> Round:
    """Run one round's jobs in the fresh directory ``rdir``, removed
    afterwards."""
    import workloads as wl

    rdir.mkdir()
    outcomes = []
    t0 = time.perf_counter()
    for job in workload.jobs(inputs, rdir):
        if tracer is not None:
            tracer.job = f"{rdir.name}/{job.jid}"
        out = wl.run_job(job, tracer)
        if workload.backend == "procs":
            leaked = wl.leaked_segments()
            if leaked:
                out.problems.append(f"shared-memory segments left: {leaked}")
        outcomes.append(out)
    wall = time.perf_counter() - t0
    workload.check_round(outcomes)
    store = _dir_bytes(rdir)
    shutil.rmtree(rdir)
    return Round(outcomes, wall, store)


def check_repeat(warm: Round, again: Round) -> None:
    """A round with the same jobs and seeds as ``warm`` must reproduce
    its cuts."""
    for a, b in zip(warm.outcomes, again.outcomes):
        if a.ok and b.ok and a.cut != b.cut:
            b.problems.append(f"cut {b.cut} != {a.cut} of the warm-up round")


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def e2e_metrics(workload, rounds: List[Round]) -> Dict[str, Optional[float]]:
    """End-to-end metrics of the timed rounds; quality from the first,
    which every other round reproduces.  ``setup_s`` and ``failed_frac``
    are filled in once every process has reported."""
    walls = [r.wall for r in rounds]
    ok = [o for o in rounds[0].outcomes if o.ok]
    vertices = sum(o.vertices for r in rounds for o in r.outcomes)
    return {
        "wall_s_p50": statistics.median(walls),
        "vertices_per_s": vertices / sum(walls),
        "peak_rss_mb": peak_rss_mb(),
        "cut_mean": statistics.fmean(o.cut for o in ok) if ok else None,
        "imbalance_max": max(o.imbalance for o in ok) if ok else None,
        "modelled_s": (sum(o.facts["seconds"] for o in ok)
                       if workload.backend == "sim" and ok else None),
    }


def layer_metrics(workload, spans, agg, traced: List[Round],
                  untraced: List[Round]) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds (per round unless noted),
    from their spans, the span summary ``agg`` and the job results.

    A layer a workload's jobs never reach is left out.
    """
    from trace import PROGRAM_SPAN, child_active

    n = len(traced)
    outs = [o for r in traced for o in r.outcomes if o.ok]
    facts = [o.facts for o in outs]

    def act(name):
        return agg.get(name, {}).get("active", 0.0)

    def self_time(name):
        return agg.get(name, {}).get("self", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def attrs(*names):
        return [s.attrs for s in spans if s.name in names and s.attrs]

    m: Dict[str, float] = {}
    if calls("graph.read_metis"):
        nbytes = sum(a["bytes"] for a in attrs("graph.read_metis"))
        m["graph.read_metis_s"] = act("graph.read_metis") / n
        m["graph.read_metis_mb_per_s"] = (nbytes / 2**20
                                          / act("graph.read_metis"))

    # coarsening: hierarchies built in this process, or reported by procs
    if workload.backend == "procs":
        sizes = [f["sizes"] for f in facts if "sizes" in f]
    else:
        sizes = [a["sizes"] for a in attrs("coarsen.hierarchy",
                                           "coarsen.dist_hierarchy")]
    if calls("coarsen.hierarchy") or calls("coarsen.dist_hierarchy"):
        m["coarsen.hierarchy_s"] = (act("coarsen.hierarchy")
                                    + act("coarsen.dist_hierarchy")) / n
    if sizes:
        ratios = [b / a for h in sizes for a, b in zip(h, h[1:])]
        m["coarsen.levels"] = statistics.fmean(len(h) for h in sizes)
        m["coarsen.shrink_per_level"] = (
            math.exp(statistics.fmean(math.log(r) for r in ratios))
            if ratios else 1.0)

    # embedding kernels (sequential path, and rank 0's coarsest layout)
    for kernel in ("lattice", "bh", "exact", "attractive"):
        if calls(f"embed.{kernel}"):
            m[f"embed.{kernel}_s"] = act(f"embed.{kernel}") / n
    if calls("embed.fdl"):
        iters = sum(a["iters"] for a in attrs("embed.fdl"))
        m["embed.fdl_s"] = act("embed.fdl") / n
        m["embed.fdl_iters"] = iters / n
        m["embed.ms_per_iter"] = 1e3 * act("embed.fdl") / max(1, iters)
    if calls("embed.multilevel"):
        m["embed.self_s"] = self_time("embed.multilevel") / n
    embed_dist = act("embed.dist") - child_active(spans, "embed.dist",
                                                  "coarsen.dist_hierarchy")
    if calls("embed.dist"):
        m["embed.dist_host_s"] = embed_dist / n

    # geometric partitioning and refinement
    if calls("geometric.gmt"):
        m["geometric.gmt_s"] = act("geometric.gmt") / n
    if calls("geometric.dist") or calls("geometric.kway_dist"):
        m["geometric.dist_host_s"] = (act("geometric.dist")
                                      + act("geometric.kway_dist")) / n
    geo = [(o.facts["geometric_cut"], o.cut) for o in outs
           if "geometric_cut" in o.facts]
    if geo:
        m["geometric.cut"] = statistics.fmean(g for g, _ in geo)
        total = sum(g for g, _ in geo)
        m["refine.gain_frac"] = (total - sum(c for _, c in geo)) / total
    if calls("refine.strip"):
        m["refine.strip_s"] = act("refine.strip") / n
    if calls("refine.dist"):
        m["refine.dist_host_s"] = act("refine.dist") / n
    strips = [f["strip_size"] for f in facts if "strip_size" in f]
    if strips:
        m["refine.strip_size"] = statistics.fmean(strips)

    # run_parallel, recovery and engine
    if calls("core.run_parallel"):
        m["core.run_parallel_self_s"] = (
            act("core.run_parallel")
            - child_active(spans, "core.run_parallel", "engine.run_spmd")) / n
    trails = [f["trail"] for f in facts if "trail" in f]
    if trails:
        attempts = [a for t in trails for a in t]
        m["core.recovery_attempts"] = len(attempts) / len(trails)
        m["core.recovery_ok_frac"] = (sum(a[1] == "ok" for a in attempts)
                                      / len(attempts))
    dist = [f for f in facts if f["backend"] in ("sim", "procs")]
    phase_sum = {p: 0.0 for p in PHASES}
    for f in dist:
        for root, sec in f["phases"].items():
            if root in PHASE_OF:
                phase_sum[PHASE_OF[root]] += sec
    prefix = "engine" if workload.backend == "sim" else "procs"
    if dist:
        m[f"{prefix}.messages"] = sum(f["messages"] for f in dist) / n
        m[f"{prefix}.words"] = sum(f["words"] for f in dist) / n
    if workload.backend == "sim" and dist:
        m["engine.host_s"] = act("engine.run_spmd") / n
        m["engine.sched_s"] = self_time("engine.run_spmd") / n
        for p in PHASES:
            m[f"engine.modelled_s.{p}"] = phase_sum[p] / n
        m["engine.collectives"] = sum(f["collectives"] for f in dist) / n
        m["engine.wait_modelled_s"] = sum(f["wait"] for f in dist) / n
        m["engine.comm_fraction"] = statistics.fmean(
            f["comm_fraction"] for f in dist)
    procs_phase = {p: 0.0 for p in PHASES}
    if workload.backend == "procs" and dist:
        procs_phase = phase_sum
        m["procs.wall_s"] = act("engine.run_spmd") / n
        for p in PHASES:
            m[f"procs.phase_wall_s.{p}"] = phase_sum[p] / n
        m["procs.overhead_s"] = (act("engine.run_spmd")
                                 - sum(phase_sum.values())) / n
    if calls("checkpoint.key"):
        m["checkpoint.key_s"] = act("checkpoint.key") / n
    if calls("checkpoint.load"):
        hits = sum(bool(a["hit"]) for a in attrs("checkpoint.load"))
        m["checkpoint.load_s"] = act("checkpoint.load") / n
        m["checkpoint.hit_frac"] = hits / calls("checkpoint.load")
    if any(r.store_bytes for r in traced):
        m["checkpoint.store_bytes"] = statistics.fmean(r.store_bytes
                                                       for r in traced)

    # one breakdown on every backend: host time measured here plus the
    # phase walls procs workers report; the rest of the job is "other"
    host = {
        "coarsen": act("coarsen.hierarchy") + act("coarsen.dist_hierarchy"),
        "embed": (act("embed.multilevel")
                  - child_active(spans, "embed.multilevel", "coarsen.hierarchy")
                  + embed_dist),
        "partition": (act("geometric.gmt") + act("refine.strip")
                      + act("geometric.dist") + act("geometric.kway_dist")
                      + act("refine.dist") + self_time(PROGRAM_SPAN)),
    }
    for p in PHASES:
        m[f"phase.{p}_s"] = (host[p] + procs_phase[p]) / n
    m["job.other_s"] = (act("job") / n
                        - sum(m[f"phase.{p}_s"] for p in PHASES))
    untraced_wall = statistics.median(r.wall for r in untraced)
    m["trace.overhead_frac"] = (statistics.median(r.wall for r in traced)
                                / untraced_wall - 1.0)
    return m


def layer_table(agg, n_rounds: int) -> List[Dict[str, Any]]:
    """Span rows per round, ranked by self time."""
    job = agg.get("job", {}).get("active", 0.0) or 1.0
    rows = [{"layer": name, "calls": row["calls"] / n_rounds,
             "self_s": row["self"] / n_rounds,
             "active_s": row["active"] / n_rounds,
             "self_share": row["self"] / job}
            for name, row in agg.items()]
    return sorted(rows, key=lambda r: -r["self_s"])


def run_child(args) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import repro  # noqa: F401 - timed: importing the package is set-up
    import scipy

    import workloads as wl

    imported = time.perf_counter() - started
    workload = wl.WORKLOADS[args.child]
    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    rounds_run: List[Round] = []

    def run(inputs, tracer=None) -> Round:
        rnd = run_round(workload, inputs, workdir / f"round{len(rounds_run)}",
                        tracer)
        rounds_run.append(rnd)
        return rnd

    try:
        (workdir / "small").mkdir(parents=True)
        small = workload.build(workdir / "small", quick=True)
        # set-up: the import and a first round, which pays every
        # first-call cost; building the inputs is not part of it
        warm = run(small)
        report: Dict[str, Any] = {"workload": workload.name,
                                  "setup_s": imported + warm.wall}
        if not args.setup_only:
            inputs = small
            if not args.quick:
                (workdir / "full").mkdir()
                inputs = workload.build(workdir / "full", quick=False)
                warm = run(inputs)  # untimed: a first full round is slower
            report.update(measure(args, workload, inputs, run, warm))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = [o for r in rounds_run for o in r.outcomes]
    failed = [o for o in outcomes if not o.ok]
    report.update(
        attempted=len(outcomes),
        failed=len(failed),
        problems=[f"{o.jid}: {p}" for o in failed for p in o.problems][:20],
        versions={"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(report))
    return 0


def measure(args, workload, inputs, run, warm: Round) -> Dict[str, Any]:
    """Rounds for ``args.seconds`` (one under ``--quick``); under
    ``--trace`` untraced/traced pairs, at least two.  Every round runs
    the same jobs with the same seeds as the warm-up round ``warm``, so
    it must reproduce its cuts."""
    from trace import Tracer, summarize

    started = time.perf_counter()
    untraced: List[Round] = []
    traced: List[Round] = []
    tracer = Tracer()
    minimum = 1 if args.quick or not args.trace else 2

    def another(steps: List[float]) -> bool:
        # start the next round only if it fits in the measuring time
        if len(steps) < minimum:
            return True
        elapsed = time.perf_counter() - started
        return (not args.quick
                and elapsed + statistics.median(steps) <= args.seconds)

    steps: List[float] = []
    while another(steps):
        untraced.append(run(inputs))
        check_repeat(warm, untraced[-1])
        step = untraced[-1].wall
        if args.trace:
            with tracer.installed():
                traced.append(run(inputs, tracer))
            check_repeat(warm, traced[-1])
            step += traced[-1].wall
        steps.append(step)
    report: Dict[str, Any] = {
        "rounds": len(untraced),
        "round_walls": [r.wall for r in untraced],
        "measured_s": time.perf_counter() - started,
        "e2e": e2e_metrics(workload, untraced),
    }
    if traced:
        spans = [s for s in tracer.spans if s.start is not None]
        agg = summarize(spans)
        report["layers"] = layer_metrics(workload, spans, agg, traced,
                                         untraced)
        report["table"] = layer_table(agg, len(traced))
        report["self_sum_frac"] = (sum(row["self"] for row in agg.values())
                                   / agg["job"]["active"])
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / (f"spans-{workload.name}"
                            f"{'-quick' if args.quick else ''}.jsonl")
        tracer.write_jsonl(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    return report


# ----------------------------------------------------------------------
# parent: orchestration, report, check
# ----------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def spawn(args, name: str, seconds: float, setup_only: bool) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "bench_e2e.py"), "--child", name,
           "--seconds", repr(seconds)]
    if args.trace:
        cmd.append("--trace")
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    # its own process group, so a timeout or an interrupt also takes down
    # the procs workers it forked
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + CHILD_SLACK_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{name}: workload process timed out") from exc
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name}: workload process exited with "
                          f"code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, name: str, seconds: float) -> Dict[str, Any]:
    """The workload process plus set-up probes; their warm-up jobs count
    as attempted, and ``setup_s`` is the median over all of them."""
    probes = [spawn(args, name, seconds, True)
              for _ in range(0 if args.quick else SETUP_SAMPLES - 1)]
    res = spawn(args, name, seconds, False)
    samples = probes + [res]
    res["setup_samples"] = [s["setup_s"] for s in samples]
    res["attempted"] = sum(s["attempted"] for s in samples)
    res["failed"] = sum(s["failed"] for s in samples)
    res["problems"] = [p for s in samples for p in s["problems"]]
    res["e2e"] = {"setup_s": statistics.median(res["setup_samples"]),
                  **res["e2e"],
                  "failed_frac": res["failed"] / res["attempted"]}
    return res


def environment(versions: Dict[str, str]) -> Dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "git_sha": sha}


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4g}"
    return f"{value:.3e}"


def print_workload(name: str, res: Dict[str, Any]) -> None:
    print(f"\n== {name}: {res['rounds']} timed rounds in "
          f"{res['measured_s']:.1f} s, {res['attempted']} jobs, "
          f"{res['failed']} failed")
    notes = {"setup_s": f"median of {len(res['setup_samples'])} set-ups",
             "wall_s_p50": f"median of {res['rounds']} rounds"}
    for metric, unit, _ in E2E_METRICS:
        value = res["e2e"].get(metric)
        if value is not None:
            print(f"  {metric:<16} {_fmt(value):>12} {unit:<11} "
                  f"{notes.get(metric, '')}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")
    if "table" not in res:
        return
    print(f"  per-layer profile (per traced round), ranked by self time; "
          f"self-time sum / job wall = {res['self_sum_frac']:.4f}")
    print(f"  {'layer':<24} {'calls':>8} {'self s':>9} {'active s':>9} "
          f"{'self %':>7}")
    for row in res["table"]:
        print(f"  {row['layer']:<24} {row['calls']:>8.1f} {row['self_s']:>9.4f}"
              f" {row['active_s']:>9.4f} {100 * row['self_share']:>7.2f}")
    print("  per-layer metrics:")
    for metric, value in res["layers"].items():
        if value is not None:
            print(f"  {metric:<32} {_fmt(value):>12} {layer_unit(metric)}")
    print(f"  spans: {res['spans']}")


def check(results: Dict[str, Any], baseline_path: Path,
          spec: Dict[str, Any]) -> bool:
    """Print one row per (workload, metric); False on a regression."""
    base = json.loads(baseline_path.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    same_inputs = base["quick"] == results["quick"]
    timings = not base["quick"] and not results["quick"]
    print(f"\ncheck against {baseline_path} "
          f"(git {base['env'].get('git_sha')})")
    print(f"  {'workload':<22} {'metric':<16} {'baseline':>12} {'now':>12} "
          f"{'change':>8} {'bound':>7}  verdict")
    ok = True
    for name, cur in results["workloads"].items():
        old = base["workloads"].get(name)
        if old is None:
            print(f"  {name:<22} (no baseline)")
            continue
        for metric, _, better in E2E_METRICS:
            a, b = old["e2e"].get(metric), cur["e2e"].get(metric)
            if a is None or b is None:
                continue
            change = (b - a) / a if a else 0.0
            if metric in EXACT_METRICS:
                bound = "exact"
                if not same_inputs:
                    verdict = "skipped: other inputs"
                else:
                    verdict = "ok" if a == b else "CHANGED"
            else:
                bound = f"{bounds[metric]:.0%}"
                worse = change if better == "lower" else -change
                if not timings:
                    verdict = "skipped: quick run"
                else:
                    verdict = "ok" if worse <= bounds[metric] else "REGRESSION"
            ok = ok and verdict not in ("CHANGED", "REGRESSION")
            print(f"  {name:<22} {metric:<16} {_fmt(a):>12} {_fmt(b):>12} "
                  f"{change:>+8.1%} {bound:>7}  {verdict}")
    return ok


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                   action="extend", metavar="NAME",
                   help="workloads to run (default: all in BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed, recorded with the results "
                        "(the inputs are fixed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="alternate untraced/traced rounds "
                   "and report per-layer metrics")
    p.add_argument("--check", type=Path, metavar="FILE",
                   help="compare with an earlier results file")
    p.add_argument("--quick", action="store_true",
                   help="small inputs, one warm-up and one round")
    p.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: {SRC / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workloads or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"bench_e2e: unknown workload(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results: Dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                               "trace": bool(args.trace), "seconds": seconds,
                               "workloads": {}}
    try:
        for name in names:
            res = run_workload(args, name, seconds)
            results["workloads"][name] = res
            print_workload(name, res)
    except ChildFailed as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    first = next(iter(results["workloads"].values()))
    results["env"] = environment(first["versions"])
    print(f"\nenvironment: {json.dumps(results['env'])}")
    OUT.mkdir(exist_ok=True)
    subset = f"-{names[0]}" if len(names) == 1 else ""
    out_path = OUT / (f"results{subset}-seed{args.seed}"
                      f"{'-trace' if args.trace else ''}"
                      f"{'-quick' if args.quick else ''}.json")
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out_path.relative_to(ROOT)}")

    attempted = sum(r["attempted"] for r in results["workloads"].values())
    failed = sum(r["failed"] for r in results["workloads"].values())
    correct = failed == 0
    if args.check is not None:
        correct &= check(results, args.check, spec)
    section = "per_layer" if args.trace else "end_to_end"
    key = "layers" if args.trace else "e2e"
    metrics = {}
    for name, res in results["workloads"].items():
        for m in spec[section]:
            label = m["name"] if len(names) == 1 else f"{name}/{m['name']}"
            metrics[label] = {"value": res[key][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
