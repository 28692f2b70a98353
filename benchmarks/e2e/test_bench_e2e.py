"""Self-tests of the end-to-end benchmark (``pytest benchmarks/e2e -q``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench_e2e  # noqa: E402
import trace as e2e_trace  # noqa: E402
import workloads  # noqa: E402
from repro.core import parallel as core_parallel  # noqa: E402
from repro.errors import RankFailure  # noqa: E402
from repro.graph.generators import grid2d  # noqa: E402
from repro.parallel.faults import FaultPlan, KillRank  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_sibling_modules_are_the_benchmark_ones():
    # "trace" must not resolve to the standard-library module
    assert Path(e2e_trace.__file__).parent == HERE


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = e2e_trace.Tracer(clock=clock)
    with t.span("job") as job:
        clock.now = 1.0
        with t.span("a"):
            clock.now = 3.0
        clock.now = 4.0
        with t.span("b") as b:
            clock.now = 5.0
            with t.span("c"):
                clock.now = 5.5
            clock.now = 6.0
        clock.now = 10.0
    assert (job.active, job.child, job.self_time) == (10.0, 4.0, 6.0)
    assert (b.active, b.self_time) == (2.0, 1.5)
    rows = e2e_trace.summarize(t.spans)
    assert {k: v["self"] for k, v in rows.items()} == {
        "job": 6.0, "a": 2.0, "b": 1.5, "c": 0.5}
    assert sum(v["self"] for v in rows.values()) == job.active
    assert e2e_trace.child_active(t.spans, "b", "c") == 0.5
    assert e2e_trace.child_active(t.spans, "job", "c") == 0.0


def test_generator_self_time_counts_only_its_own_stretches():
    # two "ranks" driven alternately by an engine span: a parked rank
    # costs nothing, the engine keeps the scheduling time as self time
    clock = FakeClock()
    t = e2e_trace.Tracer(clock=clock)

    def rank(cost):
        for _ in range(2):
            clock.now += cost
            yield "op"
        clock.now += cost

    with t.span("engine") as engine:
        gens = [t.timed(t.open(f"rank{i}"), rank(cost))
                for i, cost in enumerate((1.0, 2.0))]
        for _ in range(3):
            for g in gens:
                clock.now += 0.25
                next(g, None)
    rank0, rank1 = (s for s in t.spans if s.name.startswith("rank"))
    assert (rank0.active, rank1.active) == (3.0, 6.0)
    assert rank0.parent == rank1.parent == engine.sid
    assert engine.self_time == pytest.approx(6 * 0.25)


def test_generator_wrapper_forwards_send_throw_and_return():
    closed = []

    def prog():
        got = yield "first"
        try:
            yield "second"
        except RankFailure as exc:
            return ("recovered", got, exc.dead_rank)
        finally:
            closed.append(True)

    t = e2e_trace.Tracer()
    g = t.timed(t.open("prog"), prog())
    assert next(g) == "first"
    assert g.send(42) == "second"
    with pytest.raises(StopIteration) as stop:
        g.throw(RankFailure("killed", dead_rank=1))
    assert stop.value.value == ("recovered", 42, 1)
    assert closed == [True]

    g = t.timed(t.open("prog"), prog())
    next(g)
    g.send(None)
    g.close()  # the engine closes a killed rank's program
    assert closed == [True, True]


def test_every_hook_target_resolves():
    for hook in e2e_trace.HOOKS:
        owner, attr, _ = e2e_trace.resolve(hook)
        assert getattr(owner, attr) is not None, hook


def test_missing_hook_target_is_a_hard_error_and_patches_nothing():
    from repro.graph import io as graph_io

    before = graph_io.read_metis
    bad = e2e_trace.Hook("x", "repro.graph.io", "no_such_function")
    t = e2e_trace.Tracer()
    with pytest.raises(LookupError, match="no longer exists"):
        with t.installed(e2e_trace.HOOKS[:1] + (bad,)):
            pass
    assert graph_io.read_metis is before
    wrong_kind = e2e_trace.Hook("x", "repro.graph.io", "read_metis", kind="gen")
    with pytest.raises(LookupError, match="generator"):
        e2e_trace.resolve(wrong_kind)


def _sim_kill_retry():
    graph = grid2d(24, 24).graph
    return core_parallel.run_parallel(
        "ScalaPart", graph, 4, backend="sim", seed=3,
        faults=FaultPlan(kills=(KillRank(rank=1, at_op=3),)),
        retry=core_parallel.RetryPolicy())


def test_tracing_leaves_sim_recovery_unchanged():
    plain = _sim_kill_retry()
    t = e2e_trace.Tracer()
    with t.installed():
        traced = _sim_kill_retry()

    def trail(res):
        return [(a["step"], a["status"], a["method"], a["nranks"])
                for a in res.extras["recovery"]["attempts"]]

    assert trail(plain)[0][:2] == ("primary", "failed")
    assert trail(traced) == trail(plain)
    assert traced.cut_size == plain.cut_size
    assert (traced.parts == plain.parts).all()
    programs = [s for s in t.spans if s.name == e2e_trace.PROGRAM_SPAN]
    assert len(programs) == 8  # 4 ranks x (killed primary + retry)
    assert all(s.active > 0 for s in programs)


def test_benchmark_json_matches_the_script():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/bench_e2e.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    defs = {name: (unit, better) for name, unit, better in bench_e2e.E2E_METRICS}
    for m in SPEC["end_to_end"]:
        assert defs[m["name"]] == (m["unit"], m["better"]), m
        assert m["name"] not in bench_e2e.EXACT_METRICS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["per_layer"]:
        assert bench_e2e.layer_unit(m["name"]) == m["unit"], m


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "benchmarks/e2e/bench_e2e.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric_for_every_workload(trace):
    done = _run(["--quick", "--trace", str(trace)])
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    for w in SPEC["workloads"]:
        for m in section:
            got = final["metrics"][f"{w['name']}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float), (w, m, got)
    if trace:
        return
    # the human report names every end-to-end metric with its unit
    for name, unit, _ in bench_e2e.E2E_METRICS:
        lines = [ln for ln in done.stdout.splitlines()
                 if ln.split()[:1] == [name]]
        expected = 1 if name == "modelled_s" else len(SPEC["workloads"])
        assert len(lines) == expected, name
        assert all(ln.split()[2] == unit for ln in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "seq-grid-bisect", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode not in (0, 1)
    assert not done.stdout.strip()


def _results(wall, cut, quick=False):
    e2e = {"setup_s": 1.0, "wall_s_p50": wall, "vertices_per_s": 100.0 / wall,
           "peak_rss_mb": 50.0, "cut_mean": cut, "imbalance_max": 0.01,
           "failed_frac": 0.0, "modelled_s": None}
    return {"seed": 1, "quick": quick, "env": {},
            "workloads": {"w": {"e2e": e2e}}}


@pytest.mark.parametrize("wall, cut, quick, ok", [
    (1.05, 300, False, True),    # within the bound
    (1.50, 300, False, False),   # timing regression
    (0.80, 301, False, False),   # exact metric changed
    (9.00, 301, True, True),     # quick: other inputs, timings never compared
])
def test_check_applies_bounds_and_exact_matches(tmp_path, wall, cut, quick, ok):
    base = tmp_path / "baseline.json"
    base.write_text(json.dumps(_results(1.0, 300)))
    assert bench_e2e.check(_results(wall, cut, quick), base, SPEC) is ok


def test_a_round_that_does_not_repeat_the_warm_up_cuts_fails():
    def rnd(*cuts):
        return bench_e2e.Round([workloads.Outcome(f"j{i}", cut=c)
                                for i, c in enumerate(cuts)], 1.0, 0)

    warm, again = rnd(10, 20), rnd(10, 21)
    bench_e2e.check_repeat(warm, again)
    assert [o.ok for o in again.outcomes] == [True, False]
    assert "21 != 20" in again.outcomes[1].problems[0]
