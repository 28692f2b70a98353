"""Fault injection, detection, and recovery (chaos tests).

Property under test: a run under any seeded :class:`FaultPlan` either
returns a valid, balanced partition or raises a *typed*
:class:`~repro.errors.ReproError` — never a silent wrong answer — and
everything (fault events, recovery path, final cut) is deterministic
per ``(seed, plan)``.
"""

import warnings

import numpy as np
import pytest

from repro.analysis import payload_checksum
from repro.core.config import ScalaPartConfig
from repro.core.parallel import RetryPolicy, run_parallel
from repro.errors import (
    BudgetExceededError,
    CommError,
    CommWarning,
    ConfigError,
    DeadlockError,
    PartitionError,
    RankFailure,
    ReproError,
)
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.parallel import FaultPlan, KillRank, ZERO_COST, run_spmd
from repro.parallel.patterns import share_from_root

FAST = ScalaPartConfig(coarsest_iters=80, smooth_iters=6)


def run0(fn, p, *args, **kw):
    return run_spmd(fn, p, *args, machine=ZERO_COST, **kw)


def ring(comm):
    """Each rank passes an array to its successor, then allreduces the sum."""
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    got = yield from comm.exchange({dst: np.full(4, comm.rank, dtype=np.int64)})
    total = yield from comm.allreduce(int(got[src][0]), op="sum")
    return total


def _corrupting_ring(comm):
    """The ring, with rank 1 corrupting rank 0's posted payload (which
    it aliases through a shared buffer) before the exchange completes."""
    buf = yield from share_from_root(
        comm, np.zeros(4, dtype=np.int64) if comm.rank == 0 else None)
    if comm.rank == 1:
        buf[0] ^= 1
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    payload = buf if comm.rank == 0 else np.full(4, comm.rank, dtype=np.int64)
    got = yield from comm.exchange({dst: payload})
    total = yield from comm.allreduce(int(got[src][0]), op="sum")
    return total


# ----------------------------------------------------------------------
# the plan itself
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=42, kill_rate=0.1)
        kills = [plan.kill_now(r, i, 0) for r in range(4) for i in range(50)]
        again = FaultPlan(seed=42, kill_rate=0.1)
        assert kills == [again.kill_now(r, i, 0)
                         for r in range(4) for i in range(50)]
        assert any(kills) and not all(kills)

    def test_attempt_epoch_redraws_random_faults(self):
        plan = FaultPlan(seed=42, kill_rate=0.2)
        first = [plan.kill_now(0, i, 0) for i in range(100)]
        second = [plan.for_attempt(1).kill_now(0, i, 0) for i in range(100)]
        assert first != second

    def test_scheduled_faults_are_transient_by_default(self):
        plan = FaultPlan(seed=0, kills=(KillRank(rank=1, at_op=3),))
        assert plan.kill_now(1, 3, 0)
        assert not plan.for_attempt(1).kill_now(1, 3, 0)
        hard = FaultPlan(seed=0, kills=(KillRank(rank=1, at_op=3,
                                                 attempts=None),))
        assert hard.for_attempt(5).kill_now(1, 3, 0)

    def test_max_kills_caps_random_kills(self):
        plan = FaultPlan(seed=1, kill_rate=1.0, max_kills=1)
        assert plan.kill_now(0, 0, killed_so_far=0)
        assert not plan.kill_now(0, 0, killed_so_far=1)

    def test_bad_rate_and_kind_raise(self):
        with pytest.raises(CommError):
            FaultPlan(seed=0, kill_rate=1.5)
        # kills are the one fault kind: there are no message-fault rates
        with pytest.raises(TypeError):
            FaultPlan(seed=0, drop_rate=0.1)


class TestCorruptPayload:
    """A payload corrupted in flight — one element perturbed — is what
    the sanitizer's post-time checksum must notice."""

    def test_int_array_bit_flip(self):
        arr = np.arange(8)
        out = arr.copy()
        out[3] ^= 1
        assert payload_checksum(out) != payload_checksum(arr)

    def test_readonly_flag_preserved(self):
        # zero-copy delivery hands out read-only views: the flag alone
        # is not a corruption
        arr = np.arange(4.0)
        view = arr.view()
        view.flags.writeable = False
        assert payload_checksum(view) == payload_checksum(arr)
        out = arr.copy()
        out[1] += 1.0
        assert payload_checksum(out) != payload_checksum(view)

    def test_scalars_and_containers(self):
        for clean, bad in ((True, False), (7, 6), (1.5, 2.5),
                           ({"n": 4, "s": "x"}, {"n": 5, "s": "x"}),
                           ([np.ones(2), 3], [np.ones(2), 4])):
            assert payload_checksum(clean) != payload_checksum(bad)

    def test_uncorruptible_returns_empty_desc(self):
        # payloads with nothing to perturb checksum stably
        for obj in ("just a string", np.array([], dtype=np.int64), None):
            assert payload_checksum(obj) == payload_checksum(obj)


# ----------------------------------------------------------------------
# injection + detection in the engine
# ----------------------------------------------------------------------

class TestEngineInjection:
    def test_inert_plan_matches_clean_run(self):
        clean = run0(ring, 4, seed=3)
        faulted = run0(ring, 4, seed=3, faults=FaultPlan(seed=1))
        assert faulted.values == clean.values

    def test_kill_raises_rank_failure(self):
        plan = FaultPlan(seed=0, kills=(KillRank(rank=1, at_op=1),))
        with pytest.raises(RankFailure) as ei:
            run0(ring, 4, faults=plan)
        assert ei.value.dead_rank == 1
        assert ei.value.sim_time >= 0.0

    def test_drop_becomes_deadlock_with_context(self):
        def dropping_ring(comm):
            # rank 0 drops its contribution: it returns without posting
            if comm.rank == 0:
                return None
            return (yield from ring(comm))

        with pytest.raises(DeadlockError) as ei:
            run0(dropping_ring, 3)
        parked = ei.value.parked
        assert parked and all(
            set(p) == {"rank", "kind", "comm", "phase"} for p in parked
        )
        assert [(p["rank"], p["kind"]) for p in parked] == [
            (1, "exchange"), (2, "exchange")]

    def test_corrupt_without_sanitizer_changes_payload(self):
        res = run0(_corrupting_ring, 3, sanitize=False)
        assert res.values != run0(ring, 3).values  # the corruption flowed through

    def test_corrupt_with_sanitizer_raises(self):
        with pytest.raises(CommError, match="sanitizer.*exchange payload mutated"):
            run0(_corrupting_ring, 3, sanitize=True)

    def test_random_rates_fire_deterministically(self):
        plan = FaultPlan(seed=11, kill_rate=0.5)

        def outcome():
            try:
                res = run0(ring, 4, seed=3, faults=plan)
                return ("ok", res.values)
            except ReproError as exc:
                return ("err", type(exc).__name__, str(exc))

        assert outcome() == outcome()


class TestBudgets:
    def test_max_steps(self):
        with pytest.raises(BudgetExceededError) as ei:
            run0(ring, 4, max_steps=3)
        assert ei.value.budget == "steps" and ei.value.limit == 3

    def test_max_sim_seconds(self):
        def chatty(comm):
            for _ in range(100):
                yield from comm.barrier()
            return None

        with pytest.raises(BudgetExceededError) as ei:
            run_spmd(chatty, 4, max_sim_seconds=1e-6)
        assert ei.value.budget == "sim_seconds"

    def test_generous_budgets_do_not_trigger(self):
        res = run0(ring, 4, seed=3, max_steps=10_000, max_sim_seconds=10.0)
        assert res.values == run0(ring, 4, seed=3).values


# ----------------------------------------------------------------------
# recovery ladder
# ----------------------------------------------------------------------

class TestRecoveryLadder:
    def test_transient_kill_recovers_on_retry(self, small_delaunay):
        g, _ = small_delaunay
        plan = FaultPlan(seed=3, kills=(KillRank(rank=1, at_op=10),))
        with pytest.raises(RankFailure):
            run_parallel("ScalaPart", g, 4, config=FAST, seed=7, faults=plan)
        out = run_parallel("ScalaPart", g, 4, config=FAST, seed=7,
                           faults=plan, retry=RetryPolicy())
        rec = out.extras["recovery"]
        assert rec["recovered"] and rec["final_nranks"] == 4
        assert [a["step"] for a in rec["attempts"]] == ["primary", "retry"]
        out.bisection.validate(0.15)

    def test_hard_kill_shrinks_rank_count(self, small_delaunay):
        g, _ = small_delaunay
        plan = FaultPlan(seed=3, kills=(KillRank(rank=3, at_op=5,
                                                 attempts=None),))
        out = run_parallel("ScalaPart", g, 4, config=FAST, seed=7,
                           faults=plan, retry=RetryPolicy())
        rec = out.extras["recovery"]
        # rank 3 no longer exists on 2 ranks, so the shrunk run is clean
        assert rec["final_nranks"] == 2
        assert rec["attempts"][-1]["step"] == "shrink"
        out.bisection.validate(0.15)

    def test_kill_rank0_falls_back_to_sequential(self, small_delaunay):
        g, _ = small_delaunay
        plan = FaultPlan(seed=3, kills=(KillRank(rank=0, at_op=5,
                                                 attempts=None),))
        out = run_parallel("ScalaPart", g, 4, config=FAST, seed=7,
                           faults=plan, retry=RetryPolicy())
        rec = out.extras["recovery"]
        assert rec["attempts"][-1]["mode"] == "sequential"
        assert rec["final_method"] == "ScalaPart"
        out.bisection.validate(0.15)

    def test_rcb_falls_back_down_registry_ladder(self, small_delaunay):
        g, coords = small_delaunay
        plan = FaultPlan(seed=5, kills=(KillRank(rank=0, at_op=2,
                                                 attempts=None),))
        out = run_parallel("RCB", g, 4, coords=coords, seed=9, faults=plan,
                           retry=RetryPolicy(retries=0))
        methods = [a["method"] for a in out.extras["recovery"]["attempts"]]
        assert methods[0] == "RCB" and "ScalaPart" in methods
        out.bisection.validate(0.15)

    def test_exhaustion_raises_typed_error(self):
        """Every rung of the real ladder fails: rank 0 dies on every
        engine attempt, and no bisection can balance a graph whose one
        vertex outweighs all the others ten times over.  The error
        carries the whole trail."""
        g0 = gen.random_delaunay(300, seed=3).graph
        vwgt = np.ones(g0.num_vertices)
        vwgt[0] = 10 * g0.num_vertices
        g = CSRGraph(g0.indptr, g0.indices, g0.ewgt, vwgt)
        plan = FaultPlan(seed=3, kills=(KillRank(rank=0, at_op=5,
                                                 attempts=None),))
        with pytest.raises(PartitionError,
                           match="recovery exhausted after 5 attempt") as exc:
            run_parallel("ScalaPart", g, 4, config=FAST, seed=7, faults=plan,
                         retry=RetryPolicy())
        rec = exc.value.recovery
        assert rec["recovered"] is False
        trail = rec["attempts"]
        assert [(a["step"], a["mode"], a["method"], a["nranks"])
                for a in trail] == [
            ("primary", "engine", "ScalaPart", 4),
            ("retry", "engine", "ScalaPart", 4),
            ("shrink", "engine", "ScalaPart", 2),
            ("fallback", "sequential", "ScalaPart", 1),
            ("fallback", "sequential", "RCB", 1),
        ]
        assert [a["attempt"] for a in trail] == list(range(5))
        assert all(a["status"] == "failed" for a in trail)
        assert all(a["error"].startswith("RankFailure")
                   for a in trail if a["mode"] == "engine")
        assert all(a["error"].startswith("PartitionError")
                   for a in trail if a["mode"] == "sequential")
        assert trail[-1]["error"].split(": ", 1)[1] in str(exc.value)

    @pytest.mark.parametrize("kw", [
        {"retries": -1},
        {"validate_imbalance": -0.1},
        {"validate_imbalance": 1.0},
    ])
    def test_bad_policy_rejected(self, kw):
        with pytest.raises(ConfigError):
            RetryPolicy(**kw)

    def test_recovery_is_deterministic(self, small_delaunay):
        g, _ = small_delaunay
        plan = FaultPlan(seed=3, kills=(KillRank(rank=1, at_op=10),),
                         kill_rate=1e-3)

        def once():
            out = run_parallel("ScalaPart", g, 4, config=FAST, seed=7,
                               faults=plan, retry=RetryPolicy())
            rec = out.extras["recovery"]
            return (int(out.bisection.cut_size),
                    [(a["step"], a["status"], a["nranks"])
                     for a in rec["attempts"]])

        assert once() == once()

    def test_no_retry_keeps_plain_behaviour(self, small_delaunay):
        g, _ = small_delaunay
        plain = run_parallel("ScalaPart", g, 4, config=FAST, seed=7)
        again = run_parallel("ScalaPart", g, 4, config=FAST, seed=7,
                             faults=FaultPlan(seed=1))
        assert plain.bisection.cut_size == again.bisection.cut_size
        assert "recovery" not in again.extras


# ----------------------------------------------------------------------
# the chaos property: valid cut or typed error, never silent garbage
# ----------------------------------------------------------------------

class TestChaosProperty:
    @pytest.mark.parametrize("method", ["ScalaPart", "ParMetis-like"])
    @pytest.mark.parametrize("plan_seed", [1, 2, 3])
    def test_valid_partition_or_typed_error(self, small_delaunay, method,
                                            plan_seed):
        g, _ = small_delaunay
        plan = FaultPlan(seed=plan_seed,
                         kills=(KillRank(rank=plan_seed % 4, at_op=6),),
                         kill_rate=1e-3)
        kwargs = {"config": FAST} if method == "ScalaPart" else {}

        def once():
            with warnings.catch_warnings():
                warnings.simplefilter("error", CommWarning)
                try:
                    out = run_parallel(method, g, 4, seed=5, faults=plan,
                                       retry=RetryPolicy(), **kwargs)
                except ReproError as exc:
                    return ("error", type(exc).__name__, str(exc))
            side = out.bisection.side
            assert set(np.unique(side)) <= {0, 1}
            out.bisection.validate(0.15)
            return ("ok", int(out.bisection.cut_size),
                    out.extras["recovery"]["final_method"])

        first = once()
        assert first == once()  # same seed + plan => same outcome
