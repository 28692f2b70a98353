"""Unit tests for the real-parallel ``backend="procs"`` executor.

Parity with the simulator is covered by
``test_backend_parity.py``; this file tests what is *specific* to the
process backend — backend validation, the shared-memory payload codec
(round-trips and leak hygiene), worker death and deadlock conversion
into typed errors, the simulated-only feature gates, and the per-rank
budgets.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.parallel import RetryPolicy, run_parallel
from repro.errors import (
    BudgetExceededError,
    CommError,
    CommWarning,
    ConfigError,
    DeadlockError,
    RankFailure,
)
from repro.graph.distributed import Shared
from repro.graph.generators import random_delaunay
from repro.parallel import ZERO_COST, procs_available, run_spmd
from repro.parallel import procs as procs_mod
from repro.parallel.faults import FaultPlan, KillRank
from repro.parallel.procs import (
    _LAST_RUN,
    _SHM_THRESHOLD,
    _decode_payload,
    _encode_payload,
    _SegmentFactory,
)

needs_procs = pytest.mark.skipif(
    not procs_available(), reason="procs backend unavailable (no fork)"
)


def _ring(comm):
    """Minimal rank program: one big-array ring exchange."""
    arr = np.full(20_000, float(comm.rank))
    got = yield from comm.exchange({(comm.rank + 1) % comm.size: arr})
    total = yield from comm.allreduce(
        float(got[(comm.rank - 1) % comm.size][0]), op="sum")
    return total


# ----------------------------------------------------------------------
# backend validation
# ----------------------------------------------------------------------

class TestBackendValidation:
    def test_unknown_backend_raises_listing_known(self):
        with pytest.raises(ValueError) as ei:
            run_spmd(_ring, 2, backend="threads")
        msg = str(ei.value)
        assert "threads" in msg
        assert "'sim'" in msg and "'procs'" in msg

    def test_unknown_backend_through_run_parallel(self):
        g = random_delaunay(100, seed=1).graph
        with pytest.raises(ValueError, match="known backends"):
            run_parallel("RCB", g, 2, coords=np.zeros((100, 2)),
                         backend="mpi")


# ----------------------------------------------------------------------
# shared-memory payload codec
# ----------------------------------------------------------------------

def _roundtrip(obj):
    seg = _SegmentFactory("rprtest%xcodec" % os.getpid(), 0)
    return _decode_payload(_encode_payload(obj, seg))


class TestShmCodec:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    def test_large_array_roundtrip(self, dtype):
        n = _SHM_THRESHOLD  # elements >= bytes threshold for every dtype
        arr = (np.arange(n) % 2).astype(dtype)
        out = _roundtrip(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_fortran_order_preserved(self):
        arr = np.asfortranarray(np.arange(40_000, dtype=np.float64)
                                .reshape(200, 200))
        assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        out = _roundtrip(arr)
        assert out.flags.f_contiguous
        assert np.array_equal(out, arr)

    def test_noncontiguous_view_roundtrip(self):
        base = np.arange(200_000, dtype=np.float64)
        view = base[::2]
        assert not view.flags.c_contiguous
        out = _roundtrip(view)
        assert out.flags.c_contiguous  # materialised on encode
        assert np.array_equal(out, view)

    def test_small_readonly_view_becomes_owned(self):
        base = np.arange(100, dtype=np.int64)
        view = base[10:20]
        view.flags.writeable = False
        out = _roundtrip(view)
        assert out.flags.owndata and out.flags.writeable
        assert np.array_equal(out, view)

    def test_nested_containers_and_shared(self):
        big = np.arange(30_000, dtype=np.float64)
        obj = {"a": [big, (1, "x", big * 2)], "b": Shared(big + 1),
               "c": None}
        out = _roundtrip(obj)
        assert np.array_equal(out["a"][0], big)
        assert np.array_equal(out["a"][1][2], big * 2)
        assert isinstance(out["b"], Shared)
        assert np.array_equal(out["b"].value, big + 1)
        assert out["c"] is None

    def test_codec_unlinks_segments(self):
        prefix = "rprtest%xleak" % os.getpid()
        seg = _SegmentFactory(prefix, 0)
        enc = _encode_payload(np.zeros(50_000), seg)
        assert glob.glob(f"/dev/shm/{prefix}*")  # parked while in flight
        _decode_payload(enc)
        assert glob.glob(f"/dev/shm/{prefix}*") == []


# ----------------------------------------------------------------------
# run lifecycle: leaks, death, deadlock, budgets
# ----------------------------------------------------------------------

@needs_procs
class TestProcsLifecycle:
    def test_no_segments_leaked_on_normal_exit(self):
        res = run_spmd(_ring, 4, machine=ZERO_COST, backend="procs")
        assert len(res.values) == 4
        assert _LAST_RUN["leaked"] == []
        assert glob.glob(f"/dev/shm/{_LAST_RUN['prefix']}*") == []

    def test_no_segments_survive_an_error_exit(self):
        def prog(comm):
            arr = np.arange(40_000, dtype=np.float64)
            if comm.rank == 0:
                raise RuntimeError("boom")
            # parked in rank 0's inbox, never collected
            yield from comm.exchange({0: arr})

        with pytest.raises(CommError):
            run_spmd(prog, 2, backend="procs", op_timeout=3.0)
        assert glob.glob(f"/dev/shm/{_LAST_RUN['prefix']}*") == []

    def test_distinct_pids_and_parent_not_among_them(self):
        res = run_spmd(_ring, 4, machine=ZERO_COST, backend="procs")
        assert len(set(res.pids)) == 4
        assert os.getpid() not in res.pids

    def test_killed_worker_raises_rank_failure_not_hang(self):
        plan = FaultPlan(kills=(KillRank(rank=1, at_op=1, attempts=None),))
        with pytest.raises(RankFailure) as ei:
            run_spmd(_ring, 4, machine=ZERO_COST, backend="procs",
                     faults=plan, op_timeout=60.0)
        assert ei.value.dead_rank == 1
        assert "injected fault" in str(ei.value)

    def test_retry_policy_recovers_from_transient_kill(self):
        mesh = random_delaunay(300, seed=5)
        plan = FaultPlan(kills=(KillRank(rank=1, at_op=5, attempts=(0,)),))
        res = run_parallel("RCB", mesh.graph, 4, coords=mesh.coords,
                           seed=7, backend="procs", faults=plan,
                           retry=RetryPolicy(retries=1))
        res.validate(0.15)
        rec = res.extras["recovery"]
        assert rec["attempts"][0]["error"]  # attempt 0 lost rank 1
        assert res.extras["pids"] and len(set(res.extras["pids"])) == 4

    def test_deadlock_carries_parked_context(self):
        def prog(comm):
            if comm.rank == 0:
                # deliberate: rank 1 never joins the gather
                yield from comm.gather(comm.rank, root=0)  # repro: lint-ok[SP102]
            return comm.rank

        with pytest.raises(DeadlockError) as ei:
            run_spmd(prog, 2, backend="procs", op_timeout=1.0)
        parked = ei.value.parked
        assert parked and parked[0]["rank"] == 0
        assert parked[0]["kind"] == "gather"
        assert parked[0]["comm"] == 0

    def test_max_steps_is_budget_error(self):
        def prog(comm):
            for _ in range(100):
                yield from comm.barrier()
            return 0

        with pytest.raises(BudgetExceededError) as ei:
            run_spmd(prog, 2, backend="procs", max_steps=10)
        assert ei.value.budget == "steps"


# ----------------------------------------------------------------------
# simulated-only feature gates
# ----------------------------------------------------------------------

@needs_procs
class TestSimOnlyGates:
    def test_sanitize_true_is_config_error(self):
        with pytest.raises(ConfigError, match="simulated-only"):
            run_spmd(_ring, 2, backend="procs", sanitize=True)

    def test_env_sanitize_is_ignored_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setattr(procs_mod, "_ENV_SANITIZE_WARNED", False)
        with pytest.warns(CommWarning, match="REPRO_SANITIZE"):
            res = run_spmd(_ring, 2, machine=ZERO_COST, backend="procs")
        assert len(res.values) == 2

    def test_env_sanitize_warning_fires_once(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setattr(procs_mod, "_ENV_SANITIZE_WARNED", False)
        with pytest.warns(CommWarning):
            run_spmd(_ring, 2, machine=ZERO_COST, backend="procs")
        recwarn.clear()
        run_spmd(_ring, 2, machine=ZERO_COST, backend="procs")
        assert not [w for w in recwarn if issubclass(w.category, CommWarning)]

    def test_no_warning_without_env(self, monkeypatch, recwarn):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.setattr(procs_mod, "_ENV_SANITIZE_WARNED", False)
        run_spmd(_ring, 2, machine=ZERO_COST, backend="procs")
        assert not [w for w in recwarn if issubclass(w.category, CommWarning)]

    def test_max_sim_seconds_rejected(self):
        with pytest.raises(ConfigError, match="max_sim_seconds"):
            run_spmd(_ring, 2, backend="procs", max_sim_seconds=1.0)


# ----------------------------------------------------------------------
# fault injection on real processes
# ----------------------------------------------------------------------

def _dropping_ring(comm):
    """Ring exchange in which rank 0 drops out: it returns without
    posting its share, so every other rank waits for it forever."""
    if comm.rank == 0:
        return None
    got = yield from comm.exchange({(comm.rank + 1) % comm.size: comm.rank})
    return got


#: a kill_rate plan whose only draw that fires is rank 2's first op
#: (_ring posts two ops per rank)
_RANK2_KILL = FaultPlan(seed=13, kill_rate=0.15)


def _dead_rank(backend):
    with pytest.raises(RankFailure) as ei:
        run_spmd(_ring, 4, machine=ZERO_COST, faults=_RANK2_KILL,
                 backend=backend, op_timeout=60.0)
    return ei.value.dead_rank


@needs_procs
class TestProcsMessageFaults:
    """Fault injection on real processes.  Kills are the one fault kind
    (the rank programs post no point-to-point message a drop, delay or
    corruption could land on)."""

    def test_random_rates_match_sim(self):
        """A random kill draws the same ``(rank, op)`` site on both
        backends."""
        assert [(r, i) for r in range(4) for i in range(2)
                if _RANK2_KILL.kill_now(r, i, 0)] == [(2, 0)]
        assert _dead_rank("sim") == _dead_rank("procs") == 2

    def test_procs_fault_injection_is_deterministic(self):
        assert _dead_rank("procs") == _dead_rank("procs") == 2

    def test_dropped_message_trips_stall_supervision(self):
        """A dropped contribution parks the other ranks forever; the
        heartbeat supervisor raises DeadlockError with parked context
        well before the per-op timeout."""
        with pytest.raises(DeadlockError) as ei:
            run_spmd(_dropping_ring, 4, machine=ZERO_COST,
                     backend="procs", op_timeout=120.0, stall_timeout=2.0)
        parked = ei.value.parked
        assert sorted((p["rank"], p["kind"], p["comm"]) for p in parked) == [
            (1, "exchange", 0), (2, "exchange", 0), (3, "exchange", 0)]

    def test_registered_methods_survive_message_rates(self):
        """Registered methods post no point-to-point message — the reason
        message-fault rates never fired on them and were removed — and
        the partition is the simulator's."""
        mesh = random_delaunay(200, seed=7)
        sim = run_parallel("RCB", mesh.graph, 4, coords=mesh.coords, seed=7)
        prc = run_parallel("RCB", mesh.graph, 4, coords=mesh.coords, seed=7,
                           backend="procs")
        trace = prc.extras["trace"]
        assert (trace.messages, trace.words_sent) == (0, 0.0)
        assert np.array_equal(sim.parts, prc.parts)


# ----------------------------------------------------------------------
# stale-segment sweep (crashed parents' leftovers)
# ----------------------------------------------------------------------

@needs_procs
class TestStaleSegmentSweep:
    def _dead_pid(self):
        pid = os.fork()
        if pid == 0:
            os._exit(0)  # pragma: no cover - child exits immediately
        os.waitpid(pid, 0)
        return pid

    def test_dead_parents_segments_swept_and_reported(self):
        name = f"rpr{self._dead_pid():x}g0r1s2"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        try:
            with pytest.warns(CommWarning, match="stale shared-memory"):
                res = run_spmd(_ring, 2, machine=ZERO_COST,
                               backend="procs")
            assert len(res.values) == 2
            assert name in _LAST_RUN["stale_swept"]
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_live_parents_segments_left_alone(self):
        name = f"rpr{os.getpid():x}g7fr0s0"
        path = f"/dev/shm/{name}"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        try:
            res = run_spmd(_ring, 2, machine=ZERO_COST, backend="procs")
            assert len(res.values) == 2
            assert _LAST_RUN["stale_swept"] == []
            assert os.path.exists(path)
        finally:
            os.unlink(path)

    def test_foreign_shm_names_untouched(self):
        path = "/dev/shm/repro-unrelated-segment"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 8)
        try:
            run_spmd(_ring, 2, machine=ZERO_COST, backend="procs")
            assert os.path.exists(path)
        finally:
            os.unlink(path)
