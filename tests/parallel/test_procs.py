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
import warnings

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
from repro.parallel.faults import FaultPlan, KillRank, MessageFault
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
    got = yield from comm.sendrecv(
        arr, dest=(comm.rank + 1) % comm.size, source=(comm.rank - 1) % comm.size
    )
    total = yield from comm.allreduce(float(got[0]), op="sum")
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
            yield from comm.send(arr, dest=1)  # parked, never received
            if comm.rank == 0:
                raise RuntimeError("boom")
            yield from comm.recv(source=0)

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
                yield from comm.recv(source=1, tag=7)  # nobody sends  # repro: lint-ok[SP107]
            return comm.rank

        with pytest.raises(DeadlockError) as ei:
            run_spmd(prog, 2, backend="procs", op_timeout=1.0)
        parked = ei.value.parked
        assert parked and parked[0]["rank"] == 0
        assert parked[0]["kind"] == "recv"
        assert parked[0]["peer"] == 1
        assert parked[0]["tag"] == 7

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
# message-fault injection on real processes
# ----------------------------------------------------------------------

def _chatty_ring(comm):
    """Five send/recv ring rounds — enough p2p traffic for message
    faults to land — then an allreduce over everything received."""
    vals = []
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    for i in range(5):
        yield from comm.send(np.full(8, comm.rank * 10 + i, dtype=np.int64),
                             dest=dst, tag=i)
        got = yield from comm.recv(source=src, tag=i)
        vals.append(int(got.sum()))  # whole payload: corruption shows
    total = yield from comm.allreduce(float(sum(vals)), op="sum")
    return total


def _event_sites(res):
    """Backend-comparable view of injected faults (everything but the
    time, which is modelled on sim and measured on procs)."""
    return sorted((ev.kind, ev.rank, ev.dest, ev.tag, ev.msg_index)
                  for ev in res.faults)


@needs_procs
class TestProcsMessageFaults:
    def test_scheduled_corrupt_matches_sim(self):
        """A rank-scoped corrupt fault lands on the same message on
        both backends and produces identical (corrupted) results."""
        plan = FaultPlan(seed=9, messages=(
            MessageFault("corrupt", 2, rank=1),))
        # the procs side is never sanitized, so parity compares against
        # an un-sanitized simulator run (sanitize would reject the
        # corrupted payload as a mutated send buffer)
        sim = run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                       sanitize=False)
        prc = run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                       backend="procs", op_timeout=60.0)
        assert sim.values == prc.values
        assert _event_sites(sim) == _event_sites(prc) != []
        clean = run_spmd(_chatty_ring, 4, machine=ZERO_COST)
        assert sim.values != clean.values  # the corruption was observed

    def test_scheduled_delay_is_harmless_and_recorded(self):
        plan = FaultPlan(seed=9, mean_delay=0.01, messages=(
            MessageFault("delay", 1, rank=2),))
        clean = run_spmd(_chatty_ring, 4, machine=ZERO_COST)
        prc = run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                       backend="procs", op_timeout=60.0)
        assert prc.values == clean.values
        (ev,) = prc.faults
        assert ev.kind == "delay" and ev.rank == 2 and ev.msg_index == 1
        assert "delayed by" in ev.detail

    def test_random_rates_match_sim(self):
        """Rate-drawn duplicate/delay faults hash the same
        ``(sender, sender_index)`` sites on both backends."""
        plan = FaultPlan(seed=31, duplicate_rate=0.2, delay_rate=0.3,
                         mean_delay=0.005)
        with warnings.catch_warnings():
            # sim warns about undelivered duplicate copies at completion
            warnings.simplefilter("ignore", CommWarning)
            # the procs side is never sanitized, so parity compares
            # against an un-sanitized simulator run (sanitize would turn
            # the undelivered duplicates into a CommError)
            sim = run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                           sanitize=False)
        prc = run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                       backend="procs", op_timeout=60.0)
        assert sim.values == prc.values
        assert _event_sites(sim) == _event_sites(prc) != []

    def test_procs_fault_injection_is_deterministic(self):
        plan = FaultPlan(seed=5, corrupt_rate=0.25)
        runs = [run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                         backend="procs", op_timeout=60.0)
                for _ in range(2)]
        assert runs[0].values == runs[1].values
        assert _event_sites(runs[0]) == _event_sites(runs[1])

    def test_dropped_message_trips_stall_supervision(self):
        """A dropped send parks the receiver forever; the heartbeat
        supervisor raises DeadlockError with parked context well before
        the per-op timeout."""
        plan = FaultPlan(seed=9, messages=(
            MessageFault("drop", 0, rank=0),))
        with pytest.raises(DeadlockError) as ei:
            run_spmd(_chatty_ring, 4, machine=ZERO_COST, faults=plan,
                     backend="procs", op_timeout=120.0, stall_timeout=2.0)
        parked = ei.value.parked
        assert parked  # every pending rank reports where it sits
        kinds = {p["kind"] for p in parked}
        assert kinds <= {"recv", "allreduce"} and "recv" in kinds

    def test_registered_methods_survive_message_rates(self):
        """Registered methods are collective-only (zero p2p sends), so
        message-fault rates are a no-op on them — the partition matches
        the fault-free run exactly."""
        mesh = random_delaunay(200, seed=7)
        plan = FaultPlan(seed=3, drop_rate=0.5, corrupt_rate=0.5)
        clean = run_parallel("RCB", mesh.graph, 4, coords=mesh.coords,
                             seed=7, backend="procs")
        faulty = run_parallel("RCB", mesh.graph, 4, coords=mesh.coords,
                              seed=7, backend="procs", faults=plan)
        assert np.array_equal(clean.parts, faulty.parts)


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
