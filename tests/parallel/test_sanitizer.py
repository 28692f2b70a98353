"""Tests for the dynamic sanitizer (``run_spmd(..., sanitize=True)``)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import Sanitizer, payload_checksum
from repro.errors import CommError, CommWarning
from repro.graph.distributed import Shared
from repro.parallel import ZERO_COST, run_spmd
from repro.parallel.patterns import share_from_root


def run0(fn, p, *args, **kw):
    return run_spmd(fn, p, *args, machine=ZERO_COST, **kw).values


# ----------------------------------------------------------------------
# payload checksums
# ----------------------------------------------------------------------

class TestPayloadChecksum:
    def test_array_bytes_and_shape_matter(self):
        a = np.arange(6, dtype=float)
        c0 = payload_checksum(a)
        assert payload_checksum(a.copy()) == c0
        assert payload_checksum(a.reshape(2, 3)) != c0
        b = a.copy()
        b[0] = -1.0
        assert payload_checksum(b) != c0

    def test_dtype_matters(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        assert payload_checksum(a) != payload_checksum(b)

    def test_containers(self):
        assert payload_checksum([1, 2]) != payload_checksum([2, 1])
        assert payload_checksum((1, 2)) != payload_checksum([1, 2])
        assert payload_checksum({"a": 1}) != payload_checksum({"a": 2})

    def test_set_checksum_is_order_insensitive(self):
        # two sets with identical elements but different construction
        # order must hash equal (set iteration order is arbitrary)
        s1 = {f"k{i}" for i in range(100)}
        s2 = {f"k{i}" for i in reversed(range(100))}
        assert payload_checksum(s1) == payload_checksum(s2)

    def test_shared_wrapper_contents_are_hashed(self):
        arr = np.arange(4, dtype=float)
        sh = Shared(arr)
        c0 = payload_checksum(sh)
        arr[0] = 99.0
        assert payload_checksum(sh) != c0

    def test_cycle_safe(self):
        d = {}
        d["self"] = d
        payload_checksum(d)  # must terminate

    def test_none_and_scalars(self):
        assert payload_checksum(None) != payload_checksum(0)
        assert payload_checksum(1) != payload_checksum(1.5)


# ----------------------------------------------------------------------
# sender-mutation detection
# ----------------------------------------------------------------------

def _shared_buffer(comm):
    """One writable array every rank aliases (the Shared idiom)."""
    return (yield from share_from_root(
        comm, np.arange(4, dtype=float) if comm.rank == 0 else None))


def _mutating_sender(comm):
    """Seeded bug: rank 1 writes into the buffer rank 0 has posted to an
    exchange, before the exchange completes."""
    buf = yield from _shared_buffer(comm)
    if comm.rank == 1:
        buf[0] = -1.0  # deliberate bug under test
    got = yield from comm.exchange({1: buf} if comm.rank == 0 else {})
    return float(got[0][0]) if comm.rank == 1 else None


class TestSendMutation:
    def test_readonly_mutation_raises_clear_commerror(self):
        with pytest.raises(CommError) as exc:
            run0(_mutating_sender, 2, sanitize=True)
        msg = str(exc.value)
        assert "rank 0" in msg and "exchange payload" in msg
        assert "mutated" in msg and "copy" in msg

    def test_without_sanitize_the_bug_goes_unnoticed(self, monkeypatch):
        # under readonly the receiver aliases the mutated memory —
        # exactly the silent corruption the sanitizer exists to catch
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        vals = run0(_mutating_sender, 2)
        assert vals[1] == -1.0

    def test_sending_a_copy_passes_sanitize(self):
        # the fix the error message names: post a copy
        def copying_sender(comm):
            buf = yield from _shared_buffer(comm)
            posted = buf.copy() if comm.rank == 0 else None
            if comm.rank == 1:
                buf[0] = -1.0
            got = yield from comm.exchange({1: posted} if comm.rank == 0 else {})
            return float(got[0][0]) if comm.rank == 1 else None

        vals = run0(copying_sender, 2, sanitize=True)
        assert vals[1] == 0.0

    def test_clean_program_unaffected(self):
        def prog(comm):
            x = np.full(3, comm.rank, dtype=float)
            total = yield from comm.allreduce(x)
            return float(total.sum())

        assert run0(prog, 4, sanitize=True) == [18.0] * 4


class TestCollectiveMutation:
    def test_aliased_collective_payload_mutation_raises(self):
        shared = np.arange(8, dtype=float)

        def prog(comm):
            if comm.rank == 0:
                # both arms allreduce exactly once: schedules agree
                total = yield from comm.allreduce(shared)  # repro: lint-ok[SP102]
            else:
                shared[0] = -1.0  # mutates rank 0's posted payload
                total = yield from comm.allreduce(np.zeros(8))  # repro: lint-ok[SP102]
            return total

        with pytest.raises(CommError, match="allreduce payload mutated"):
            run0(prog, 2, sanitize=True)


# ----------------------------------------------------------------------
# collective-schedule checking
# ----------------------------------------------------------------------

class TestCollectiveLedger:
    def test_mismatch_error_names_both_ranks_and_ops(self):
        def prog(comm):
            yield from comm.barrier()
            if comm.rank == 0:
                yield from comm.allreduce(1)  # repro: lint-ok[SP102] bug under test
            else:
                yield from comm.gather(1)  # repro: lint-ok[SP102]

        with pytest.raises(CommError) as exc:
            run0(prog, 2, sanitize=True)
        msg = str(exc.value)
        assert "rank 0:allreduce" in msg and "rank 1:gather" in msg
        # sanitize mode appends each rank's recent collective history
        assert "recent collectives" in msg
        assert "barrier" in msg

    def test_sequence_mismatch_names_ranks_and_ops(self):
        san = Sanitizer(2)
        san.record_collective(0, 0, "allreduce", None)
        san.record_collective(1, 0, "bcast", 0)
        groups = {0: SimpleNamespace(members=[0, 1])}
        msg = san.sequence_mismatch(groups)
        assert "rank 0" in msg and "allreduce" in msg
        assert "rank 1" in msg and "bcast" in msg

    def test_sequence_match_returns_none(self):
        san = Sanitizer(2)
        for g in (0, 1):
            san.record_collective(g, 0, "barrier", None)
            san.record_collective(g, 0, "allreduce", None)
        assert san.sequence_mismatch(
            {0: SimpleNamespace(members=[0, 1])}) is None

    def test_sequence_length_mismatch_reported(self):
        san = Sanitizer(2)
        san.record_collective(0, 0, "barrier", None)
        msg = san.sequence_mismatch({0: SimpleNamespace(members=[0, 1])})
        assert "barrier" in msg and "<nothing>" in msg


# ----------------------------------------------------------------------
# undriven generators
# ----------------------------------------------------------------------

class TestUndriven:
    def test_undriven_generator_raises_under_sanitize(self):
        def prog(comm):
            yield from comm.barrier()
            comm.barrier()  # repro: lint-ok[SP101] deliberate bug under test
            return comm.rank

        with pytest.raises(CommError, match="never drove.*barrier"):
            run0(prog, 2, sanitize=True)

    def test_undriven_silent_without_sanitize(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        def prog(comm):
            yield from comm.barrier()
            comm.barrier()  # repro: lint-ok[SP101]
            return comm.rank

        assert run0(prog, 2) == [0, 1]


class TestUndelivered:
    def test_no_warning_when_all_delivered(self):
        import warnings

        def prog(comm):
            got = yield from comm.exchange({1: 1.0} if comm.rank == 0 else {})
            return got.get(0)

        with warnings.catch_warnings():
            warnings.simplefilter("error", CommWarning)
            assert run0(prog, 2)[1] == 1.0


# ----------------------------------------------------------------------
# activation and parity
# ----------------------------------------------------------------------

class TestActivation:
    def test_env_var_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(CommError, match="sanitizer"):
            run0(_mutating_sender, 2)

    def test_env_var_off_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        vals = run0(_mutating_sender, 2)
        assert vals[1] == -1.0

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        vals = run0(_mutating_sender, 2, sanitize=False)
        assert vals[1] == -1.0

    def test_sanitize_parity_on_clean_program(self):
        def prog(comm):
            rng = comm.rng
            local = rng.random(16)
            total = yield from comm.allreduce(local.sum())
            parts = yield from comm.gather(comm.rank * 2)
            parts = yield from comm.bcast(parts)
            yield from comm.barrier()
            return (round(float(total), 12), parts)

        plain = run0(prog, 4, seed=7)
        sanitized = run0(prog, 4, seed=7, sanitize=True)
        assert plain == sanitized
