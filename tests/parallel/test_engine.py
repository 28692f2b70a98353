"""Unit tests for the SPMD coroutine engine and communicator API.

:class:`~repro.parallel.engine.Comm` offers six operations.  The
collectives MPI has beyond them (reduce, allgather, scatter, alltoall,
scan) are tested here as the compositions of the six that a rank
program uses instead.
"""

import numpy as np
import pytest

from repro.errors import CommError, DeadlockError
from repro.parallel import MachineModel, ZERO_COST, payload_words, run_spmd
from repro.parallel.patterns import allgather_concat


def run0(fn, p, *args, **kw):
    """Run with the zero-cost machine and return per-rank values."""
    return run_spmd(fn, p, *args, machine=ZERO_COST, **kw).values


def _alltoall(comm, values):
    """Rank ``r`` gets element ``r`` of every rank's list: one
    ``exchange`` to every other rank plus the rank's own element."""
    me = comm.rank
    got = yield from comm.exchange(
        {d: v for d, v in enumerate(values) if d != me})
    return [values[me] if src == me else got[src] for src in range(comm.size)]


def _scan(comm, value):
    """Inclusive prefix sum: one allreduce of a vector that holds
    ``value`` at this rank's position and after it."""
    masked = np.where(np.arange(comm.size) >= comm.rank, value, 0)
    prefix = yield from comm.allreduce(masked, op="sum")
    return int(prefix[comm.rank])


class TestBasics:
    def test_single_rank_plain_function(self):
        res = run_spmd(lambda comm: comm.rank * 10 + comm.size, 1, machine=ZERO_COST)
        assert res.values == [1]

    def test_rank_and_size(self):
        def prog(comm):
            return (comm.rank, comm.size)
            yield  # pragma: no cover

        vals = run0(prog, 4)
        assert vals == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_invalid_nranks(self):
        with pytest.raises(CommError):
            run_spmd(lambda comm: None, 0)

    def test_yielding_garbage_raises(self):
        def prog(comm):
            yield 42

        with pytest.raises(CommError, match="yielded"):
            run0(prog, 2)

    def test_per_rank_rng_streams_differ(self):
        def prog(comm):
            return float(comm.rng.random())
            yield  # pragma: no cover

        vals = run0(prog, 4, seed=9)
        assert len(set(vals)) == 4

    def test_rng_deterministic_across_runs(self):
        def prog(comm):
            return float(comm.rng.random())
            yield  # pragma: no cover

        assert run0(prog, 3, seed=5) == run0(prog, 3, seed=5)


class TestCollectives:
    def test_barrier(self):
        def prog(comm):
            yield from comm.barrier()
            return comm.rank

        assert run0(prog, 5) == list(range(5))

    def test_bcast(self):
        def prog(comm):
            data = {"x": comm.rank} if comm.rank == 1 else None
            out = yield from comm.bcast(data, root=1)
            return out["x"]

        assert run0(prog, 4) == [1, 1, 1, 1]

    def test_reduce_sum_at_root(self):
        # a reduction to one root is a gather there
        def prog(comm):
            parts = yield from comm.gather(comm.rank + 1, root=2)
            return None if parts is None else sum(parts)

        vals = run0(prog, 4)
        assert vals == [None, None, 10, None]

    def test_allreduce_ops(self):
        for op, expect in [("sum", 6), ("min", 0), ("max", 3), ("prod", 0)]:
            def prog(comm, op=op):
                return (yield from comm.allreduce(comm.rank, op=op))

            assert run0(prog, 4) == [expect] * 4

    def test_allreduce_arrays_elementwise(self):
        def prog(comm):
            v = np.array([comm.rank, -comm.rank], dtype=float)
            mx = yield from comm.allreduce(v, op="max")
            mn = yield from comm.allreduce(v, op="min")
            return (mx.tolist(), mn.tolist())

        vals = run0(prog, 3)
        assert vals[0] == ([2.0, 0.0], [0.0, -2.0])

    def test_allreduce_callable_op(self):
        # reductions are named: a callable is rejected when posted
        def prog(comm):
            return (yield from comm.allreduce((comm.rank, comm.rank * 2),
                                              op=lambda a, b: (a[0] + b[0], max(a[1], b[1]))))

        with pytest.raises(CommError, match="unknown reduction op 'function'"):
            run0(prog, 3)

    def test_unknown_reduce_op(self):
        def prog(comm):
            return (yield from comm.allreduce(1, op="median"))

        with pytest.raises(CommError, match="median"):
            run0(prog, 2)

    def test_gather(self):
        def prog(comm):
            out = yield from comm.gather(comm.rank**2, root=0)
            return out

        vals = run0(prog, 4)
        assert vals[0] == [0, 1, 4, 9]
        assert vals[1:] == [None, None, None]

    def test_allgather_order(self):
        # an allgather is a gather plus a broadcast of the gathered list
        def prog(comm):
            parts = yield from comm.gather(chr(ord("a") + comm.rank), root=0)
            return (yield from comm.bcast(parts, root=0))

        assert run0(prog, 3) == [["a", "b", "c"]] * 3

    def test_scatter(self):
        # a scatter is a broadcast of the list, each rank taking its slot
        def prog(comm):
            data = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            data = yield from comm.bcast(data, root=0)
            return data[comm.rank]

        assert run0(prog, 4) == [0, 10, 20, 30]

    def test_scatter_wrong_length(self):
        # with the broadcast composition a root list that is too short
        # fails on the rank left without a slot
        def prog(comm):
            data = yield from comm.bcast([1, 2] if comm.rank == 0 else None, root=0)
            return data[comm.rank]

        with pytest.raises(IndexError):
            run0(prog, 3)

    def test_alltoall(self):
        def prog(comm):
            out = yield from _alltoall(
                comm, [comm.rank * 10 + j for j in range(comm.size)])
            return out

        vals = run0(prog, 3)
        # rank r receives element r of every rank's list
        assert vals[1] == [1, 11, 21]

    def test_scan_inclusive(self):
        def prog(comm):
            return (yield from _scan(comm, comm.rank + 1))

        assert run0(prog, 4) == [1, 3, 6, 10]

    def test_mismatched_collectives_raise(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.barrier()  # repro: lint-ok[SP102] deliberate bug
            else:
                yield from comm.allreduce(1)  # repro: lint-ok[SP102]

        with pytest.raises(CommError, match="mismatch"):
            run0(prog, 2)

    def test_mismatched_roots_raise(self):
        def prog(comm):
            return (yield from comm.bcast(1, root=comm.rank))

        with pytest.raises(CommError, match="root"):
            run0(prog, 2)


class TestPointToPoint:
    """Pairwise delivery, which the six ops carry through ``exchange``."""

    def test_ring_pass(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = yield from comm.exchange({right: comm.rank})
            return got[left]

        assert run0(prog, 5) == [4, 0, 1, 2, 3]

    def test_fifo_between_pair(self):
        def prog(comm):
            out = []
            for msg in ("first", "second"):
                got = yield from comm.exchange({1: msg} if comm.rank == 0 else {})
                out.extend(got.values())
            return tuple(out)

        vals = run0(prog, 2)
        assert vals[1] == ("first", "second")

    def test_tags_disambiguate(self):
        # exchange has no tags: each payload arrives keyed by its sender
        def prog(comm):
            got = yield from comm.exchange({2: f"from {comm.rank}"} if comm.rank < 2 else {})
            return got

        assert run0(prog, 3)[2] == {0: "from 0", 1: "from 1"}

    def test_deadlock_detected(self):
        def prog(comm):
            # reversed key order: rank 1 is local rank 0 of the child
            sub = yield from comm.split(color=0, key=-comm.rank)
            # deliberate: each rank waits on a communicator the other
            # never posts to
            if comm.rank == 0:
                yield from comm.barrier()  # repro: lint-ok[SP102] deliberate deadlock
            else:
                yield from sub.barrier()  # repro: lint-ok[SP108]
            return sub.rank

        with pytest.raises(DeadlockError, match="rank 0"):
            run0(prog, 2)

    def test_send_out_of_range(self):
        def prog(comm):
            yield from comm.exchange({99: 1})

        with pytest.raises(CommError, match="neighbour 99 out of range"):
            run0(prog, 2)

    def test_finished_rank_leaves_collective_hanging(self):
        def prog(comm):
            if comm.rank == 0:
                return 0
            yield from comm.barrier()
            return 1

        with pytest.raises(DeadlockError):
            run0(prog, 2)


class TestSplit:
    def test_split_by_parity(self):
        def prog(comm):
            sub = yield from comm.split(color=comm.rank % 2)
            total = yield from sub.allreduce(comm.rank)
            return (sub.size, total)

        vals = run0(prog, 6)
        assert vals[0] == (3, 0 + 2 + 4)
        assert vals[1] == (3, 1 + 3 + 5)

    def test_split_none_drops_out(self):
        def prog(comm):
            sub = yield from comm.split(color=0 if comm.rank < 2 else None)
            if sub is None:
                return "out"
            return (yield from allgather_concat(sub, np.array([comm.rank]))).tolist()

        vals = run0(prog, 4)
        assert vals == [[0, 1], [0, 1], "out", "out"]

    def test_split_key_reorders(self):
        def prog(comm):
            sub = yield from comm.split(color=0, key=-comm.rank)
            return sub.rank

        vals = run0(prog, 3)
        assert vals == [2, 1, 0]

    def test_nested_split(self):
        def prog(comm):
            sub = yield from comm.split(color=comm.rank // 2)
            subsub = yield from sub.split(color=sub.rank)
            return (yield from subsub.gather(comm.world_rank))

        vals = run0(prog, 4)
        assert vals == [[0], [1], [2], [3]]


class TestPayloadWords:
    def test_array_exact(self):
        assert payload_words(np.zeros(10, dtype=np.float64)) == 10

    def test_scalars(self):
        assert payload_words(3) == 1
        assert payload_words(2.5) == 1
        assert payload_words(None) == 0

    def test_containers_recursive(self):
        assert payload_words([1, 2, 3]) == 4
        assert payload_words({"a": 1}) == pytest.approx(3.0)  # dict + key + value

    def test_string(self):
        assert payload_words("x" * 16) == 2


class TestExchange:
    def test_ring_halo(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            got = yield from comm.exchange({right: comm.rank * 10})
            return got

        vals = run0(prog, 4)
        # rank r receives from its left neighbour
        assert vals[1] == {0: 0}
        assert vals[0] == {3: 30}

    def test_empty_participation(self):
        def prog(comm):
            msgs = {1: "x"} if comm.rank == 0 else {}
            got = yield from comm.exchange(msgs)
            return got

        vals = run0(prog, 3)
        assert vals == [{}, {0: "x"}, {}]

    def test_payload_copied(self):
        import numpy as np

        def prog(comm):
            if comm.rank == 0:
                arr = np.ones(3)
                # both arms exchange+barrier once: schedules agree
                got = yield from comm.exchange({1: arr})  # repro: lint-ok[SP102]
                yield from comm.barrier()  # repro: lint-ok[SP102]
                return float(arr.sum())
            got = yield from comm.exchange({0: None})
            got[0] if False else None
            yield from comm.barrier()
            return None

        vals = run0(prog, 2)
        assert vals[0] == 3.0

    def test_self_send_rejected(self):
        def prog(comm):
            yield from comm.exchange({comm.rank: 1})

        with pytest.raises(CommError, match="self"):
            run0(prog, 2)

    def test_out_of_range_rejected(self):
        def prog(comm):
            yield from comm.exchange({7: 1})

        with pytest.raises(CommError, match="out of range"):
            run0(prog, 2)

    def test_exchange_cost_charged(self):
        from repro.parallel import MachineModel, run_spmd

        m = MachineModel(alpha=0, t_s=1.0, t_w=1.0)

        def prog(comm):
            right = (comm.rank + 1) % comm.size
            yield from comm.exchange({right: None}, words=10)
            return comm.clock

        res = run_spmd(prog, 2, machine=m)
        # 1 neighbour * ts + tw * max(10, 10)
        assert res.values[0] == pytest.approx(11.0)


class TestCollectiveProperties:
    """Randomised payloads checked against sequential references."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("op,ref", [
        ("sum", lambda d: d.sum(axis=0)),
        ("min", lambda d: d.min(axis=0)),
        ("max", lambda d: d.max(axis=0)),
    ])
    def test_allreduce_matches_sequential(self, p, op, ref):
        data = np.random.default_rng(p * 100 + len(op)).normal(size=(p, 6))

        def prog(comm):
            return (yield from comm.allreduce(data[comm.rank].copy(), op=op))

        expect = ref(data)
        for got in run0(prog, p):
            np.testing.assert_allclose(got, expect)

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_scan_matches_prefix_sum(self, p):
        data = np.random.default_rng(41 + p).integers(-50, 50, size=p)

        def prog(comm):
            return (yield from _scan(comm, int(data[comm.rank])))

        assert run0(prog, p) == np.cumsum(data).tolist()

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_alltoall_matches_transpose(self, p):
        data = np.random.default_rng(7 * p).integers(0, 1000, size=(p, p))

        def prog(comm):
            return (yield from _alltoall(comm, data[comm.rank].tolist()))

        vals = run0(prog, p)
        for r in range(p):
            assert vals[r] == data[:, r].tolist()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_allgather_matches_concat(self, p):
        data = np.random.default_rng(13 * p).normal(size=(p, 3))

        def prog(comm):
            return (yield from allgather_concat(comm, data[comm.rank].copy()))

        for got in run0(prog, p):
            np.testing.assert_allclose(got.reshape(p, 3), data)

    def test_mismatched_kinds_raise_commerror(self):
        def prog(comm):
            if comm.rank == 0:
                # deliberate bug: ranks disagree on the collective kind
                return (yield from comm.gather(comm.rank))  # repro: lint-ok[SP102]
            return (yield from comm.bcast(None))

        with pytest.raises(CommError, match="mismatch"):
            run0(prog, 2)

    def test_parked_recv_without_sender_names_op(self):
        def prog(comm):
            if comm.rank == 0:
                # deliberate: rank 1 never contributes to the gather
                got = yield from comm.gather(0, root=0)  # repro: lint-ok[SP102]
                return got
            return None

        with pytest.raises(DeadlockError, match=r"rank 0: waiting on gather\(comm=0\)"):
            run0(prog, 2)


class TestCommStats:
    """The engine's measured communication ledger."""

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_world_allreduce_counts_once_per_rank(self, p):
        def prog(comm):
            return (yield from comm.allreduce(1.0))

        res = run_spmd(prog, p, machine=ZERO_COST)
        stats = res.comm_stats
        assert stats is not None
        np.testing.assert_array_equal(stats.collectives["allreduce"], np.ones(p))
        assert stats.collective_ops == {"allreduce": 1}
        assert stats.collective_invocations() == 1

    def test_subcomm_collective_counts_members_only(self):
        def prog(comm):
            sub = yield from comm.split(0 if comm.rank < 2 else None)
            if sub is not None:
                yield from sub.allreduce(comm.rank)

        stats = run_spmd(prog, 4, machine=ZERO_COST).comm_stats
        np.testing.assert_array_equal(
            stats.collectives["allreduce"], [1, 1, 0, 0]
        )
        assert stats.collective_ops["allreduce"] == 1

    def test_point_to_point_counters_and_words(self):
        # pairwise traffic is an exchange: the point-to-point counters
        # stay 0 and the words are booked as collective contributions
        def prog(comm):
            sender = comm.rank == 0
            return (yield from comm.exchange({1: np.zeros(10)} if sender else {},
                                             words=10 if sender else 0))

        res = run_spmd(prog, 2, machine=ZERO_COST)
        stats = res.comm_stats
        for counter in (stats.sends, stats.recvs, stats.words_sent,
                        stats.words_received):
            np.testing.assert_array_equal(counter, [0, 0])
        np.testing.assert_array_equal(stats.collective_words, [10, 0])
        assert stats.total_messages == 0 and res.messages == 0
        assert stats.total_words == 10

    def test_exchange_not_a_global_collective(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            yield from comm.exchange({right: comm.rank})
            yield from comm.allreduce(1)

        stats = run_spmd(prog, 4, machine=ZERO_COST).comm_stats
        assert stats.collective_ops["exchange"] == 1
        assert stats.collective_invocations() == 1  # the allreduce only
        assert stats.collective_invocations(["exchange"]) == 1

    def test_phase_attribution_and_aggregation(self):
        def prog(comm):
            comm.set_phase("embed/refresh")
            yield from comm.allreduce(1)
            comm.set_phase("embed/halo")
            right = (comm.rank + 1) % comm.size
            yield from comm.exchange({right: None})
            comm.set_phase("partition")
            yield from comm.allreduce(2)

        res = run_spmd(prog, 3, machine=ZERO_COST)
        stats = res.comm_stats
        assert set(stats.phases) == {"embed/refresh", "embed/halo", "partition"}
        embed = stats.phase("embed")
        assert embed.collective_ops == {"allreduce": 1, "exchange": 1}
        assert stats.phase("partition").collective_ops == {"allreduce": 1}
        # run totals are the sum of the phases
        assert stats.collective_ops["allreduce"] == 2
        assert res.phase_comm_stats("embed").collective_invocations() == 1

    def test_collective_wait_time_measures_skew(self):
        m = MachineModel(alpha=1.0, t_s=0.0, t_w=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.charge(2.0)
            yield from comm.allreduce(1)

        stats = run_spmd(prog, 2, machine=m).comm_stats
        assert stats.wait_time[0] == pytest.approx(0.0)
        assert stats.wait_time[1] == pytest.approx(2.0)
        assert stats.total_wait == pytest.approx(2.0)

    def test_recv_wait_time_beyond_transfer(self):
        m = MachineModel(alpha=1.0, t_s=0.0, t_w=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.charge(3.0)
            return (yield from comm.exchange({1: 1} if comm.rank == 0 else {}))

        stats = run_spmd(prog, 2, machine=m).comm_stats
        assert stats.wait_time[1] == pytest.approx(3.0)

    def test_no_wait_when_ranks_in_lockstep(self):
        def prog(comm):
            comm.charge(1.0)
            yield from comm.allreduce(comm.rank)

        stats = run_spmd(prog, 4, machine=ZERO_COST).comm_stats
        assert stats.total_wait == 0.0

    def test_zero_comm_program_has_empty_ledger(self):
        def prog(comm):
            comm.charge(5.0)
            return comm.rank
            yield  # pragma: no cover

        stats = run_spmd(prog, 3, machine=ZERO_COST).comm_stats
        assert stats.total_messages == 0
        assert stats.total_words == 0.0
        assert stats.collective_invocations(stats.collective_ops) == 0


class TestCopyModes:
    """Zero-copy read-only delivery, and the sender-side copy that
    replaces it where a sender must keep writing."""

    def test_readonly_send_delivers_readonly_view(self):
        def prog(comm):
            arr = np.arange(4.0)
            got = yield from comm.exchange({1: arr} if comm.rank == 0 else {})
            if comm.rank == 0:
                return arr.base is None  # sender keeps its own array
            got = got[0]
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 99.0
            return float(got.sum())

        vals = run0(prog, 2)
        assert vals == [True, 6.0]

    def test_readonly_bcast_and_allgather_arrays_are_readonly(self):
        def prog(comm):
            arr = np.full(3, float(comm.rank))
            got = yield from comm.bcast(arr, root=0)
            # allgather: gather at the root, broadcast the list
            gathered = yield from comm.gather(arr, root=0)
            gathered = yield from comm.bcast(gathered, root=0)
            assert not got.flags.writeable
            assert all(not g.flags.writeable for g in gathered)
            # container structure is private per rank: mutating my list
            # must not leak anywhere
            gathered.append(None)
            return float(got[0]) + sum(float(g[0]) for g in gathered[:-1])

        vals = run0(prog, 3)
        assert vals == [3.0, 3.0, 3.0]

    def test_readonly_exchange_arrays_are_readonly(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            got = yield from comm.exchange({right: np.ones(2) * comm.rank})
            left = (comm.rank - 1) % comm.size
            assert not got[left].flags.writeable
            return float(got[left][0])

        assert run0(prog, 3) == [2.0, 0.0, 1.0]

    def test_readonly_delivery_shares_sender_memory(self):
        def prog(comm):
            arr = np.arange(8.0)
            got = yield from comm.exchange({1: arr} if comm.rank == 0 else {})
            if comm.rank == 0:
                return None
            return got[0].base is not None  # a view, not a copy

        assert run0(prog, 2)[1] is True

    def test_defensive_isolates_sender_memory(self):
        def prog(comm):
            if comm.rank == 0:
                arr = np.arange(4.0)
                yield from comm.exchange({1: arr.copy()})  # repro: lint-ok[SP102] both arms exchange+barrier
                # mutate after delivery: legal, the posted buffer is a copy
                arr[:] = -1.0
                yield from comm.barrier()  # repro: lint-ok[SP102]
                return None
            got = (yield from comm.exchange({}))[0]
            yield from comm.barrier()
            return float(got.sum())

        vals = run0(prog, 2)
        assert vals[1] == 0.0 + 1.0 + 2.0 + 3.0

    def test_nested_containers_rebuilt_arrays_shared(self):
        def prog(comm):
            payload = {"xs": [np.ones(2), np.zeros(2)], "tag": "t"}
            got = yield from comm.exchange({1: payload} if comm.rank == 0 else {})
            if comm.rank == 0:
                return None
            got = got[0]
            # dict/list skeleton is mine to mutate; leaves are read-only
            got["extra"] = 1
            got["xs"].append(None)
            assert not got["xs"][0].flags.writeable
            return got["tag"]

        assert run0(prog, 2)[1] == "t"


class TestReduceShapeValidation:
    def test_mismatched_array_shapes_raise(self):
        def prog(comm):
            arr = np.ones(comm.rank + 1)  # different length per rank
            yield from comm.allreduce(arr, op="sum")

        with pytest.raises(CommError, match="shape"):
            run0(prog, 2)

    def test_mixed_scalar_and_array_raise(self):
        def prog(comm):
            val = np.ones(3) if comm.rank == 0 else 1.0
            yield from comm.allreduce(val, op="sum")

        with pytest.raises(CommError, match="shape"):
            run0(prog, 2)

    def test_matching_shapes_still_reduce(self):
        def prog(comm):
            red = yield from comm.allreduce(np.ones(3), op="max")
            return float(red[0])

        assert run0(prog, 3) == [1.0, 1.0, 1.0]
