"""Unit tests for trace data structures and the JSONL trace format."""

import io
import json

import numpy as np
import pytest

from repro.parallel import ZERO_COST, run_spmd
from repro.parallel.trace import (
    CommStats,
    GLOBAL_COLLECTIVES,
    PhaseBreakdown,
    SpmdResult,
    read_trace_jsonl,
    trace_records,
    write_trace_jsonl,
)


class TestPhaseBreakdown:
    def test_elapsed_is_critical_path(self):
        ph = PhaseBreakdown(np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert ph.elapsed == 4.0
        assert ph.comp_elapsed == 3.0
        assert ph.comm_elapsed == 2.0

    def test_comm_fraction_of_critical_rank(self):
        ph = PhaseBreakdown(np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        # rank 1 is critical (3 + 1): fraction is its comm share
        assert ph.comm_fraction == pytest.approx(0.25)

    def test_empty_and_zero(self):
        z = PhaseBreakdown.zeros(3)
        assert z.elapsed == 0.0
        assert z.comm_fraction == 0.0

    def test_merged_sums_elementwise(self):
        a = PhaseBreakdown(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        b = PhaseBreakdown(np.array([2.0, 2.0]), np.array([1.0, 0.0]))
        m = PhaseBreakdown.merged([a, b], 2)
        np.testing.assert_array_equal(m.comp, [3.0, 2.0])
        np.testing.assert_array_equal(m.comm, [1.0, 1.0])


def _stats(nranks=2, **kw):
    s = CommStats.zeros(nranks)
    for k, v in kw.items():
        setattr(s, k, v)
    return s


class TestCommStats:
    def test_add_accumulates_all_counters(self):
        a = CommStats.zeros(2)
        a.sends[:] = [1, 0]
        a.words_sent[:] = [10, 0]
        a._coll_array("allreduce")[:] = [1, 1]
        a.collective_ops["allreduce"] = 1
        b = CommStats.zeros(2)
        b.sends[:] = [0, 2]
        b._coll_array("allreduce")[:] = [1, 1]
        b._coll_array("bcast")[:] = [1, 0]
        b.collective_ops["allreduce"] = 1
        b.collective_ops["bcast"] = 1
        a.add(b)
        np.testing.assert_array_equal(a.sends, [1, 2])
        np.testing.assert_array_equal(a.collectives["allreduce"], [2, 2])
        np.testing.assert_array_equal(a.collectives["bcast"], [1, 0])
        assert a.collective_ops == {"allreduce": 2, "bcast": 1}

    def test_aggregate_attaches_phases(self):
        pa, pb = CommStats.zeros(2), CommStats.zeros(2)
        pa.sends[:] = [1, 1]
        pb.sends[:] = [2, 0]
        run = CommStats.aggregate({"a": pa, "b": pb}, 2)
        np.testing.assert_array_equal(run.sends, [3, 1])
        assert set(run.phases) == {"a", "b"}

    def test_phase_prefix_aggregation(self):
        child1, child2, other = (CommStats.zeros(1) for _ in range(3))
        child1.collective_ops["allreduce"] = 2
        child2.collective_ops["allreduce"] = 3
        other.collective_ops["allreduce"] = 10
        run = CommStats.aggregate(
            {"embed/refresh": child1, "embed/halo": child2, "coarsen": other}, 1
        )
        assert run.phase("embed").collective_ops["allreduce"] == 5
        assert run.phase("coarsen").collective_ops["allreduce"] == 10
        assert run.phase("nothing").collective_ops == {}

    def test_collective_invocations_default_excludes_exchange(self):
        s = CommStats.zeros(1)
        s.collective_ops = {"allreduce": 3, "exchange": 7, "barrier": 2,
                            "split": 1}
        assert s.collective_invocations() == 3
        assert s.collective_invocations(["exchange", "barrier"]) == 9
        assert "exchange" not in GLOBAL_COLLECTIVES

    def test_dict_roundtrip(self):
        s = CommStats.zeros(3)
        s.sends[:] = [1, 2, 3]
        s.words_received[:] = [0.5, 0, 0]
        s._coll_array("gather")[:] = [1, 0, 1]
        s.collective_ops["gather"] = 1
        s.wait_time[:] = [0, 0.25, 0]
        back = CommStats.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.nranks == 3
        np.testing.assert_array_equal(back.sends, s.sends)
        np.testing.assert_array_equal(back.collectives["gather"],
                                      s.collectives["gather"])
        assert back.collective_ops == s.collective_ops
        np.testing.assert_array_equal(back.wait_time, s.wait_time)

    def test_summary_mentions_counts(self):
        s = CommStats.zeros(2)
        s.sends[:] = [2, 1]
        s.collective_ops["allreduce"] = 4
        text = s.summary()
        assert "msgs=3" in text
        assert "allreduce=4" in text


class TestSpmdResultHierarchy:
    def _result(self):
        phases = {
            "embed/a": PhaseBreakdown(np.array([1.0]), np.array([1.0])),
            "embed/b": PhaseBreakdown(np.array([2.0]), np.array([0.0])),
            "part": PhaseBreakdown(np.array([1.0]), np.array([3.0])),
        }
        return SpmdResult(
            values=[None],
            clocks=np.array([8.0]),
            comp_time=np.array([4.0]),
            comm_time=np.array([4.0]),
            phases=phases,
        )

    def test_phase_aggregates_children(self):
        res = self._result()
        assert res.phase("embed").elapsed == pytest.approx(4.0)
        assert res.phase_elapsed("embed/a") == pytest.approx(2.0)
        assert res.phase("missing").elapsed == 0.0

    def test_phase_roots(self):
        assert self._result().phase_roots() == ["embed", "part"]

    def test_phase_comm_stats_without_ledger_is_zero(self):
        res = self._result()
        assert res.comm_stats is None
        cs = res.phase_comm_stats("embed")
        assert cs.total_messages == 0


class TestJsonlTrace:
    def _run(self):
        def prog(comm):
            comm.set_phase("work")
            yield from comm.allreduce(comm.rank)
            comm.set_phase("finish")
            yield from comm.exchange({1: np.zeros(5)} if comm.rank == 0 else {},
                                     words=5 if comm.rank == 0 else 0)

        # a non-zero latency books each phase's time, so every phase
        # gets a record
        return run_spmd(prog, 2, machine=ZERO_COST.with_params(t_s=1e-6))

    def test_records_structure(self):
        res = self._run()
        recs = list(trace_records(res))
        assert recs[0]["record"] == "run"
        assert recs[0]["nranks"] == 2
        assert recs[0]["comm"]["collective_ops"] == {"allreduce": 1, "exchange": 1}
        names = [r["phase"] for r in recs[1:]]
        assert names == sorted(names)
        by_name = {r["phase"]: r for r in recs[1:]}
        # the point-to-point columns stay in the schema, always 0
        assert by_name["finish"]["comm_stats"]["sends"] == [0, 0]
        assert by_name["finish"]["comm_stats"]["words_sent"] == [0, 0]
        assert by_name["finish"]["comm_stats"]["collective_words"] == [5, 0]
        assert by_name["finish"]["comm_stats"]["collective_ops"] == {"exchange": 1}

    def test_file_roundtrip(self, tmp_path):
        res = self._run()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(res, str(path))
        back = read_trace_jsonl(str(path))
        assert back == list(trace_records(res))
        rebuilt = CommStats.from_dict(back[0]["comm"])
        assert rebuilt.collective_ops == res.comm_stats.collective_ops

    def test_stream_roundtrip(self):
        res = self._run()
        buf = io.StringIO()
        write_trace_jsonl(res, buf)
        buf.seek(0)
        assert read_trace_jsonl(buf) == list(trace_records(res))
