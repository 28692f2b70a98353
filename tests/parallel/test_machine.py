"""Unit tests for the Hockney cost model and simulated clocks."""


import numpy as np
import pytest

from repro.errors import ConfigError
from repro.parallel import MachineModel, QDR_CLUSTER, ZERO_COST, run_spmd


class TestMachineModel:
    def test_defaults_positive(self):
        m = QDR_CLUSTER
        assert m.alpha > 0 and m.t_s > 0 and m.t_w > 0
        assert m.t_s > m.t_w  # latency dominates per-word cost

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            MachineModel(alpha=-1)

    def test_compute_cost_linear(self):
        m = MachineModel(alpha=2.0, t_s=0, t_w=0)
        assert m.compute_cost(10) == 20.0
        with pytest.raises(ConfigError):
            m.compute_cost(-1)

    def test_message_cost(self):
        m = MachineModel(alpha=0, t_s=5.0, t_w=1.0)
        # one message is a one-neighbour exchange: t_s + t_w * words
        assert m.exchange_cost(1, 10, 0) == 15.0
        assert m.exchange_cost(1, 0, 0) == 5.0

    def test_collective_costs_scale_log(self):
        m = MachineModel(alpha=0, t_s=1.0, t_w=0.0)
        assert m.collective_cost("barrier", 1, 0) == 0.0
        assert m.collective_cost("barrier", 8, 0) == pytest.approx(3.0)
        assert m.collective_cost("allreduce", 16, 5) == pytest.approx(4.0)

    def test_allgather_volume_term(self):
        m = MachineModel(alpha=0, t_s=0.0, t_w=1.0)
        # the root of a gather takes in (p-1)*m words, as a
        # recursive-doubling allgather moves
        assert m.collective_cost("gather", 4, 10) == pytest.approx(30.0)

    def test_alltoall_pairwise(self):
        m = MachineModel(alpha=0, t_s=1.0, t_w=1.0)
        # an alltoall is an exchange with the p-1 other ranks
        assert m.exchange_cost(3, 6, 6) == pytest.approx(3 * 1.0 + 6.0)

    def test_unknown_collective(self):
        for kind in ("gossip", "alltoall", "scan"):
            with pytest.raises(ConfigError):
                QDR_CLUSTER.collective_cost(kind, 4, 1)

    def test_with_params(self):
        m = QDR_CLUSTER.with_params(t_s=1.0)
        assert m.t_s == 1.0
        assert m.alpha == QDR_CLUSTER.alpha


class TestClockSemantics:
    def test_charge_advances_clock(self):
        m = MachineModel(alpha=1.0, t_s=0, t_w=0)

        def prog(comm):
            comm.charge(5)
            return comm.clock
            yield  # pragma: no cover

        res = run_spmd(prog, 2, machine=m)
        assert res.values == [5.0, 5.0]
        assert res.elapsed == 5.0
        assert np.allclose(res.comp_time, 5.0)

    def test_collective_synchronises_clocks(self):
        m = MachineModel(alpha=1.0, t_s=10.0, t_w=0.0)

        def prog(comm):
            comm.charge(comm.rank * 100)  # rank 1 is slower
            yield from comm.barrier()
            return comm.clock

        res = run_spmd(prog, 2, machine=m)
        # both exit at max(0, 100) + ts*log2(2)
        assert res.values == [110.0, 110.0]
        # rank 0 waited for rank 1: its comm time includes the skew
        assert res.comm_time[0] == pytest.approx(110.0)
        assert res.comm_time[1] == pytest.approx(10.0)

    def test_message_arrival_time(self):
        m = MachineModel(alpha=1.0, t_s=3.0, t_w=1.0)

        def prog(comm):
            if comm.rank == 0:
                comm.charge(10)
            # one neighbour, 4 words out or in: ts + 4 tw after the
            # later rank posts
            yield from comm.exchange({1 - comm.rank: None}, words=4)
            return comm.clock

        res = run_spmd(prog, 2, machine=m)
        assert res.values == [pytest.approx(17.0)] * 2

    def test_recv_after_arrival_costs_nothing_extra(self):
        m = MachineModel(alpha=1.0, t_s=1.0, t_w=0.0)

        def prog(comm):
            if comm.rank == 1:
                comm.charge(100)  # the receiver is the late rank
            yield from comm.exchange({1: "x"} if comm.rank == 0 else {})
            return comm.clock

        res = run_spmd(prog, 2, machine=m)
        # the late receiver pays neither a wait nor a send latency; the
        # sender waits out the skew, then pays its one latency
        assert res.values[1] == pytest.approx(100.0)
        assert res.values[0] == pytest.approx(101.0)
        assert res.comm_stats.wait_time.tolist() == [100.0, 0.0]

    def test_elapsed_is_max_clock(self):
        m = MachineModel(alpha=1.0, t_s=0, t_w=0)

        def prog(comm):
            comm.charge(comm.rank)
            return None
            yield  # pragma: no cover

        res = run_spmd(prog, 4, machine=m)
        assert res.elapsed == 3.0

    def test_zero_cost_machine(self):
        def prog(comm):
            comm.charge(1e9)
            yield from comm.barrier()
            return comm.clock

        res = run_spmd(prog, 4, machine=ZERO_COST)
        assert res.elapsed == 0.0


class TestPhases:
    def test_phase_accounting(self):
        m = MachineModel(alpha=1.0, t_s=2.0, t_w=0.0)

        def prog(comm):
            comm.set_phase("coarsen")
            comm.charge(10)
            comm.set_phase("embed")
            comm.charge(20)
            yield from comm.barrier()
            return None

        res = run_spmd(prog, 2, machine=m)
        assert res.phase_elapsed("coarsen") == pytest.approx(10.0)
        assert res.phase("embed").comp_elapsed == pytest.approx(20.0)
        assert res.phase("embed").comm_elapsed == pytest.approx(2.0)
        assert res.phase_elapsed("missing") == 0.0

    def test_comm_fraction(self):
        m = MachineModel(alpha=1.0, t_s=100.0, t_w=0.0)

        def prog(comm):
            comm.charge(100)
            yield from comm.barrier()
            return None

        res = run_spmd(prog, 2, machine=m)
        assert res.comm_fraction == pytest.approx(0.5)

    def test_message_and_collective_counters(self):
        def prog(comm):
            yield from comm.exchange({1 - comm.rank: 1})
            yield from comm.barrier()
            return None

        res = run_spmd(prog, 2, machine=ZERO_COST)
        assert res.messages == 0  # no point-to-point operation exists
        assert res.collectives == 2

    def test_summary_mentions_ranks(self):
        def prog(comm):
            yield from comm.barrier()

        res = run_spmd(prog, 2, machine=ZERO_COST)
        assert "P=2" in res.summary()
