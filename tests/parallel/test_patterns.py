"""Tests for SPMD communication patterns and distribution helpers."""

import numpy as np
import pytest

from repro.graph.distributed import (
    Shared,
    adjacency_slots,
    block_of,
    block_starts,
    owner_by_block,
)
from repro.graph.generators import grid2d
from repro.errors import GraphError
from repro.parallel import MachineModel, ZERO_COST, run_spmd
from repro.parallel.patterns import allgather_concat, share_from_root


class TestBlockDistribution:
    def test_starts_cover_exactly(self):
        s = block_starts(10, 3)
        assert s.tolist() == [0, 4, 7, 10]

    def test_even_division(self):
        s = block_starts(8, 4)
        assert np.diff(s).tolist() == [2, 2, 2, 2]

    def test_more_ranks_than_items(self):
        s = block_starts(2, 5)
        assert s[-1] == 2
        assert (np.diff(s) >= 0).all()

    def test_owner_by_block(self):
        s = block_starts(10, 3)
        owners = owner_by_block(s, np.arange(10))
        assert owners.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_block_of(self):
        s = block_starts(10, 3)
        assert block_of(s, 1) == (4, 7)

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            block_starts(5, 0)


class TestAdjacencySlots:
    def test_slots_cover_subset(self):
        g = grid2d(4, 4).graph
        verts = np.array([0, 5, 10])
        src_pos, src, dst, w = adjacency_slots(g, verts)
        assert src_pos.shape == src.shape == dst.shape == w.shape
        assert set(np.unique(src)) <= set(verts.tolist())
        # every slot of every selected vertex appears exactly once
        expected = sum(g.degrees()[v] for v in verts)
        assert src.shape[0] == expected

    def test_empty_subset(self):
        g = grid2d(3, 3).graph
        src_pos, src, dst, w = adjacency_slots(g, np.zeros(0, dtype=np.int64))
        assert src.shape[0] == 0


class TestPatterns:
    def test_allgather_concat_order(self):
        def prog(comm):
            local = np.full(comm.rank + 1, comm.rank)
            full = yield from allgather_concat(comm, local)
            return full.tolist()

        vals = run_spmd(prog, 3, machine=ZERO_COST).values
        assert vals[0] == [0, 1, 1, 2, 2, 2]
        assert vals[0] == vals[1] == vals[2]

    def test_allgather_concat_cost_matches_allgather(self):
        m = MachineModel(alpha=0, t_s=1.0, t_w=1.0)

        def prog(comm):
            yield from allgather_concat(comm, np.zeros(4))
            return comm.clock

        res = run_spmd(prog, 8, machine=m)
        # recursive-doubling allgather: ts*log p + tw*(p-1)*m = 3 + 28
        expected = 1.0 * 3 + 1.0 * (8 - 1) * 4
        assert res.values[0] == pytest.approx(expected, rel=0.35)

    def test_share_from_root_is_reference(self):
        sentinel = {"big": np.arange(5)}

        def prog(comm):
            val = yield from share_from_root(
                comm, sentinel if comm.rank == 0 else None, words=1
            )
            return val is sentinel

        vals = run_spmd(prog, 4, machine=ZERO_COST).values
        assert all(vals)

    def test_shared_wrapper_repr(self):
        assert "ndarray" in repr(Shared(np.zeros(2)))
