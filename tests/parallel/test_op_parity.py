"""Per-op differential tests: every operation means the same on both backends.

The registered methods never call ``scan``, ``scatter``, ``alltoall`` or
``reduce``, so the method-level parity matrix cannot see those paths.
Here one small program posts every collective kind, tagged
point-to-point messages and a nested ``split``; it must return the same
values and book the same ledger on ``backend="sim"`` and
``backend="procs"``.  Malformed programs must fail
with the same exception type and the same first message line.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.errors import CommError, DeadlockError
from repro.parallel import ZERO_COST, procs_available, run_spmd

from tests.conftest import ledger_fingerprint

pytestmark = pytest.mark.skipif(
    not procs_available(), reason="procs backend unavailable (no fork)"
)

P = 5
BACKENDS = ["sim", "procs"]


def _run(prog, nranks, backend):
    return run_spmd(prog, nranks, machine=ZERO_COST, seed=3, backend=backend,
                    op_timeout=30.0, stall_timeout=10.0)


def _canon(v):
    """Comparable form of a rank's return value (arrays by content)."""
    if isinstance(v, np.ndarray):
        return ["ndarray", v.dtype.str, list(v.shape), v.tolist()]
    if isinstance(v, dict):
        return {"dict": [[_canon(k), _canon(x)] for k, x in sorted(v.items())]}
    if isinstance(v, (list, tuple)):
        return [type(v).__name__, [_canon(x) for x in v]]
    return v


def _every_op(comm):
    """Posts all 11 collective kinds, tagged p2p and a nested split."""
    r, p = comm.rank, comm.size
    arr = np.arange(6, dtype=np.float64) * (r + 1)
    out = {}
    comm.set_phase("collectives")
    yield from comm.barrier()
    out["bcast"] = yield from comm.bcast(
        {"a": arr, "t": (r, "x")} if r == 1 else None, root=1)
    out["reduce"] = yield from comm.reduce(arr, op="max", root=2)
    out["allreduce"] = yield from comm.allreduce(arr, op="sum")
    out["allreduce_prod"] = yield from comm.allreduce(r + 1, op="prod")
    out["allreduce_fn"] = yield from comm.allreduce(
        (r, -r), op=lambda a, b: (a[0] + b[0], min(a[1], b[1])))
    out["gather"] = yield from comm.gather((r, arr[:2]), root=3)
    out["allgather"] = yield from comm.allgather([r, r / 2])
    out["scatter"] = yield from comm.scatter(
        [np.full(3, i, dtype=np.int64) for i in range(p)] if r == 0 else None,
        root=0)
    out["alltoall"] = yield from comm.alltoall([(r, d) for d in range(p)])
    out["scan"] = yield from comm.scan(arr[:3], op="sum")
    out["scan_fn"] = yield from comm.scan(r + 1, op=lambda a, b: a * b)
    out["exchange"] = yield from comm.exchange(
        {(r + 1) % p: arr[r:], (r - 1) % p: r})
    comm.set_phase("p2p")
    yield from comm.send(arr * 2, dest=(r + 1) % p, tag=7)
    yield from comm.send({"r": r}, dest=(r + 2) % p, tag=9)
    out["recv7"] = yield from comm.recv(source=(r - 1) % p, tag=7)
    out["recv9"] = yield from comm.recv(source=(r - 2) % p, tag=9)
    out["sendrecv"] = yield from comm.sendrecv(
        [r], dest=(r + 3) % p, source=(r - 3) % p, tag=3)
    comm.set_phase("split")
    sub = yield from comm.split(color=r % 2, key=-r)
    out["sub"] = (sub.rank, sub.size)
    out["sub_allgather"] = yield from sub.allgather(r)
    if sub.size > 1:
        nxt, prv = (sub.rank + 1) % sub.size, (sub.rank - 1) % sub.size
        out["sub_ring"] = yield from sub.sendrecv(r, dest=nxt, source=prv, tag=1)
    subsub = yield from sub.split(color=None if sub.rank == 0 else 0)
    if subsub is not None:
        out["subsub"] = (subsub.rank, subsub.size)
        out["subsub_min"] = yield from subsub.allreduce(r, op="min")
    return out


class TestEveryOp:
    def test_values_and_ledgers_match_across_backends(self):
        results = {backend: _run(_every_op, P, backend) for backend in BACKENDS}
        ref = results["sim"]
        ref_values = json.dumps(_canon(ref.values))
        ref_ledger = json.dumps(ledger_fingerprint(ref.comm_stats))
        assert ref.messages > 0 and ref.collectives > 0
        for run, res in results.items():
            assert json.dumps(_canon(res.values)) == ref_values, run
            assert json.dumps(ledger_fingerprint(res.comm_stats)) == ref_ledger, run
            assert (res.messages, res.collectives, res.words_sent) == (
                ref.messages, ref.collectives, ref.words_sent), run


# ----------------------------------------------------------------------
# malformed programs: same error, same first line, on both backends
# ----------------------------------------------------------------------

def _mismatched_kinds(comm):
    if comm.rank == 0:
        yield from comm.barrier()  # repro: lint-ok[SP102] deliberate bug
    else:
        yield from comm.bcast(1)  # repro: lint-ok[SP102]


def _mismatched_roots(comm):
    yield from comm.bcast(1, root=comm.rank % 2)


def _mismatched_ops(comm):
    yield from comm.allreduce(3, op="min" if comm.rank == 0 else "max")


def _callable_vs_named_op(comm):
    op = (lambda a, b: a + b) if comm.rank == 0 else "sum"
    yield from comm.allreduce(3, op=op)


def _mismatched_scan_ops(comm):
    yield from comm.scan(1, op="sum" if comm.rank < 2 else "prod")


def _dest_out_of_range(comm):
    yield from comm.send(1, dest=comm.size, tag=0)


def _source_out_of_range(comm):
    yield from comm.recv(source=-1, tag=0)  # repro: lint-ok[SP107]


def _short_scatter(comm):
    vals = list(range(comm.size - 1)) if comm.rank == 0 else None
    yield from comm.scatter(vals, root=0)


def _short_alltoall(comm):
    yield from comm.alltoall([0] * (comm.size - 1))


def _exchange_to_self(comm):
    yield from comm.exchange({comm.rank: 1})


def _shape_mismatch(comm):
    yield from comm.allreduce(np.zeros(comm.rank + 1))


def _unknown_op(comm):
    yield from comm.allreduce(1, op="median")


MALFORMED = [
    (_mismatched_kinds, "mismatched collectives"),
    (_mismatched_roots, "mismatched roots in bcast"),
    (_mismatched_ops, "mismatched reduction ops in allreduce"),
    (_callable_vs_named_op, "mismatched reduction ops in allreduce"),
    (_mismatched_scan_ops, "mismatched reduction ops in scan"),
    (_dest_out_of_range, "send dest 3 out of range"),
    (_source_out_of_range, "recv source -1 out of range"),
    (_short_scatter, "scatter root must supply exactly 3 values, got 2"),
    (_short_alltoall, "alltoall requires 3 values per rank"),
    (_exchange_to_self, "exchange to self is not allowed"),
    (_shape_mismatch, "sum reduction over mismatched payload shapes"),
    (_unknown_op, "unknown reduction op 'median'"),
]


@pytest.mark.parametrize("prog,expected", MALFORMED,
                         ids=[m[0].__name__.lstrip("_") for m in MALFORMED])
def test_malformed_program_fails_alike(prog, expected):
    errors = {}
    for backend in ("sim", "procs"):
        with pytest.raises(CommError) as ei:
            _run(prog, 3, backend)
        errors[backend] = (type(ei.value), str(ei.value).splitlines()[0])
    assert errors["sim"] == errors["procs"]
    assert expected in errors["sim"][1]


def test_mismatched_ops_message_names_every_rank():
    with pytest.raises(CommError) as ei:
        _run(_mismatched_ops, 3, "sim")
    assert str(ei.value).splitlines()[0] == (
        "mismatched reduction ops in allreduce on comm 0: "
        "rank 0:min, rank 1:max, rank 2:max")


# ----------------------------------------------------------------------
# callable reduction ops on real processes
# ----------------------------------------------------------------------

def _callable_allreduce(comm):
    return (yield from comm.allreduce((comm.rank, comm.rank * 2),
                                      op=lambda a, b: (a[0] + b[0], max(a[1], b[1]))))


def test_callable_op_runs_on_procs_without_stalling():
    t0 = time.monotonic()
    res = run_spmd(_callable_allreduce, 3, machine=ZERO_COST, backend="procs",
                   stall_timeout=10.0)
    assert res.values == [(3, 4)] * 3
    assert time.monotonic() - t0 < 10.0


# ----------------------------------------------------------------------
# communicator naming in deadlock reports
# ----------------------------------------------------------------------

def _split_deadlock(comm):
    sub = yield from comm.split(color=comm.rank % 2)
    if sub.rank == 0:
        yield from sub.recv(source=1, tag=4)  # repro: lint-ok[SP107]
    else:
        yield from sub.barrier()  # repro: lint-ok[SP108] deliberate deadlock
    return comm.rank


def test_split_deadlock_reports_same_comm_ids():
    reports = {}
    for backend in ("sim", "procs"):
        with pytest.raises(DeadlockError) as ei:
            run_spmd(_split_deadlock, 4, machine=ZERO_COST, backend=backend,
                     op_timeout=60.0, stall_timeout=1.0)
        reports[backend] = sorted(
            (e["rank"], e["kind"], e["peer"], e["tag"], e["comm"])
            for e in ei.value.parked
        )
    assert reports["sim"] == reports["procs"]
    assert reports["sim"] == [
        (0, "recv", 1, 4, "0/0.0"), (1, "recv", 1, 4, "0/0.1"),
        (2, "barrier", None, None, "0/0.0"),
        (3, "barrier", None, None, "0/0.1"),
    ]
