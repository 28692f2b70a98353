"""Per-op differential tests: every operation means the same on both backends.

The registered methods post each of the six ops, but not every root,
named reduction or payload shape, so the method-level parity matrix
cannot see every path.  Here one small program posts all six ops with
every named reduction, non-zero roots, container payloads and a nested
``split``; it must return the same values and book the same ledger on
``backend="sim"`` and ``backend="procs"``.  Malformed programs must
fail with the same exception type and the same first message line.
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
    """Posts all six ops, every named reduction and a nested split."""
    r, p = comm.rank, comm.size
    arr = np.arange(6, dtype=np.float64) * (r + 1)
    out = {}
    comm.set_phase("collectives")
    yield from comm.barrier()
    out["bcast"] = yield from comm.bcast(
        {"a": arr, "t": (r, "x")} if r == 1 else None, root=1)
    out["allreduce"] = yield from comm.allreduce(arr, op="sum")
    out["allreduce_max"] = yield from comm.allreduce(arr, op="max")
    out["allreduce_prod"] = yield from comm.allreduce(r + 1, op="prod")
    out["allreduce_min"] = yield from comm.allreduce(-r, op="min")
    out["gather"] = yield from comm.gather((r, arr[:2]), root=3)
    out["gather_list"] = yield from comm.gather([r, r / 2], root=0)
    comm.set_phase("exchange")
    out["exchange"] = yield from comm.exchange(
        {(r + 1) % p: arr[r:], (r - 1) % p: r})
    out["exchange_dict"] = yield from comm.exchange(
        {(r + 2) % p: {"r": r, "a": arr * 2}})
    comm.set_phase("split")
    sub = yield from comm.split(color=r % 2, key=-r)
    out["sub"] = (sub.rank, sub.size)
    out["sub_gather"] = yield from sub.gather(r, root=sub.size - 1)
    if sub.size > 1:
        out["sub_ring"] = yield from sub.exchange({(sub.rank + 1) % sub.size: r})
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
        assert ref.messages == 0 and ref.collectives > 0
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
    # a prefix sum is a masked-vector allreduce; the ranks disagree on it
    masked = np.where(np.arange(comm.size) >= comm.rank, 1, 0)
    yield from comm.allreduce(masked, op="sum" if comm.rank < 2 else "prod")


def _dest_out_of_range(comm):
    yield from comm.exchange({comm.size: 1})


def _source_out_of_range(comm):
    yield from comm.bcast(1, root=-1)


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
    (_callable_vs_named_op, "unknown reduction op 'function'"),
    (_mismatched_scan_ops, "mismatched reduction ops in allreduce"),
    (_dest_out_of_range, "exchange neighbour 3 out of range"),
    (_source_out_of_range, "bcast root -1 out of range for comm size 3"),
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
    # every rank rejects the callable as it posts it, so no rank is left
    # waiting for a coordinator that cannot unpickle a closure
    t0 = time.monotonic()
    with pytest.raises(CommError, match="unknown reduction op 'function'"):
        run_spmd(_callable_allreduce, 3, machine=ZERO_COST, backend="procs",
                 stall_timeout=10.0)
    assert time.monotonic() - t0 < 10.0


# ----------------------------------------------------------------------
# communicator naming in deadlock reports
# ----------------------------------------------------------------------

def _split_deadlock(comm):
    sub = yield from comm.split(color=comm.rank % 2)
    # deliberate deadlock: local rank 0 of each child waits on the world,
    # local rank 1 on its child
    if sub.rank == 0:
        yield from comm.barrier()  # repro: lint-ok[SP102]
    else:
        yield from sub.barrier()  # repro: lint-ok[SP108]
    return comm.rank


def test_split_deadlock_reports_same_comm_ids():
    reports = {}
    for backend in ("sim", "procs"):
        with pytest.raises(DeadlockError) as ei:
            run_spmd(_split_deadlock, 4, machine=ZERO_COST, backend=backend,
                     op_timeout=60.0, stall_timeout=1.0)
        reports[backend] = sorted(
            (e["rank"], e["kind"], e["comm"]) for e in ei.value.parked
        )
    assert reports["sim"] == reports["procs"]
    assert reports["sim"] == [
        (0, "barrier", 0), (1, "barrier", 0),
        (2, "barrier", "0/0.0"), (3, "barrier", "0/0.1"),
    ]
