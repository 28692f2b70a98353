"""Operation semantics shared by the ``sim`` and ``procs`` executors.

The simulator (:mod:`repro.parallel.engine`) and the process backend
(:mod:`repro.parallel.procs`) move operations differently, but what an
operation *means* — request records, payload sizing, collective
matching and results, split naming, deadlock context — is decided
here, once.  Each executor keeps only its transport; the ledger format
is :class:`~repro.parallel.trace.CommStats`'s.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommError

# ----------------------------------------------------------------------
# payload utilities
# ----------------------------------------------------------------------

def payload_words(obj: Any) -> float:
    """Estimate the size of a payload in 8-byte words.

    Used by the cost model when the caller does not pass ``words=``.
    NumPy arrays are exact; containers are summed recursively; scalars
    count as one word.
    """
    if obj is None:
        return 0.0
    if isinstance(obj, np.ndarray):
        return max(1.0, obj.nbytes / 8.0)
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 1.0
    if isinstance(obj, (bytes, str)):
        return max(1.0, len(obj) / 8.0)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 1.0 + sum(payload_words(x) for x in obj)
    if isinstance(obj, dict):
        return 1.0 + sum(payload_words(k) + payload_words(v) for k, v in obj.items())
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return 1.0 + payload_words(d)
    return 4.0


def _copy_payload(obj: Any) -> Any:
    """Defensive copy of a payload (arrays and containers)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


def _readonly_payload(obj: Any) -> Any:
    """Zero-copy delivery: arrays become read-only views of the sender's
    buffer (containers are rebuilt so the structure is private, the
    array data is not)."""
    if isinstance(obj, np.ndarray):
        view = obj.view()
        view.flags.writeable = False
        return view
    if isinstance(obj, list):
        return [_readonly_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_readonly_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _readonly_payload(v) for k, v in obj.items()}
    return obj


def check_run(nranks: int) -> None:
    """Reject a rank count no backend can run."""
    if nranks < 1:
        raise CommError(f"nranks must be >= 1, got {nranks}")


#: pairwise fold per named op for scalar and container payloads
_REDUCERS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add, "prod": operator.mul, "min": min, "max": max,
}

#: one-shot ufunc per named op for the stacked-array fast path
_ARRAY_REDUCERS = {"sum": np.sum, "prod": np.prod, "min": np.min, "max": np.max}


def check_reduction_op(op: Any) -> None:
    """Reject a reduction op that is not one of the named ones."""
    if not isinstance(op, str) or op not in _REDUCERS:
        label = op if isinstance(op, str) else type(op).__name__
        raise CommError(f"unknown reduction op {label!r}; named ops are "
                        + ", ".join(_REDUCERS))


def _reduce_values(values: Sequence[Any], op: str) -> Any:
    """Combine per-rank contributions into one reduction result.

    Array payloads take a vectorised fast path: the contributions are
    stacked and reduced with a single ufunc call instead of a pairwise
    Python fold.  Shape-mismatched array contributions (including
    scalars mixed with arrays) raise :class:`CommError` — silently
    broadcasting them is never what a distributed reduction means.
    """
    if any(isinstance(v, np.ndarray) for v in values):
        shapes = {v.shape if isinstance(v, np.ndarray) else () for v in values}
        if len(shapes) != 1:
            raise CommError(
                f"{op} reduction over mismatched payload shapes {sorted(shapes)}; "
                "all ranks must contribute arrays of one shape"
            )
        return _ARRAY_REDUCERS[op](np.stack(values), axis=0)
    if len(values) == 1:
        return _copy_payload(values[0])
    fn = _REDUCERS[op]
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


# ----------------------------------------------------------------------
# requests and communicators
# ----------------------------------------------------------------------

#: collectives whose ranks must agree on ``root``
_ROOTED = ("bcast", "gather")


@dataclass
class _Op:
    """A communication request yielded by a rank program."""

    kind: str
    cid: Any
    value: Any = None
    root: int = 0
    op: str = "sum"
    color: Any = None
    key: int = 0
    words: Optional[float] = None
    #: memoised payload_words(value) — computed at most once per op
    wcache: Optional[float] = None
    #: sanitizer checksum of the payload at post time (sanitize mode)
    cksum: Optional[int] = None


def _op_words(op: "_Op") -> float:
    """Payload size of an op in words, computed once and cached.

    Collectives consult the size twice (ledger accounting and cost
    model); caching keeps the recursive container walk off the hot path.
    """
    if op.words is not None:
        return op.words
    if op.wcache is None:
        op.wcache = payload_words(op.value)
    return op.wcache


@dataclass
class _Group:
    """A communicator: an ordered list of participating global ranks."""

    cid: Any  # 0 for the world; split children are "<parent>/<seq>.<i>"
    members: Tuple[int, ...]  # global rank ids, position = local rank

    @property
    def size(self) -> int:
        return len(self.members)


def expect_op(grank: int, op: Any) -> None:
    """Reject anything a rank program yields other than a request."""
    if not isinstance(op, _Op):
        raise CommError(
            f"rank {grank} yielded {op!r}; rank programs must only "
            "yield via 'yield from comm.<op>(...)'"
        )


def op_desc(op: _Op) -> str:
    """One-line description of a parked request (deadlock reports)."""
    return f"{op.kind}(comm={op.cid})"


def parked_entry(grank: int, op: Optional[_Op], phase: str) -> Dict[str, Any]:
    """The context a :class:`~repro.errors.DeadlockError` reports for
    one blocked (or, with ``op=None``, still running) rank."""
    if op is None:
        return {"rank": grank, "kind": "running", "comm": None,
                "phase": phase}
    return {"rank": grank, "kind": op.kind, "comm": op.cid, "phase": phase}


def match_collective(cid: Any, ops: Sequence[_Op]) -> str:
    """Check that the ranks of communicator ``cid`` posted one
    collective — same kind, root and reduction op — and return its kind.
    ``ops`` are in local-rank order."""
    kind = ops[0].kind
    if any(o.kind != kind for o in ops):
        raise CommError(
            f"mismatched collectives on comm {cid}: "
            + ", ".join(f"rank {i}:{o.kind}" for i, o in enumerate(ops))
        )
    if kind in _ROOTED:
        roots = {o.root for o in ops}
        if len(roots) != 1:
            raise CommError(f"mismatched roots in {kind} on comm {cid}: {roots}")
        root = ops[0].root
        if not 0 <= root < len(ops):
            raise CommError(f"{kind} root {root} out of range for comm "
                            f"size {len(ops)}")
    if kind == "allreduce" and any(o.op != ops[0].op for o in ops):
        raise CommError(
            f"mismatched reduction ops in {kind} on comm {cid}: "
            + ", ".join(f"rank {i}:{o.op}" for i, o in enumerate(ops))
        )
    return kind


def collective_results(kind: str, ops: Sequence[_Op],
                       deliver: Callable[[Any], Any]) -> List[Any]:
    """Per-local-rank results of one matched collective other than
    ``split`` (see :func:`plan_split`).

    ``ops`` are in local-rank order.  ``deliver`` prepares each payload
    handed to a receiving rank: the simulator's zero-copy read-only
    view, or the identity where the transport copies anyway.  Reductions
    fold in local-rank order, so every backend computes bit-identical
    values.
    """
    p = len(ops)
    root = ops[0].root
    if kind == "barrier":
        return [None] * p
    if kind == "bcast":
        # every rank gets its own container skeleton over the root's data
        return [deliver(ops[root].value) for _ in range(p)]
    if kind == "allreduce":
        red = _reduce_values([o.value for o in ops], ops[0].op)
        return [deliver(red) for _ in range(p)]
    if kind == "gather":
        gathered = [deliver(o.value) for o in ops]
        return [gathered if i == root else None for i in range(p)]
    if kind == "exchange":
        # per-rank payload dicts {dst_local_rank: payload}
        inboxes: List[Dict[int, Any]] = [dict() for _ in range(p)]
        for i, o in enumerate(ops):
            msgs = o.value or {}
            if not isinstance(msgs, dict):
                raise CommError("exchange expects a dict {neighbor_rank: payload}")
            for dst, payload in msgs.items():
                if not (0 <= dst < p):
                    raise CommError(f"exchange neighbour {dst} out of range")
                if dst == i:
                    raise CommError("exchange to self is not allowed")
                inboxes[dst][i] = deliver(payload)
        return inboxes
    raise CommError(f"unhandled collective {kind}")  # pragma: no cover


def plan_split(group: _Group, seq: int, ops: Sequence[_Op]
               ) -> List[Optional[Tuple[str, Tuple[int, ...]]]]:
    """Per-local-rank ``(child cid, child members)`` of a split
    (``None`` for ranks that passed ``color=None``).

    One child per distinct color, in ``repr`` order, each ordered by
    ``(key, old local rank)``.  Child ``i`` of the ``seq``-th collective
    on ``group`` is named ``"<cid>/<seq>.<i>"``: a path every rank can
    derive locally, so no backend needs a global counter.
    """
    by_color: Dict[Any, List[Tuple[int, int]]] = {}
    for i, o in enumerate(ops):
        if o.color is not None:
            by_color.setdefault(o.color, []).append((o.key, i))
    plan: List[Optional[Tuple[str, Tuple[int, ...]]]] = [None] * len(ops)
    for ci, (_, lst) in enumerate(
            sorted(by_color.items(), key=lambda kv: repr(kv[0]))):
        lst.sort()
        child = (f"{group.cid}/{seq}.{ci}",
                 tuple(group.members[i] for _, i in lst))
        for _, i in lst:
            plan[i] = child
    return plan

