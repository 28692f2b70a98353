"""Dynamic sanitizer for the SPMD engine (``run_spmd(..., sanitize=True)``).

Runtime half of the correctness analyzer (the static half is
:mod:`repro.analysis.lint`).  When enabled, the engine

* checksums every posted payload and raises
  :class:`~repro.errors.CommError` if the sender (or anyone aliasing
  its memory) mutates the buffer before the collective completes —
  the bug class zero-copy read-only delivery makes possible (the fix is
  to post ``obj.copy()``);
* records a per-rank ledger of completed collectives and cross-checks
  the per-communicator op sequences on exit (and enriches the engine's
  mismatched-collective error with each rank's recent history);
* reports communication generators that were created but never driven
  with ``yield from`` when their rank program returns (the dynamic
  counterpart of lint rule SP101).

The sanitizer costs a checksum walk per payload per communication
event, so it is strictly opt-in: ``run_spmd`` only consults it behind
``is not None`` checks, keeping the default path unchanged (the kernel
micro-benchmarks guard this).  Set ``REPRO_SANITIZE=1`` to switch it on
process-wide, e.g. for a CI test shard.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Sanitizer", "payload_checksum"]


def _crc(obj: Any, crc: int, seen: set) -> int:
    if obj is None:
        return zlib.crc32(b"N", crc)
    if isinstance(obj, np.ndarray):
        head = f"A{obj.shape}{obj.dtype.str}".encode()
        return zlib.crc32(obj.tobytes(), zlib.crc32(head, crc))
    if isinstance(obj, (bool, int, float, complex, np.generic, str, bytes)):
        return zlib.crc32(repr(obj).encode(), crc)
    oid = id(obj)
    if oid in seen:
        return zlib.crc32(b"C", crc)
    seen.add(oid)
    if isinstance(obj, (list, tuple)):
        tag = "L" if isinstance(obj, list) else "T"
        crc = zlib.crc32(f"{tag}{len(obj)}".encode(), crc)
        for x in obj:
            crc = _crc(x, crc, seen)
        return crc
    if isinstance(obj, dict):
        crc = zlib.crc32(f"D{len(obj)}".encode(), crc)
        for k, v in obj.items():
            crc = _crc(v, _crc(k, crc, seen), seen)
        return crc
    if isinstance(obj, (set, frozenset)):
        # order-insensitive: XOR the per-element checksums
        acc = 0
        for x in obj:
            acc ^= _crc(x, 0, seen)
        return zlib.crc32(f"S{len(obj)}:{acc}".encode(), crc)
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return _crc(d, zlib.crc32(b"O", crc), seen)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        crc = zlib.crc32(b"O", crc)
        names = (slots,) if isinstance(slots, str) else slots
        for name in names:
            if hasattr(obj, name):
                crc = _crc(getattr(obj, name), crc, seen)
        return crc
    # opaque object: nothing checksummable
    return crc


def payload_checksum(obj: Any) -> int:
    """Structural checksum of a message payload.

    Covers NumPy array bytes (shape and dtype included), scalars,
    strings, containers, and the ``__dict__``/``__slots__`` of plain
    objects — notably :class:`~repro.graph.distributed.Shared`, whose
    wrapped value senders must also leave untouched.  Cycle-safe.
    """
    return _crc(obj, 0, set())


class Sanitizer:
    """Per-run sanitizer state owned by one engine instance."""

    __slots__ = ("nranks", "ledgers", "_pending", "_next_token")

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        #: per-rank ordered (cid, kind, root) of completed collectives
        self.ledgers: List[List[Tuple[int, str, Optional[int]]]] = [
            [] for _ in range(nranks)
        ]
        self._pending: Dict[int, Tuple[int, str]] = {}
        self._next_token = 0

    # -- undriven-generator tracking ------------------------------------
    def track(self, grank: int, name: str, inner: Iterator) -> Iterator:
        """Wrap a communication generator so driving it (first ``next``)
        unregisters it; anything still registered when its rank returns
        was created but never ``yield from``-ed."""
        token = self._next_token
        self._next_token += 1
        self._pending[token] = (grank, name)
        pending = self._pending

        def _driven():
            pending.pop(token, None)
            result = yield from inner
            return result

        return _driven()

    def undriven_ops(self, grank: int) -> List[str]:
        """Names of comm ops rank ``grank`` created but never drove."""
        return [name for g, name in self._pending.values() if g == grank]

    # -- collective ledger ----------------------------------------------
    def record_collective(self, grank: int, cid: int, kind: str,
                          root: Optional[int]) -> None:
        self.ledgers[grank].append((cid, kind, root))

    def ledger_tail(self, grank: int, k: int = 5) -> str:
        """Human-readable recent collective history of one rank."""
        tail = self.ledgers[grank][-k:]
        if not tail:
            return f"rank {grank}: (no collectives completed)"
        ops = ", ".join(
            f"{kind}(comm={cid}" + (f", root={root})" if root is not None else ")")
            for cid, kind, root in tail
        )
        return f"rank {grank}: ... {ops}"

    def sequence_mismatch(
        self, groups: Dict[int, Any]
    ) -> Optional[str]:
        """Cross-check per-communicator collective sequences on exit.

        Returns a description naming the first two disagreeing ranks and
        their ops, or ``None`` when every communicator's members agree.
        """
        for cid, group in groups.items():
            members: Sequence[int] = group.members
            if len(members) < 2:
                continue
            seqs = {
                g: tuple((kind, root) for c, kind, root in self.ledgers[g]
                         if c == cid)
                for g in members
            }
            ref_rank = members[0]
            ref = seqs[ref_rank]
            for g in members[1:]:
                if seqs[g] == ref:
                    continue
                i = next(
                    (j for j, (a, b) in enumerate(zip(ref, seqs[g])) if a != b),
                    min(len(ref), len(seqs[g])),
                )
                a = ref[i] if i < len(ref) else ("<nothing>", None)
                b = seqs[g][i] if i < len(seqs[g]) else ("<nothing>", None)
                return (
                    f"collective sequences diverge on comm {cid} at "
                    f"position {i}: rank {ref_rank} posted {a[0]}, "
                    f"rank {g} posted {b[0]}"
                )
        return None
