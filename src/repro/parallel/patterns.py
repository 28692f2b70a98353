"""Reusable SPMD communication patterns.

These are generator helpers to be ``yield from``-ed inside rank
programs.  They exist for one reason: the engine rebuilds payloads per
receiving rank (a read-only view per array), so a naive ``allgather`` of
P slices creates P² array objects — 10⁶ at P=1024.  The helpers below
assemble at a root and redistribute one :class:`~repro.graph.distributed.Shared`
reference instead, while charging *exactly* the collective cost the
textbook algorithm would incur (see each function's accounting note).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..graph.distributed import Shared
from .engine import Comm, payload_words

__all__ = ["allgather_concat", "allgather_words", "share_from_root"]


def allgather_words(comm: Comm, local: np.ndarray) -> float:
    """``words=`` for the broadcast half of a gather(``words=0``) +
    broadcast pair that charges one allgather of ``local``.

    One recursive-doubling allgather moving ``(p−1)·m`` words costs
    ``t_s·log p + t_w·(p−1)·m``; the engine's broadcast tree multiplies
    ``words`` by ``log p``, so the broadcast carries ``(p−1)·m/log p``.
    """
    p = comm.size
    lg = max(1.0, math.log2(p)) if p > 1 else 1.0
    return (p - 1) * payload_words(local) / lg


def allgather_concat(comm: Comm, local: np.ndarray):
    """Allgather of per-rank array slices, returned concatenated (rank
    order), identical on every rank.

    Accounting: the gather is posted with ``words=0`` (latency tree
    only) and the broadcast carries :func:`allgather_words`, so the
    pair costs exactly one recursive-doubling allgather.
    """
    local = np.ascontiguousarray(local)
    parts = yield from comm.gather(local, root=0, words=0)
    full = None
    if comm.rank == 0:
        full = np.concatenate([np.atleast_1d(x) for x in parts]) if parts else local
    shared = yield from comm.bcast(Shared(full), root=0,
                                   words=allgather_words(comm, local))
    return shared.value


def share_from_root(comm: Comm, value: Any, words: float = 1.0):
    """Broadcast an *immutable* object by reference (no per-rank copy).

    ``words`` must be the honest payload size a real broadcast of this
    data would move — it is the only cost the engine sees.
    """
    shared = yield from comm.bcast(
        Shared(value) if comm.rank == 0 else None, root=0, words=words
    )
    return shared.value
