"""Machine cost model for the SPMD virtual machine.

The paper's experiments ran on a 128-node cluster of 2.66 GHz Nehalem
processors with a QDR InfiniBand interconnect, P = 1–1,024 MPI ranks.
This module models that machine with the classic Hockney / latency-
bandwidth parameters the paper itself uses in §3.1 (``t_s`` message
latency, ``t_w`` per-word transfer time) plus a per-work-unit
computation rate.

Simulated time semantics
------------------------
* Every virtual rank owns a clock (seconds).  Computation advances it by
  ``work · alpha`` where *work* is an abstract operation count charged
  explicitly by the algorithms (e.g. edges touched during a matching
  sweep).  The benchmark harness reports ``max`` over rank clocks as the
  execution time, matching how MPI codes time with barriers around the
  region of interest.
* Communication costs use standard tree/butterfly collective formulas
  parameterised on (t_s, t_w) — see :meth:`MachineModel.collective_cost`.
* One *word* is 8 bytes (a float64).

The default constants land absolute times in the same order of
magnitude as the paper's cluster, but EXPERIMENTS.md compares *shape*
(ratios, crossovers), which is insensitive to the absolute scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigError

__all__ = ["MachineModel", "QDR_CLUSTER", "ZERO_COST"]


@dataclass(frozen=True)
class MachineModel:
    """Latency/bandwidth/compute-rate parameters of the virtual machine.

    Parameters
    ----------
    alpha:
        seconds per unit of charged computational work.  Work units are
        "elementary graph operations" (an edge relaxation, a force pair,
        a comparison); 5e-9 s/unit models a core sustaining ~200 M
        irregular graph ops/s — typical for Nehalem-era memory-bound
        graph kernels.
    t_s:
        per-message latency in seconds (MPI short-message latency).
    t_w:
        per-word (8-byte) transfer time in seconds.
    """

    alpha: float = 5.0e-9
    t_s: float = 4.0e-6
    t_w: float = 2.5e-9

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.t_s < 0 or self.t_w < 0:
            raise ConfigError("machine parameters must be nonnegative")

    # -- elementary costs -------------------------------------------------
    def compute_cost(self, work: float) -> float:
        """Time for ``work`` units of local computation."""
        if work < 0:
            raise ConfigError(f"negative work charge: {work}")
        return work * self.alpha

    def collective_cost(self, kind: str, p: int, words: float) -> float:
        """Cost of one collective over ``p`` ranks.

        ``words`` is the per-rank contribution size (so a gather moves
        ``(p - 1) * words`` into the root).  Formulas are the standard
        log-tree costs found in Grama et al. and used by the paper's
        §3.1 analysis; ``exchange`` is priced by :meth:`exchange_cost`.
        """
        if p <= 0:
            raise ConfigError("collective over empty group")
        words = max(0.0, words)
        lg = math.log2(p) if p > 1 else 0.0
        if kind == "barrier":
            return self.t_s * lg
        if kind in ("bcast", "allreduce"):
            # binomial tree / butterfly: log p stages of the full payload
            return lg * (self.t_s + self.t_w * words)
        if kind == "gather":
            # binomial tree, data doubling per stage: ts*log p + tw*(p-1)*m
            return self.t_s * lg + self.t_w * max(0, p - 1) * words
        if kind == "split":
            # communicator creation ~ an allgather of one word
            return self.t_s * lg + self.t_w * max(0, p - 1)
        raise ConfigError(f"unknown collective kind {kind!r}")

    def exchange_cost(self, nneighbors: int, words_out: float, words_in: float) -> float:
        """Neighbour (halo) exchange: simultaneous pairwise messages.

        Modelled as one latency per neighbour plus the serialised volume
        through this rank's network port in the larger direction.
        """
        return max(0, nneighbors) * self.t_s + self.t_w * max(words_out, words_in)

    def with_params(self, **kw) -> "MachineModel":
        """Copy with some parameters replaced."""
        return replace(self, **kw)


#: Defaults tuned to the paper's QDR InfiniBand Nehalem cluster.
QDR_CLUSTER = MachineModel()

#: A machine where communication and computation are free — useful in
#: unit tests that only check data movement correctness.
ZERO_COST = MachineModel(alpha=0.0, t_s=0.0, t_w=0.0)
