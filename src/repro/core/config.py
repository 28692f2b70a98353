"""Configuration for the ScalaPart pipeline.

One dataclass gathers the knobs a caller sets, with defaults matching
the paper's choices: 5 great-circle candidates (the G7-NL budget),
blocks of 2–8 iterations acting on stale β data, strips holding a small
multiple of the separator.  The paper parameters no caller varies are
constants of the embedding drivers (:mod:`repro.embed.multilevel`):
``COARSEST_SIZE``, ``JITTER`` and the force model's ``DEFAULT_C``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["ScalaPartConfig"]


@dataclass(frozen=True)
class ScalaPartConfig:
    """Tuning knobs of ScalaPart (paper §3 defaults)."""

    #: FDL iterations on the coarsest graph (random start needs many)
    coarsest_iters: int = 150
    #: smoothing iterations per refined level ("a few iterations")
    smooth_iters: int = 16
    #: iterations per communication block — β data and far-edge
    #: coordinates refresh only once per block ("2-8 iterations ...
    #: no observable change in the quality of the embeddings"); the
    #: top of the paper's range minimises global collectives
    block_size: int = 8
    #: great-circle candidates (5 = the G7-NL budget ScalaPart parallelises)
    ncircles: int = 5
    #: strip size as a multiple of separator vertices (Fig 2 shows ~5.6)
    strip_factor: float = 6.0
    #: allowed partition imbalance
    max_imbalance: float = 0.05

    def __post_init__(self) -> None:
        if self.coarsest_iters < 0 or self.smooth_iters < 0:
            raise ConfigError("iteration counts must be nonnegative")
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.ncircles < 1:
            raise ConfigError("need at least one great circle")
        if self.strip_factor <= 0:
            raise ConfigError("strip_factor must be positive")
        if not (0 <= self.max_imbalance < 1):
            raise ConfigError("max_imbalance must be in [0, 1)")
