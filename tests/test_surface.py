"""The option surface, pinned.

Every field of the run-configuration dataclasses and every keyword of
the two launch functions is listed here, so adding or removing an
option shows up as a diff of this file in review.  Change a list only
together with the option it names, and with a caller that sets it.
"""

import dataclasses
import inspect

import pytest

import repro.parallel.checkpoint as checkpoint
from repro.core.config import ScalaPartConfig
from repro.core.methods import MethodSpec
from repro.core.parallel import RetryPolicy, run_parallel
from repro.embed.multilevel import multilevel_embedding
from repro.embed.parallel import dist_multilevel_embedding
from repro.parallel.engine import run_spmd
from repro.parallel.faults import FaultPlan, MessageFault

FIELDS = {
    ScalaPartConfig: [
        "coarsest_iters", "smooth_iters", "block_size", "ncircles",
        "strip_factor", "max_imbalance",
    ],
    RetryPolicy: ["retries", "validate_imbalance"],
    MethodSpec: [
        "name", "cli_name", "needs_coords", "sequential", "distributed",
        "seed_salt", "default_max_imbalance", "balance_bound", "kway",
        "resume_method", "description",
    ],
    FaultPlan: [
        "seed", "kills", "messages", "kill_rate", "drop_rate",
        "duplicate_rate", "delay_rate", "corrupt_rate", "mean_delay",
        "max_kills", "attempt",
    ],
    MessageFault: ["kind", "index", "rank", "delay", "attempts"],
}

KEYWORDS = {
    run_parallel: [
        "coords", "config", "seed", "machine", "max_imbalance", "faults",
        "retry", "max_steps", "backend", "op_timeout", "k", "cost_model",
        "checkpoint",
    ],
    run_spmd: [
        "machine", "seed", "sanitize", "faults", "max_steps",
        "max_sim_seconds", "backend", "op_timeout", "stall_timeout",
    ],
    multilevel_embedding: [
        "seed", "coarsest_iters", "smooth_iters", "repulsion", "matcher",
    ],
    dist_multilevel_embedding: [
        "coarsest_iters", "smooth_iters", "block_size", "seed",
    ],
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_dataclass_fields(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]


@pytest.mark.parametrize("fn", list(KEYWORDS), ids=lambda f: f.__name__)
def test_keyword_parameters(fn):
    params = inspect.signature(fn).parameters.values()
    assert [p.name for p in params
            if p.kind is inspect.Parameter.KEYWORD_ONLY] == KEYWORDS[fn]


def test_checkpoint_takes_a_path_or_store_only():
    assert not hasattr(checkpoint, "CheckpointPolicy")
