"""The option surface, pinned.

Every field of the run-configuration dataclasses, every keyword of the
two launch functions, the communicator's operations, the fault plan's
public names and the chaos sweep's flags are listed here, so adding or removing an option shows up
as a diff of this file in review.  Change a list only together with the
option it names, and with a caller that sets it.
"""

import dataclasses
import inspect

import pytest

import repro.parallel.checkpoint as checkpoint
from repro.analysis.lint import COMM_METHODS
from repro.core.config import ScalaPartConfig
from repro.core.methods import MethodSpec
from repro.core.parallel import RetryPolicy, run_parallel
from repro.embed.multilevel import multilevel_embedding
from repro.embed.parallel import dist_multilevel_embedding
from repro.cli import _build_parser
from repro.parallel.engine import Comm, run_spmd
from repro.parallel.faults import FaultEvent, FaultPlan
from repro.parallel.trace import COLLECTIVE_KINDS

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
    FaultPlan: ["seed", "kills", "kill_rate", "max_kills", "attempt"],
    FaultEvent: ["kind", "time", "rank", "op_index", "phase", "detail"],
}

#: the six operations a rank program can post
COMM_OPS = ["allreduce", "barrier", "bcast", "exchange", "gather", "split"]

#: every public name of a communicator handle: the six ops plus the
#: rank-local accessors
COMM_SURFACE = sorted(COMM_OPS + [
    "charge", "charge_comm_seconds", "clock", "machine", "rank", "rng",
    "set_phase", "size", "world_rank",
])

#: a fault plan's fields plus the two queries the engines make
FAULT_PLAN_SURFACE = [
    "attempt", "for_attempt", "kill_now", "kill_rate", "kills", "max_kills",
    "seed",
]

CHAOS_FLAGS = [
    "--n", "--methods", "--parts", "--k", "--nranks", "--backend",
    "--checkpoint", "--op-timeout", "--plans", "--seed", "--kill-rate",
    "--kill-op", "--retries", "--max-steps", "--no-recovery", "--out",
]

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


def test_comm_offers_six_ops():
    assert sorted(COLLECTIVE_KINDS) == COMM_OPS
    # the static lint models exactly the ops the communicator has
    assert COMM_METHODS == set(COLLECTIVE_KINDS)
    assert sorted(n for n in dir(Comm) if not n.startswith("_")) == COMM_SURFACE


def test_fault_plan_surface():
    plan = FaultPlan(seed=0)
    assert sorted(n for n in dir(plan) if not n.startswith("_")) == \
        FAULT_PLAN_SURFACE


def test_chaos_flags():
    sub = next(a for a in _build_parser()._actions
               if a.dest == "command").choices["chaos"]
    flags = [f for a in sub._actions for f in a.option_strings
             if f not in ("-h", "--help")]
    assert flags == CHAOS_FLAGS
