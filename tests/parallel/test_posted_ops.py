"""Every communicator op is one some registered method posts.

:class:`~repro.parallel.engine.Comm` offers exactly the operations in
:data:`~repro.parallel.trace.COLLECTIVE_KINDS`.  Running every
distributed method once must post each of them, and no point-to-point
message, so the communicator carries no op that nothing uses.
"""

from __future__ import annotations

import pytest

from repro.core.config import ScalaPartConfig
from repro.core.methods import distributed_methods
from repro.core.parallel import run_parallel
from repro.graph.generators import random_delaunay
from repro.parallel.trace import COLLECTIVE_KINDS

CFG = ScalaPartConfig(coarsest_iters=40, smooth_iters=4)


@pytest.fixture(scope="module")
def ledgers():
    mesh = random_delaunay(400, seed=3)
    out = {}
    for spec in distributed_methods():
        res = run_parallel(spec, mesh.graph, 4, coords=mesh.coords,
                           config=CFG, seed=11, backend="sim")
        out[spec.name] = res.extras["trace"]
    return out


def test_every_op_is_posted_by_some_method(ledgers):
    posted = set()
    for trace in ledgers.values():
        posted |= {k for k, n in trace.comm_stats.collective_ops.items() if n}
    assert posted == set(COLLECTIVE_KINDS)


def test_registered_methods_post_no_point_to_point_messages(ledgers):
    for name, trace in ledgers.items():
        assert (trace.messages, trace.words_sent) == (0, 0.0), name
