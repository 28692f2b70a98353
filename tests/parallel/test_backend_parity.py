"""Differential tests: ``backend="procs"`` must match ``backend="sim"``.

The procs executor runs the *same* registry-driven rank programs on
real worker processes.  Because both backends derive per-rank RNG
streams the same way and route the same ``_Op`` requests, every
distributed method must produce a bit-identical partition vector, the
same cut, and the same communication ledger (counts and words — not
timings) on both.  Any divergence means the two executors disagree
about the semantics of an operation, which is exactly the bug class
this matrix exists to catch.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ScalaPartConfig
from repro.core.methods import distributed_methods
from repro.core.parallel import run_parallel
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import procs_available

from tests.conftest import ledger_fingerprint, run_both_backends

pytestmark = pytest.mark.skipif(
    not procs_available(), reason="procs backend unavailable (no fork)"
)

SEED = 11
#: small so each case stays fast — ScalaPart does a full V-cycle per run
CFG = ScalaPartConfig(coarsest_iters=40, smooth_iters=4)

METHODS = distributed_methods()
GRAPHS = [
    ("delaunay400-p2", lambda: random_delaunay(400, seed=3), 2),
    ("delaunay400-p4", lambda: random_delaunay(400, seed=3), 4),
    ("grid20x20-p4", lambda: grid2d(20, 20), 4),
]


class TestBackendParity:
    @pytest.mark.parametrize("spec", METHODS, ids=[s.cli_name for s in METHODS])
    @pytest.mark.parametrize(
        "gname,gfn,p", GRAPHS, ids=[g[0] for g in GRAPHS]
    )
    def test_methods_bit_identical_across_backends(self, spec, gname, gfn, p):
        mesh = gfn()
        sim, procs = run_both_backends(
            spec, mesh.graph, p, seed=SEED, coords=mesh.coords, config=CFG
        )

        # partition vector and cut: byte-identical
        assert sim.bisection.side.tobytes() == procs.bisection.side.tobytes()
        assert sim.cut_size == procs.cut_size

        ts, tp = sim.extras["trace"], procs.extras["trace"]
        assert ts.backend == "sim" and tp.backend == "procs"

        # same collective sequence implies the same op counts and the
        # same words moved, phase by phase (timings are not comparable)
        assert ts.messages == tp.messages
        assert ts.collectives == tp.collectives
        assert ts.words_sent == tp.words_sent
        assert json.dumps(ledger_fingerprint(ts.comm_stats)) == json.dumps(
            ledger_fingerprint(tp.comm_stats)
        )

        # the procs run really fanned out to one OS process per rank
        assert len(set(tp.pids)) == p

    def test_phase_labels_agree(self):
        """Both backends see the same ``set_phase`` stream.  Sim only
        materialises a phase once a modelled cost is charged under it,
        while procs measures real wall time in *every* phase, so sim's
        labels are a subset of procs' labels (values differ: model vs
        wall)."""
        mesh = random_delaunay(400, seed=3)
        sim, procs = run_both_backends(
            "ScalaPart", mesh.graph, 4, seed=SEED, coords=mesh.coords,
            config=CFG,
        )
        ts, tp = sim.extras["trace"], procs.extras["trace"]
        assert set(ts.phases) <= set(tp.phases)
        assert "embed" in {p.split("/")[0] for p in tp.phases}


class TestProcsPropertyAndDeterminism:
    @pytest.mark.parametrize("spec", METHODS, ids=[s.cli_name for s in METHODS])
    @pytest.mark.parametrize("p", [2, 4])
    def test_valid_balanced_cut_and_same_seed_rerun(self, spec, p):
        """Property: on real processes every registered distributed
        method yields a valid partition within its balance bound, and a
        same-seed rerun is bit-identical."""
        mesh = random_delaunay(300, seed=5)

        def run():
            return run_parallel(spec, mesh.graph, p, coords=mesh.coords,
                                seed=SEED, backend="procs", config=CFG)

        a = run()
        bound = spec.balance_bound if spec.balance_bound is not None else 0.15
        a.validate(bound)
        side = np.asarray(a.bisection.side)
        assert set(np.unique(side)) <= {0, 1}
        assert 0 < int(side.sum()) < side.size  # both sides non-empty

        b = run()
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()
        assert a.cut_size == b.cut_size
        assert json.dumps(
            ledger_fingerprint(a.extras["trace"].comm_stats)
        ) == json.dumps(ledger_fingerprint(b.extras["trace"].comm_stats))
