"""Golden determinism tests for the simulated-parallel pipeline.

The SPMD engine is a deterministic simulator: the same seed must give
the *byte-identical* partition, phase breakdown and communication
ledger on every run.  Any nondeterminism (dict ordering, hidden global
RNG use, scheduling dependence) would silently invalidate cached
benchmark grids and the paper-figure comparisons, so it is asserted
here at full-pipeline granularity.
"""

import json

import pytest

from repro.core.config import ScalaPartConfig
from repro.core.parallel import run_parallel
from repro.graph.generators import random_delaunay
from repro.parallel import procs_available, trace_records

from tests.conftest import ledger_fingerprint

P = 8
SEED = 1234
CFG = ScalaPartConfig(coarsest_iters=60, smooth_iters=6)

#: both executors must uphold the same golden guarantees
BACKENDS = ["sim"] + (["procs"] if procs_available() else [])


def _run(backend="sim"):
    g = random_delaunay(500, seed=21).graph
    return run_parallel("ScalaPart", g, P, config=CFG, seed=SEED,
                        backend=backend)


class TestScalaPartDeterminism:
    def test_identical_partition_phases_and_counters(self):
        a = _run()
        b = _run()

        # partition vector: byte-identical
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()

        # phase breakdown: same labels, byte-identical per-rank accounts
        ta, tb = a.extras["trace"], b.extras["trace"]
        assert sorted(ta.phases) == sorted(tb.phases)
        for name, ph in ta.phases.items():
            other = tb.phases[name]
            assert ph.comp.tobytes() == other.comp.tobytes(), name
            assert ph.comm.tobytes() == other.comm.tobytes(), name
        assert ta.clocks.tobytes() == tb.clocks.tobytes()

        # communication ledger: identical counters in every phase
        sa, sb = ta.comm_stats, tb.comm_stats
        assert sorted(sa.phases) == sorted(sb.phases)
        assert json.dumps(sa.to_dict()) == json.dumps(sb.to_dict())
        for name in sa.phases:
            assert json.dumps(sa.phases[name].to_dict()) == json.dumps(
                sb.phases[name].to_dict()
            ), name

        # and therefore the serialised traces agree record-for-record
        assert list(trace_records(ta)) == list(trace_records(tb))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_golden_partition_per_backend(self, backend):
        """Backend-parametrised golden: the partition vector and the
        communication ledger (counts/words, not timings) are identical
        across same-seed reruns on *each* backend, and identical
        *between* backends — the procs executor inherits the simulator's
        golden.  Clocks are deliberately not compared: procs clocks are
        measured wall time."""
        a = _run(backend=backend)
        b = _run(backend=backend)
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()
        assert a.cut_size == b.cut_size
        fa = ledger_fingerprint(a.extras["trace"].comm_stats)
        fb = ledger_fingerprint(b.extras["trace"].comm_stats)
        assert json.dumps(fa) == json.dumps(fb)

        # anchored to the simulator's golden partition
        sim = _run(backend="sim")
        assert a.bisection.side.tobytes() == sim.bisection.side.tobytes()
        assert json.dumps(fa) == json.dumps(
            ledger_fingerprint(sim.extras["trace"].comm_stats)
        )

    def test_different_seed_changes_trace(self):
        g = random_delaunay(500, seed=21).graph
        a = run_parallel("ScalaPart", g, P, config=CFG, seed=SEED)
        b = run_parallel("ScalaPart", g, P, config=CFG, seed=SEED + 1)
        assert a.extras["trace"].clocks.tobytes() != b.extras["trace"].clocks.tobytes()


class TestBlockSizeAblation:
    def test_collectives_per_iteration_fall_with_block_size(self):
        """Fig. 8's mechanism at test scale: growing the β-refresh block
        strictly reduces global collectives per smoothing iteration."""
        g = random_delaunay(1500, seed=7).graph
        cpi = []
        for b in (1, 2, 4, 8):
            cfg = ScalaPartConfig(block_size=b, coarsest_iters=60,
                                  smooth_iters=8)
            res = run_parallel("ScalaPart", g, 16, config=cfg, seed=5)
            embed = res.extras["comm_stats"].phase("embed")
            iters = res.extras["smooth_iterations"]
            assert iters > 0
            cpi.append(embed.collective_invocations() / iters)
        assert all(b < a for a, b in zip(cpi, cpi[1:])), cpi
