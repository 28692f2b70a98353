"""Tests for the central method registry and registry-driven dispatch.

The registry is the single source of truth for every consumer (bench
runner, CLI, recursive bisection, the parallel runner), so these tests
pin down three properties: the registry is *complete* (every method the
paper evaluates is present and runnable), dispatch through it is
*cut-for-cut identical* to calling the underlying implementations
directly with the same seeds, and a stage artifact captured once is
*re-feedable* to every coordinate-based method.
"""

import numpy as np
import pytest

from repro.core import ScalaPartConfig, run_parallel, scalapart
from repro.core.methods import (
    METHOD_REGISTRY,
    MethodSpec,
    cli_choices,
    get_method,
    method_names,
    methods_table,
    register_method,
)
from repro.core.recursive import recursive_bisection
from repro.core.stages import EmbeddingArtifact, GeometricArtifact, as_coords
from repro.errors import ConfigError, GeometryError, PartitionError
from repro.graph.generators import random_delaunay

FAST = ScalaPartConfig(coarsest_iters=50, smooth_iters=5)

EXPECTED = {
    "ScalaPart", "SP-PG7-NL", "ParMetis-like", "Pt-Scotch-like", "RCB",
    "Spectral", "G30", "G7", "G7-NL", "KWay-Geometric",
}
EXPECTED_TRACEABLE = {
    "ScalaPart", "SP-PG7-NL", "ParMetis-like", "Pt-Scotch-like", "RCB",
    "KWay-Geometric",
}


@pytest.fixture(scope="module")
def small():
    return random_delaunay(400, seed=0)


class TestRegistryCompleteness:
    def test_all_methods_registered(self):
        assert set(METHOD_REGISTRY) == EXPECTED

    def test_every_method_has_sequential_entry(self):
        for spec in METHOD_REGISTRY.values():
            assert callable(spec.sequential), spec.name

    def test_traceable_set(self):
        assert set(method_names(traceable_only=True)) == EXPECTED_TRACEABLE

    def test_cli_names_unique_and_lowercase(self):
        names = cli_choices()
        assert len(names) == len(set(names)) == len(EXPECTED)
        assert all(n == n.lower() for n in names)

    def test_lookup_by_canonical_cli_and_case(self):
        assert get_method("ScalaPart") is METHOD_REGISTRY["ScalaPart"]
        assert get_method("scalapart") is METHOD_REGISTRY["ScalaPart"]
        assert get_method("SCALAPART") is METHOD_REGISTRY["ScalaPart"]
        assert get_method("scotch") is METHOD_REGISTRY["Pt-Scotch-like"]

    def test_unknown_method_raises(self):
        with pytest.raises(ConfigError):
            get_method("Magic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_method("ScalaPart")(lambda graph, coords=None, **kw: None)

    def test_methods_table_lists_everything(self):
        table = methods_table()
        for name in EXPECTED:
            assert name in table

    def test_balance_contracts(self):
        assert get_method("parmetis").balance_bound is not None
        assert get_method("scotch").balance_bound is not None
        assert get_method("rcb").balance_bound is not None
        # geometric methods make no hard balance guarantee (the circle
        # selection falls back to the least-imbalanced candidate)
        assert get_method("scalapart").balance_bound is None
        assert get_method("sp-pg7-nl").balance_bound is None


class TestEveryMethodRuns:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_sequential_entry_point(self, name, small):
        g, pts = small
        spec = get_method(name)
        coords = pts if spec.needs_coords else None
        res = spec.sequential(g, coords, config=FAST, seed=1)
        assert res.method == spec.name
        res.validate(max_imbalance=0.3)
        assert 0 < res.cut_size < g.num_edges

    @pytest.mark.parametrize("name", sorted(EXPECTED_TRACEABLE))
    def test_parallel_p1(self, name, small):
        g, pts = small
        spec = get_method(name)
        coords = pts if spec.needs_coords else None
        res = run_parallel(name, g, 1, coords=coords, config=FAST, seed=2)
        assert res.simulated
        assert res.method == spec.name
        res.validate(max_imbalance=0.3)


class TestDispatchParity:
    """Registry-driven dispatch must be cut-for-cut identical (same
    seeds) to the direct pre-refactor entry points."""

    def test_sequential_scalapart(self, small):
        g, _ = small
        a = scalapart(g, FAST, seed=3)
        b = get_method("scalapart").sequential(g, config=FAST, seed=3)
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()

    def test_parallel_scalapart(self, small):
        g, _ = small
        a = run_parallel(get_method("ScalaPart"), g, 4, config=FAST, seed=3)
        b = run_parallel("ScalaPart", g, 4, config=FAST, seed=3)
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()
        assert a.seconds == b.seconds

    def test_parallel_parmetis(self, small):
        g, _ = small
        a = run_parallel("ParMetis-like", g, 4, seed=4, max_imbalance=0.05)
        b = run_parallel("parmetis", g, 4, seed=4)
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()

    def test_parallel_rcb_ignores_seed(self, small):
        g, pts = small
        a = run_parallel("RCB", g, 4, coords=pts)
        b = run_parallel("rcb", g, 4, coords=pts, seed=999)
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()
        assert a.seconds == b.seconds

    def test_run_parallel_rejects_sequential_only(self, small):
        g, pts = small
        with pytest.raises(ConfigError):
            run_parallel("spectral", g, 4, seed=1)

    def test_run_parallel_needs_two_vertices(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(1, [])
        with pytest.raises(PartitionError):
            run_parallel("scalapart", g, 2, seed=1)


class TestArtifactReuse:
    """One embedding artifact feeds SP-PG7-NL and RCB — the Figure-4
    comparison on identical coordinates without recomputing."""

    @pytest.fixture(scope="class")
    def embedded(self):
        g = random_delaunay(500, seed=5).graph
        res = scalapart(g, FAST, seed=6)
        return g, res

    def test_scalapart_exposes_artifacts(self, embedded):
        g, res = embedded
        art = res.extras["artifacts"]["embed"]
        assert isinstance(art, EmbeddingArtifact)
        assert art.coords.shape == (g.num_vertices, 2)
        assert np.array_equal(art.coords, res.extras["pos"])
        assert isinstance(res.extras["artifacts"]["partition"],
                          GeometricArtifact)

    def test_sequential_runners_accept_artifact(self, embedded):
        g, res = embedded
        art = res.extras["artifacts"]["embed"]
        for name in ("sp-pg7-nl", "rcb"):
            spec = get_method(name)
            via_art = spec.sequential(g, art, seed=7)
            via_raw = spec.sequential(g, art.coords, seed=7)
            assert via_art.bisection.side.tobytes() == \
                via_raw.bisection.side.tobytes(), name

    def test_parallel_runners_accept_artifact(self, embedded):
        g, res = embedded
        art = res.extras["artifacts"]["embed"]
        for name in ("sp-pg7-nl", "rcb"):
            via_art = run_parallel(name, g, 4, coords=art, seed=7)
            via_raw = run_parallel(name, g, 4, coords=art.coords, seed=7)
            assert via_art.bisection.side.tobytes() == \
                via_raw.bisection.side.tobytes(), name

    def test_as_coords_rejects_none_and_wrong_kind(self, embedded):
        g, res = embedded
        with pytest.raises(GeometryError):
            as_coords(None)
        with pytest.raises(GeometryError):
            as_coords(res.extras["artifacts"]["refine"])


class TestBalanceValidation:
    """Satellite: the once-dead ``max_imbalance`` of ``_package`` is now
    wired through — results are validated against the spec's declared
    balance bound."""

    def _lopsided_spec(self, bound):
        def prog(comm, graph, *, coords=None, config=None, seed=None,
                 max_imbalance=None):
            yield from comm.barrier()
            side = np.zeros(graph.num_vertices, dtype=np.int8)
            side[0] = 1
            return side, {}

        return MethodSpec(name="Lopsided", cli_name="lopsided",
                          distributed=prog, balance_bound=bound)

    def test_declared_bound_enforced(self, small):
        g, _ = small
        with pytest.raises(PartitionError):
            run_parallel(self._lopsided_spec(0.05), g, 2, seed=1)

    def test_no_bound_no_validation(self, small):
        g, _ = small
        res = run_parallel(self._lopsided_spec(None), g, 2, seed=1)
        assert res.imbalance > 0.5  # grossly unbalanced, but packaged

    def test_registered_bounds_hold_in_practice(self, small):
        g, _ = small
        for name in ("parmetis", "scotch"):
            res = run_parallel(name, g, 8, seed=3)
            assert res.imbalance <= get_method(name).balance_bound


class TestRecursiveByName:
    def test_name_matches_callable(self, small):
        g, _ = small
        spec = get_method("parmetis")
        a = recursive_bisection(g, 4, "parmetis", seed=1)
        b = recursive_bisection(g, 4, spec.sequential, seed=1)
        assert np.array_equal(a.parts, b.parts)
        assert a.bisections == b.bisections == 3

    def test_coordinate_method_by_name(self, small):
        g, pts = small
        res = recursive_bisection(g, 3, "rcb", coords=pts, seed=2)
        assert len(np.unique(res.parts)) == 3

    def test_coordinate_method_without_coords_rejected(self, small):
        g, _ = small
        with pytest.raises(PartitionError):
            recursive_bisection(g, 4, "rcb", seed=2)

    def test_unknown_name_rejected(self, small):
        g, _ = small
        with pytest.raises(ConfigError):
            recursive_bisection(g, 4, "magic", seed=2)
