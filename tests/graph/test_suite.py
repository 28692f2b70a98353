"""Tests for the nine-graph evaluation suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import suite


class TestSuite:
    def test_nine_entries_in_table1_order(self):
        names = suite.suite_names()
        assert len(names) == 9
        assert names[0] == "ecology1"
        assert names[-1] == "hugebubbles-00020"

    def test_large4_are_suite_members(self):
        assert set(suite.LARGE4) <= set(suite.suite_names())
        assert len(suite.LARGE4) == 4

    def test_build_unknown_raises(self):
        with pytest.raises(GraphError):
            suite.build("nope")

    def test_build_scaled_down(self):
        g = suite.build("ecology1", scale=0.02)
        assert g.graph.num_vertices < 1000
        assert g.graph.is_connected()

    def test_builds_are_deterministic(self):
        a = suite.build("delaunay_n20", scale=0.05)
        b = suite.build("delaunay_n20", scale=0.05)
        assert a.graph == b.graph

    def test_unseeded_build_is_stable_across_processes(self, tmp_path):
        # str hashes are salted per process (PYTHONHASHSEED); the
        # default seed must not depend on them
        code = (
            "import sys, numpy as np; from repro.graph import suite; "
            "g = suite.build('delaunay_n20', scale=0.05).graph; "
            "np.savez(sys.argv[1], indptr=g.indptr, indices=g.indices)"
        )
        src = str(Path(suite.__file__).resolve().parents[2])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        arrays = []
        for hashseed in ("1", "2"):
            out = tmp_path / f"g{hashseed}.npz"
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
            subprocess.run([sys.executable, "-c", code, str(out)],
                           env=env, check=True)
            arrays.append(np.load(out))
        a, b = arrays
        assert np.array_equal(a["indptr"], b["indptr"])
        assert np.array_equal(a["indices"], b["indices"])

    @pytest.mark.parametrize("name", suite.suite_names())
    def test_every_graph_builds_small(self, name):
        g = suite.build(name, scale=0.02)
        assert g.graph.num_vertices > 10
        assert g.graph.num_edges > 10
        assert g.graph.is_connected()
        assert g.name == name

    def test_scale_validated(self):
        with pytest.raises(GraphError):
            suite.build("ecology1", scale=0)

    def test_relative_size_ordering_preserved(self):
        # the largest paper graphs should stay the largest analogues
        sizes = {
            n: suite.build(n, scale=0.05).graph.num_vertices
            for n in ("ecology1", "delaunay_n24", "hugebubbles-00020")
        }
        assert sizes["hugebubbles-00020"] > sizes["ecology1"]
        assert sizes["delaunay_n24"] > sizes["ecology1"]
