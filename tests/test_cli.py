"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.generators import grid2d, random_delaunay
from repro.graph.io import write_coords, write_metis


@pytest.fixture
def graph_file(tmp_path):
    g = grid2d(12, 12).graph
    p = tmp_path / "g.graph"
    write_metis(g, p)
    return str(p), g


class TestInfo:
    def test_prints_stats(self, graph_file, capsys):
        path, g = graph_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "144" in out
        assert "connected     : True" in out


class TestPartition:
    def test_bisection_to_file(self, graph_file, tmp_path):
        path, g = graph_file
        out = tmp_path / "g.part"
        rc = main(["partition", path, "--method", "parmetis",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert parts.shape == (144,)
        assert set(np.unique(parts)) == {0, 1}

    def test_kway(self, graph_file, tmp_path):
        path, g = graph_file
        out = tmp_path / "g.part4"
        rc = main(["partition", path, "--method", "parmetis", "--k", "4",
                   "--out", str(out), "--seed", "2"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert len(np.unique(parts)) == 4

    def test_rcb_with_coords(self, tmp_path):
        g, pts = random_delaunay(200, seed=3)
        gp = tmp_path / "d.graph"
        cp = tmp_path / "d.xy"
        write_metis(g, gp)
        write_coords(pts, cp)
        out = tmp_path / "d.part"
        rc = main(["partition", str(gp), "--method", "rcb",
                   "--coords", str(cp), "--out", str(out)])
        assert rc == 0
        parts = [int(x) for x in out.read_text().split()]
        assert abs(sum(parts) - 100) <= 1  # balanced bisection

    def test_coords_mismatch_errors(self, graph_file, tmp_path):
        path, g = graph_file
        cp = tmp_path / "bad.xy"
        write_coords(np.zeros((3, 2)), cp)
        rc = main(["partition", path, "--method", "rcb", "--coords", str(cp)])
        assert rc == 2

    def test_stdout_output(self, graph_file, capsys):
        path, g = graph_file
        assert main(["partition", path, "--method", "spectral"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 144

    def test_parts_alias(self, graph_file, tmp_path, capsys):
        """``--parts`` is the METIS-style spelling of ``--k``."""
        path, g = graph_file
        out = tmp_path / "g.part3"
        rc = main(["partition", path, "--method", "parmetis", "--parts", "3",
                   "--out", str(out), "--seed", "2"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert len(np.unique(parts)) == 3
        err = capsys.readouterr().err
        assert "kway_cut=" in err
        assert "kway_imbalance=" in err

    def test_bisection_reports_cut(self, graph_file, capsys):
        path, g = graph_file
        assert main(["partition", path, "--method", "parmetis",
                     "--seed", "1"]) == 0
        err = capsys.readouterr().err
        assert "cut=" in err
        assert "imbalance=" in err

    def test_registry_methods_available(self, graph_file, tmp_path):
        """Methods registered in the central registry are CLI choices
        without any CLI change (here: the geometric baseline g30)."""
        path, g = graph_file
        out = tmp_path / "g.g30"
        rc = main(["partition", path, "--method", "g30",
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        parts = [int(x) for x in out.read_text().split()]
        assert set(parts) == {0, 1}

    def test_kway_scalapart(self, graph_file, tmp_path):
        """k-way works for the flagship method too (needs no coords)."""
        path, g = graph_file
        out = tmp_path / "g.sp4"
        rc = main(["partition", path, "--method", "scalapart", "--parts", "4",
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert len(np.unique(parts)) == 4

    def test_direct_kway_method(self, graph_file, tmp_path, capsys):
        """``--parts`` with a native k-way method splits directly."""
        path, g = graph_file
        out = tmp_path / "g.kg4"
        rc = main(["partition", path, "--method", "kway-geometric",
                   "--parts", "4", "--out", str(out), "--seed", "1"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert parts.shape == (144,)
        assert len(np.unique(parts)) == 4
        assert "kway_cut=" in capsys.readouterr().err

    def test_direct_kway_on_sim_backend(self, graph_file, tmp_path):
        """k > 2 runs through the SPMD engine for native k-way methods."""
        path, g = graph_file
        out = tmp_path / "g.kg4sim"
        rc = main(["partition", path, "--method", "kway-geometric",
                   "--parts", "4", "--backend", "sim", "--nranks", "4",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert len(np.unique(parts)) == 4

    def test_kway_backend_needs_native_method(self, graph_file):
        """Bisection methods cannot produce k > 2 parts on sim/procs."""
        path, g = graph_file
        rc = main(["partition", path, "--method", "scalapart",
                   "--parts", "4", "--backend", "sim"])
        assert rc == 2

    def test_hierarchy(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = tmp_path / "g.h"
        rc = main(["partition", path, "--method", "kway-geometric",
                   "--hierarchy", "2x2", "--out", str(out), "--seed", "4"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert len(np.unique(parts)) == 4
        assert "hierarchy=2x2" in capsys.readouterr().err

    def test_hierarchy_rejects_nonseq_backend(self, graph_file):
        path, g = graph_file
        rc = main(["partition", path, "--method", "kway-geometric",
                   "--hierarchy", "2x2", "--backend", "sim"])
        assert rc == 2

    def test_bad_hierarchy_spec(self, graph_file):
        path, g = graph_file
        rc = main(["partition", path, "--method", "kway-geometric",
                   "--hierarchy", "2x4x2"])
        assert rc == 2

    def test_cost_model_flag(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = tmp_path / "g.cm"
        rc = main(["partition", path, "--method", "parmetis", "--parts", "4",
                   "--cost-model", "degree", "--out", str(out),
                   "--seed", "2"])
        assert rc == 0
        parts = np.array([int(x) for x in out.read_text().split()])
        assert len(np.unique(parts)) == 4
        assert "cost_model=degree" in capsys.readouterr().err


class TestMaxImbalance:
    """``--max-imbalance`` reaches every path with a balance target and
    is rejected, naming the method, where there is none."""

    @pytest.fixture
    def mesh_file(self, tmp_path):
        mesh = random_delaunay(600, seed=7)
        gp = tmp_path / "d600.graph"
        cp = tmp_path / "d600.xy"
        write_metis(mesh.graph, gp)
        write_coords(mesh.coords, cp)
        return str(gp), str(cp)

    @staticmethod
    def _parts(path, tmp_path, *flags):
        out = tmp_path / "out.part"
        assert main(["partition", path, "--method", "parmetis", "--seed",
                     "1", "--out", str(out), *flags]) == 0
        return out.read_text()

    @pytest.mark.parametrize("backend", ["seq", "sim"])
    def test_target_reaches_parmetis(self, mesh_file, tmp_path, backend):
        path, _ = mesh_file

        def run(*flags):
            return self._parts(path, tmp_path, "--backend", backend, *flags)

        default = run()
        assert run("--max-imbalance", "0.05") == default
        assert run("--max-imbalance", "0.14") != default

    @pytest.mark.parametrize("backend", ["seq", "sim"])
    def test_looser_target_is_not_rejected(self, mesh_file, tmp_path,
                                           backend):
        """A result that meets the caller's looser target passes the
        balance check on every backend, not only on ``seq``."""
        path, _ = mesh_file
        parts = self._parts(path, tmp_path, "--backend", backend,
                            "--max-imbalance", "0.5")
        assert parts != self._parts(path, tmp_path, "--backend", backend)

    def test_target_reaches_scalapart_config(self, mesh_file, monkeypatch):
        import repro.core.methods as methods

        seen = []
        real = methods.scalapart

        def spy(graph, config=None, seed=None):
            seen.append(config)
            return real(graph, config, seed=seed)

        monkeypatch.setattr(methods, "scalapart", spy)
        path, _ = mesh_file
        assert main(["partition", path, "--max-imbalance", "0.2"]) == 0
        assert [c.max_imbalance for c in seen] == [0.2]

    def test_rejected_without_balance_target(self, mesh_file, capsys):
        path, coords = mesh_file
        rc = main(["partition", path, "--method", "rcb", "--coords", coords,
                   "--max-imbalance", "0.1"])
        assert rc == 2
        assert "'RCB'" in capsys.readouterr().err

    def test_kway_refinement_takes_target_for_any_method(self, mesh_file):
        path, coords = mesh_file
        assert main(["partition", path, "--method", "rcb", "--coords",
                     coords, "--parts", "4", "--max-imbalance", "0.1"]) == 0

    def test_rejected_with_hierarchy(self, mesh_file, capsys):
        path, _ = mesh_file
        rc = main(["partition", path, "--method", "kway-geometric",
                   "--hierarchy", "2x2", "--max-imbalance", "0.1"])
        assert rc == 2
        assert "'KWay-Geometric'" in capsys.readouterr().err


class TestEmbed:
    def test_writes_coordinates(self, graph_file, tmp_path):
        path, g = graph_file
        out = tmp_path / "g.xy"
        rc = main(["embed", path, "--out", str(out), "--seed", "4"])
        assert rc == 0
        coords = np.loadtxt(out)
        assert coords.shape == (144, 2)
        assert np.isfinite(coords).all()


class TestTrace:
    def test_scalapart_trace_report(self, graph_file, capsys):
        path, g = graph_file
        rc = main(["trace", path, "--nranks", "4", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "method=ScalaPart backend=sim nranks=4" in out
        assert "global collectives:" in out
        # per-phase rows with hierarchical labels (the 144-vertex grid
        # is below coarsest_size, so no coarsen/* phases appear)
        assert "embed/" in out
        assert "partition/select" in out

    def test_profile_jsonl_roundtrips(self, graph_file, tmp_path):
        from repro.parallel import read_trace_jsonl

        path, g = graph_file
        prof = tmp_path / "g.trace.jsonl"
        rc = main(["trace", path, "--nranks", "4", "--seed", "5",
                   "--block-size", "4", "--profile", str(prof)])
        assert rc == 0
        recs = read_trace_jsonl(str(prof))
        assert recs[0]["record"] == "run"
        assert recs[0]["nranks"] == 4
        assert recs[0]["comm"]["collective_ops"]
        phases = {r["phase"] for r in recs[1:]}
        assert any(p.startswith("embed/") for p in phases)

    def test_parmetis_method(self, graph_file, capsys):
        path, g = graph_file
        rc = main(["trace", path, "--method", "parmetis", "--nranks", "4"])
        assert rc == 0
        assert "nranks=4" in capsys.readouterr().out


class TestChaos:
    def _report(self, tmp_path, *extra):
        import json

        out = tmp_path / "report.json"
        rc = main(["chaos", "--n", "150", "--seed", "5", "--nranks", "4",
                   "--plans", "1", "--kill-op", "7", "--out", str(out),
                   *extra])
        return rc, json.loads(out.read_text())

    def test_records_backend_and_recovers(self, tmp_path):
        rc, report = self._report(tmp_path)
        assert rc == 0
        assert report["backend"] == "sim"
        assert report["checkpoint"] is None
        assert report["summary"]["failed"] == 0
        # --kill-op 7 lands in strip refinement on this mesh: the run
        # must come back recovered, not clean
        assert report["summary"]["recovered"] == 1

    def test_checkpoint_resume_surfaces_in_report(self, tmp_path):
        ckdir = tmp_path / "ck"
        rc, report = self._report(tmp_path, "--checkpoint", str(ckdir),
                                  "--backend", "sim")
        assert rc == 0
        assert report["checkpoint"] == str(ckdir)
        (run,) = report["runs"]
        assert run["status"] == "recovered"
        assert run["recovery"]["resumed_from"] == "embed"
        assert list(ckdir.glob("embed-*.npz"))

    def test_failed_run_records_its_trail(self, tmp_path):
        """A run that exhausts the ladder still reports every attempt:
        no bisection balances a mesh whose one vertex outweighs the
        rest ten times over."""
        import json

        from repro.graph.csr import CSRGraph

        g = random_delaunay(150, seed=5).graph
        vwgt = np.ones(g.num_vertices)
        vwgt[0] = 10 * g.num_vertices
        path = tmp_path / "heavy.graph"
        write_metis(CSRGraph(g.indptr, g.indices, g.ewgt, vwgt), path,
                    vertex_weights=True)
        out = tmp_path / "report.json"
        rc = main(["chaos", str(path), "--nranks", "4", "--plans", "1",
                   "--retries", "0", "--out", str(out)])
        assert rc == 1
        (run,) = json.loads(out.read_text())["runs"]
        assert run["status"] == "failed"
        assert "recovery exhausted after 4 attempt" in run["error"]
        trail = run["recovery"]["attempts"]
        assert [a["step"] for a in trail] == ["primary", "shrink",
                                              "fallback", "fallback"]
        assert [a["attempt"] for a in trail] == [0, 1, 2, 3]
        assert all(a["status"] == "failed" for a in trail)
        assert run["recovery"]["recovered"] is False

    def test_negative_retries_rejected(self, tmp_path, capsys):
        rc = main(["chaos", "--n", "150", "--retries", "-1",
                   "--out", str(tmp_path / "report.json")])
        assert rc == 2
        assert "retries must be >= 0" in capsys.readouterr().err

    def test_procs_backend_recorded(self, tmp_path):
        from repro.parallel import procs_available

        if not procs_available():
            pytest.skip("procs backend unavailable")
        rc, report = self._report(tmp_path, "--backend", "procs")
        assert rc == 0
        assert report["backend"] == "procs"
        assert report["summary"]["failed"] == 0
