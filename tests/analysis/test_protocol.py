"""Fixture tests for the whole-program protocol checker (SP108, SP112).

Each rule gets at least one fixture it must fire on and one it must
stay silent on.  The firing fixtures are miniature versions of real
bugs the checker exists to catch: rank-divergent collective counts
(including the hole SP102's guarded-split exemption leaves open) and
scatter-add / allocation slips in the hot kernels.
"""

import json
import textwrap

from repro.analysis import (
    HOT_KERNELS,
    RULES,
    check_registry,
    findings_to_sarif,
    lint_source,
)
from repro.cli import main as cli_main


def lint(src):
    return lint_source(textwrap.dedent(src), "<test>")


def codes(src):
    return [f.code for f in lint(src)]


class TestSP107UnmatchedP2P:
    """SP107 (unmatched send/recv) went with Comm's point-to-point ops.

    Its self-recursion fixture outlives it: root-program detection is
    shared by every whole-program rule, so a self-recursive rank
    program must still be analysed as a root.
    """

    def test_fires_in_self_recursive_program(self):
        # a program that recurses on a subcommunicator is still a root
        # rank program: its own recursive call does not make it a callee
        fs = lint("""
            def rec(comm, d):
                if d == 0:
                    return
                total = yield from comm.allreduce(d)
                sub = yield from comm.split(comm.rank % 2)
                if comm.rank == 0:
                    yield from comm.barrier()
                yield from rec(sub, d - 1)
        """)
        assert [(f.line, f.code) for f in fs] == [(8, "SP102")]


class TestSP108CollectiveDivergence:
    def test_fires_on_subcomm_collective_in_rank_branch(self):
        # the hole SP102's guarded-split exemption leaves open: the
        # branch is a *rank* test, not a membership guard, so only
        # some members of sub reach the collective
        fs = lint("""
            def prog(comm):
                sub = yield from comm.split(0 if comm.rank < 2 else None)
                if comm.rank == 0:
                    yield from sub.allreduce(1)
        """)
        assert "SP108" in [f.code for f in fs]

    def test_fires_via_helper_call(self):
        # the collective hides in a helper; reported at the call site
        fs = lint("""
            def reduce_all(comm, x):
                total = yield from comm.allreduce(x)
                return total

            def prog(comm):
                if comm.rank == 0:
                    got = yield from reduce_all(comm, 1)
                    return got
        """)
        assert [f.code for f in fs] == ["SP108"]

    def test_fires_on_rank_dependent_loop_trip(self):
        fs = lint("""
            def prog(comm):
                for _ in range(comm.rank):
                    yield from comm.barrier()
        """)
        assert "SP108" in [f.code for f in fs]

    def test_no_double_fire_with_sp102(self):
        # same-frame parent-comm collective under a rank branch is
        # SP102's territory; SP108 must not pile on
        assert codes("""
            def prog(comm):
                if comm.rank == 0:
                    yield from comm.barrier()
        """) == ["SP102"]

    def test_silent_on_membership_guarded_subcomm(self):
        assert codes("""
            def prog(comm):
                sub = yield from comm.split(0 if comm.rank < 2 else None)
                if sub is not None:
                    total = yield from sub.allreduce(comm.rank)
                    return total
        """) == []

    def test_silent_on_guard_propagated_through_call(self):
        # the membership guard survives inlining when the guarded
        # subcomm is the argument
        assert codes("""
            def reduce_all(comm, x):
                total = yield from comm.allreduce(x)
                return total

            def prog(comm):
                sub = yield from comm.split(0 if comm.rank < 2 else None)
                if sub is not None:
                    got = yield from reduce_all(sub, 1)
                    return got
        """) == []

    def test_silent_on_uniform_loop(self):
        assert codes("""
            def prog(comm, rounds):
                for _ in range(rounds):
                    yield from comm.barrier()
        """) == []


class TestSP112HotKernelSlips:
    def test_fires_on_add_at_in_hot_kernel(self):
        fs = lint("""
            import numpy as np

            def attractive_forces(pos, edges, out):
                np.add.at(out, edges[:, 0], pos[edges[:, 1]])
                return out
        """)
        assert [f.code for f in fs] == ["SP112"]
        assert "bincount" in fs[0].message

    def test_fires_on_alloc_in_hot_kernel_loop(self):
        fs = lint("""
            import numpy as np

            def repulsive_forces_lattice(pos, cells):
                for c in cells:
                    tmp = np.zeros(len(c))
                return tmp
        """)
        assert "SP112" in [f.code for f in fs]

    def test_silent_in_reference_variant(self):
        # _*_reference twins are the slow oracles; they may scatter-add
        assert codes("""
            import numpy as np

            def _attractive_forces_reference(pos, edges, out):
                np.add.at(out, edges[:, 0], pos[edges[:, 1]])
                return out
        """) == []

    def test_silent_in_ordinary_function(self):
        assert codes("""
            import numpy as np

            def histogram(idx, w):
                out = np.zeros(idx.max() + 1)
                np.add.at(out, idx, w)
                return out
        """) == []

    def test_hot_kernel_registry_names_exist(self):
        # the exact-name list must track the real kernels
        assert "attractive_forces" in HOT_KERNELS
        assert "kway_geometric_assign" in HOT_KERNELS


#: a collective count that depends on comm.rank: SP108 on line 4
BAD = """
    def prog(comm):
        for _ in range(comm.rank):
            yield from comm.barrier()
"""


class TestProtocolToggle:
    def test_protocol_on_by_default(self):
        assert codes(BAD) == ["SP108"]

    def test_suppression_works_on_protocol_findings(self):
        assert codes("""
            def prog(comm):
                for _ in range(comm.rank):
                    yield from comm.barrier()  # repro: lint-ok[SP108]
        """) == []


class TestRegistryGate:
    def test_every_distributed_entry_point_checks_clean(self):
        findings, names = check_registry()
        assert len(names) >= 6, names
        assert "ScalaPart" in names
        assert findings == [], "\n".join(f.format() for f in findings)


class TestSarif:
    def _sarif(self, src):
        return json.loads(findings_to_sarif(lint(src)))

    def test_sarif_shape_and_rule_metadata(self):
        doc = self._sarif(BAD)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rules == sorted(RULES) == [
            "SP000", "SP099", "SP101", "SP102", "SP103", "SP105", "SP106",
            "SP108", "SP112"]
        (res,) = run["results"]
        assert res["ruleId"] == "SP108"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 4

    def test_sp099_is_note_level(self):
        doc = self._sarif("""
            def prog(comm):
                yield from comm.barrier()  # repro: lint-ok[SP101]
        """)
        (res,) = doc["runs"][0]["results"]
        assert res["ruleId"] == "SP099"
        assert res["level"] == "note"

    def test_empty_findings_still_valid_sarif(self):
        doc = json.loads(findings_to_sarif([]))
        assert doc["runs"][0]["results"] == []


class TestCliProtocol:
    def _write(self, tmp_path, body):
        f = tmp_path / "prog.py"
        f.write_text(textwrap.dedent(body))
        return f

    def test_protocol_finding_fails_lint(self, tmp_path, capsys):
        f = self._write(tmp_path, BAD)
        assert cli_main(["lint", str(f)]) == 1
        assert "SP108" in capsys.readouterr().out

    def test_sarif_format(self, tmp_path, capsys):
        f = self._write(tmp_path, BAD)
        assert cli_main(["lint", str(f), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "SP108"

    def test_json_format_is_byte_stable(self, tmp_path, capsys):
        f = self._write(tmp_path, BAD)
        cli_main(["lint", str(f), "--format", "json"])
        first = capsys.readouterr().out
        cli_main(["lint", str(f), "--format", "json"])
        assert capsys.readouterr().out == first

    def test_registry_flag(self, capsys):
        assert cli_main(["lint", "--registry", "--format", "json"]) == 0
        err = capsys.readouterr().err
        assert "# registry: checked" in err
        assert "# lint-timing:" in err

    def test_timing_line_on_stderr(self, tmp_path, capsys):
        f = self._write(tmp_path, "def f():\n    return 1\n")
        assert cli_main(["lint", str(f)]) == 0
        assert "# lint-timing:" in capsys.readouterr().err
