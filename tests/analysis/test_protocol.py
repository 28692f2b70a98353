"""Fixture tests for the whole-program protocol checker (SP107-SP112).

Each rule gets at least one fixture it must fire on and one it must
stay silent on.  The firing fixtures are miniature versions of real
bugs the checker exists to catch: unmatched point-to-point traffic,
rank-divergent collective schedules (including the hole SP102's
guarded-split exemption leaves open), tags drawn from unordered
iteration, recv-before-send deadlock shapes, alias-mediated payload
mutation, and scatter-add / allocation slips in the hot kernels.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    HOT_KERNELS,
    check_registry,
    findings_to_sarif,
    lint_source,
    program_ops,
)
from repro.cli import main as cli_main


def lint(src):
    return lint_source(textwrap.dedent(src), "<test>")


def codes(src):
    return [f.code for f in lint(src)]


class TestSP107UnmatchedP2P:
    def test_fires_on_recv_nobody_sends(self):
        fs = lint("""
            def prog(comm):
                got = yield from comm.recv(source=1, tag=7)
                return got
        """)
        assert [f.code for f in fs] == ["SP107"]
        assert "recv" in fs[0].message

    def test_fires_on_tag_mismatch(self):
        # send and recv exist but can never pair: tags differ
        fs = lint("""
            def prog(comm):
                if comm.rank == 0:
                    yield from comm.send(1, dest=1, tag=3)
                else:
                    got = yield from comm.recv(source=0, tag=4)
                    return got
        """)
        assert "SP107" in [f.code for f in fs]

    def test_fires_in_self_recursive_program(self):
        # a program that recurses on a subcommunicator is still a root
        # rank program: its own recursive call does not make it a callee
        fs = lint("""
            def rec(comm, d):
                if d == 0:
                    return
                got = yield from comm.recv(source=0, tag=9)
                sub = yield from comm.split(comm.rank % 2)
                if comm.rank == 0:
                    yield from comm.barrier()
                yield from rec(sub, d - 1)
        """)
        assert [(f.line, f.code) for f in fs] == [(5, "SP107"), (8, "SP102")]

    def test_silent_on_matched_pair(self):
        assert codes("""
            def prog(comm):
                if comm.rank == 0:
                    yield from comm.send(1, dest=1, tag=3)
                else:
                    got = yield from comm.recv(source=0, tag=3)
                    return got
        """) == []

    def test_silent_on_sendrecv(self):
        assert codes("""
            def prog(comm):
                got = yield from comm.sendrecv(
                    comm.rank, dest=(comm.rank + 1) % comm.size,
                    source=(comm.rank - 1) % comm.size)
                return got
        """) == []

    def test_nonconstant_tag_is_wildcard(self):
        # a computed tag could be anything, so it matches any recv tag
        assert codes("""
            def prog(comm, t):
                if comm.rank == 0:
                    yield from comm.send(1, dest=1, tag=t)
                else:
                    got = yield from comm.recv(source=0, tag=9)
                    return got
        """) == []


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


class TestSP109UnorderedTagPeer:
    def test_fires_on_peer_from_set_iteration(self):
        fs = lint("""
            def prog(comm, nbrs):
                for b in set(nbrs):
                    yield from comm.send(1, dest=b, tag=0)
        """)
        assert "SP109" in [f.code for f in fs]

    def test_fires_on_tag_from_set_iteration(self):
        # dicts iterate in insertion order (deterministic), sets do not
        fs = lint("""
            def prog(comm, tags):
                for t in set(tags):
                    got = yield from comm.recv(source=0, tag=t)
        """)
        assert "SP109" in [f.code for f in fs]

    def test_silent_on_sorted_iteration(self):
        fs = lint("""
            def prog(comm, nbrs):
                for b in sorted(set(nbrs)):
                    yield from comm.send(1, dest=b, tag=0)
        """)
        assert "SP109" not in [f.code for f in fs]


class TestSP110RecvBeforeSend:
    def test_fires_on_recv_first_ring(self):
        # every rank parks in recv before anyone has sent: the static
        # twin of the runtime DeadlockError
        fs = lint("""
            def prog(comm):
                got = yield from comm.recv(
                    source=(comm.rank + 1) % comm.size, tag=3)
                yield from comm.send(got, dest=(comm.rank - 1) % comm.size,
                                     tag=3)
                return got
        """)
        assert "SP110" in [f.code for f in fs]

    def test_silent_on_send_first(self):
        assert codes("""
            def prog(comm):
                yield from comm.send(comm.rank,
                                     dest=(comm.rank - 1) % comm.size, tag=3)
                got = yield from comm.recv(
                    source=(comm.rank + 1) % comm.size, tag=3)
                return got
        """) == []

    def test_silent_when_recv_is_branch_conditional(self):
        # only some ranks recv first; the others send, so progress is
        # possible and the runtime pairing rules decide
        fs = lint("""
            def prog(comm):
                if comm.rank == 0:
                    got = yield from comm.recv(source=1, tag=3)
                    return got
                else:
                    yield from comm.send(1, dest=0, tag=3)
        """)
        assert "SP110" not in [f.code for f in fs]


class TestSP111AliasedPayloadMutation:
    def test_fires_on_base_mutation_after_view_send(self):
        fs = lint("""
            import numpy as np

            def prog(comm):
                buf = np.zeros(8)
                view = buf[2:6]
                yield from comm.send(view, dest=1)
                buf[0] = 1.0
                yield from comm.barrier()
        """)
        assert "SP111" in [f.code for f in fs]
        assert "buf" in [f for f in fs if f.code == "SP111"][0].message

    def test_fires_on_alias_mutation_after_send(self):
        fs = lint("""
            def prog(comm, buf):
                alias = buf
                yield from comm.send(buf, dest=1)
                alias.fill(0)
                yield from comm.barrier()
        """)
        assert "SP111" in [f.code for f in fs]

    def test_fires_across_phase_boundary(self):
        # set_phase only labels the cost ledger: the receiver still
        # aliases buf, so the mutation corrupts the message
        fs = lint("""
            import numpy as np

            def prog(comm):
                buf = np.zeros(8)
                view = buf[2:6]
                yield from comm.send(view, dest=1)
                comm.set_phase("next")
                buf[0] = 1.0
                yield from comm.barrier()
        """)
        assert "SP111" in [f.code for f in fs]

    def test_fires_on_set_mutation_through_alias(self):
        # sets are delivered as the sender's own object
        fs = lint("""
            def prog(comm):
                s = {1, 2}
                al = s
                yield from comm.send(s, dest=1)
                al.add(3)
                yield from comm.barrier()
        """)
        assert [f.code for f in fs] == ["SP111"]

    def test_direct_name_mutation_stays_sp104(self):
        # mutating the *sent* name is SP104's finding, not SP111's
        fs = lint("""
            def prog(comm, buf):
                yield from comm.send(buf, dest=1)
                buf[0] = 1.0
                yield from comm.barrier()
        """)
        got = [f.code for f in fs]
        assert "SP104" in got and "SP111" not in got

    def test_silent_on_scalar_index_copy(self):
        # buf[i] is a scalar read, not an aliasing view
        fs = lint("""
            def prog(comm, buf):
                x = buf[0]
                yield from comm.send(x, dest=1)
                buf[0] = 1.0
                yield from comm.barrier()
        """)
        assert "SP111" not in [f.code for f in fs]


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


class TestProtocolToggle:
    BAD = """
        def prog(comm):
            got = yield from comm.recv(source=1, tag=7)
            return got
    """

    def test_protocol_on_by_default(self):
        assert codes(self.BAD) == ["SP107"]

    def test_suppression_works_on_protocol_findings(self):
        assert codes("""
            def prog(comm):
                got = yield from comm.recv(source=1, tag=7)  # repro: lint-ok[SP107]
                return got
        """) == []


class TestProgramOps:
    def test_summary_is_execution_ordered(self):
        ops = program_ops(textwrap.dedent("""
            def prog(comm):
                yield from comm.send(1, dest=1, tag=2)
                got = yield from comm.recv(source=1, tag=2)
                total = yield from comm.allreduce(got)
                return total
        """), "prog")
        assert [(op, kind) for op, kind, _, _ in ops] == [
            ("send", "send"), ("recv", "recv"),
            ("allreduce", "collective")]
        assert ops[0][2] == 2  # constant-folded tag

    def test_inlined_helper_ops_appear(self):
        ops = program_ops(textwrap.dedent("""
            def helper(comm):
                yield from comm.barrier()

            def prog(comm):
                yield from helper(comm)
                yield from comm.barrier()
        """), "prog")
        assert [op for op, _, _, _ in ops] == ["barrier", "barrier"]

    def test_branch_ops_marked_conditional(self):
        ops = program_ops(textwrap.dedent("""
            def prog(comm):
                if comm.rank == 0:
                    yield from comm.send(1, dest=1)
                else:
                    got = yield from comm.recv(source=0)
        """), "prog")
        assert all(cond for _, _, _, cond in ops)

    def test_unknown_function_raises(self):
        with pytest.raises(ValueError, match="no function"):
            program_ops("def f():\n    pass\n", "g")


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
        doc = self._sarif("""
            def prog(comm):
                got = yield from comm.recv(source=1, tag=7)
                return got
        """)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "SP107" in rules and "SP099" in rules
        (res,) = run["results"]
        assert res["ruleId"] == "SP107"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 3

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

    BAD = """
        def prog(comm):
            got = yield from comm.recv(source=1, tag=7)
            return got
    """

    def test_protocol_finding_fails_lint(self, tmp_path, capsys):
        f = self._write(tmp_path, self.BAD)
        assert cli_main(["lint", str(f)]) == 1
        assert "SP107" in capsys.readouterr().out

    def test_sarif_format(self, tmp_path, capsys):
        f = self._write(tmp_path, self.BAD)
        assert cli_main(["lint", str(f), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "SP107"

    def test_json_format_is_byte_stable(self, tmp_path, capsys):
        f = self._write(tmp_path, self.BAD)
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
