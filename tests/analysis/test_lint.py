"""Per-rule fixture tests for the SPMD static lint (SP101-SP106).

Each rule gets a bad fixture it must fire on and a good fixture it
must stay silent on, plus suppression, selection, JSON, and CLI
round-trips.  The fixtures post only the six ops a ``Comm`` offers.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    RULES,
    Finding,
    findings_to_json,
    lint_paths,
    lint_source,
)
from repro.cli import main as cli_main
from repro.errors import ConfigError


def lint(src):
    return lint_source(textwrap.dedent(src), "<test>")


def codes(src):
    return [f.code for f in lint(src)]


class TestSP101Undriven:
    def test_fires_on_missing_yield_from(self):
        fs = lint("""
            def prog(comm):
                comm.bcast(1)
                yield from comm.barrier()
        """)
        assert [f.code for f in fs] == ["SP101"]
        assert fs[0].line == 3
        assert "yield from" in fs[0].message

    def test_fires_on_bare_collective(self):
        assert codes("""
            def prog(comm):
                comm.barrier()
                return (yield from comm.allreduce(1))
        """) == ["SP101"]

    def test_silent_when_driven(self):
        assert codes("""
            def prog(comm):
                yield from comm.bcast(1)
                got = yield from comm.gather(comm.rank)
                return got
        """) == []

    def test_silent_on_non_comm_receiver(self):
        # string .split() and similar must not fire
        assert codes("""
            def prog(comm, line):
                parts = line.split()
                yield from comm.barrier()
                return parts
        """) == []

    @pytest.mark.parametrize("line", [
        "parts = common.split(line)",
        "names = communities.split(',')",
    ])
    def test_silent_on_comm_substring_receiver(self, line):
        # "comm" inside a longer name does not make a communicator
        assert codes(f"""
            def prog(comm, line, common, communities):
                {line}
                yield from comm.barrier()
        """) == []

    def test_fires_on_comm_name_part(self):
        assert codes("""
            def prog(comm, sub_comm):
                sub_comm.barrier()
                yield from comm.barrier()
        """) == ["SP101"]


class TestSP102RankDependentCollective:
    def test_fires_on_direct_rank_branch(self):
        fs = lint("""
            def prog(comm):
                if comm.rank == 0:
                    yield from comm.barrier()
        """)
        assert [f.code for f in fs] == ["SP102"]

    def test_fires_on_tainted_variable(self):
        assert codes("""
            def prog(comm):
                me = comm.rank
                if me > 2:
                    yield from comm.allreduce(1)
        """) == ["SP102"]

    def test_silent_on_unconditional_collective(self):
        assert codes("""
            def prog(comm):
                x = 1 if comm.rank == 0 else 2
                return (yield from comm.allreduce(x))
        """) == []

    def test_silent_on_guarded_subcommunicator(self):
        # the canonical split idiom: every member of `sub` enters the
        # branch, so sub's collective schedule is consistent
        assert codes("""
            def prog(comm):
                sub = yield from comm.split(0 if comm.rank < 2 else None)
                if sub is not None:
                    total = yield from sub.allreduce(comm.rank)
                    return total
        """) == []

    def test_silent_on_symmetric_collective_result(self):
        # every rank gets the same allreduce result, so a branch on it
        # is rank-consistent even though comm.rank fed the reduction
        assert codes("""
            def prog(comm):
                x = yield from comm.allreduce(comm.rank)
                if x > 0:
                    yield from comm.barrier()
        """) == []

    @pytest.mark.parametrize("src", [
        # method of a function-local class
        """
        def outer():
            class P:
                def prog(self, comm):
                    if comm.rank == 0:
                        yield from comm.barrier()
            return P
        """,
        # method of a nested class
        """
        class A:
            class B:
                def prog(self, comm):
                    if comm.rank == 0:
                        yield from comm.barrier()
        """,
        # mutual recursion: no function is called by nobody
        """
        def a(comm, d):
            if comm.rank == 0:
                yield from comm.barrier()
            yield from b(comm, d)

        def b(comm, d):
            yield from a(comm, d - 1)
        """,
    ], ids=["local-class", "nested-class", "mutual-recursion"])
    def test_fires_wherever_the_generator_is_defined(self, src):
        assert codes(src) == ["SP102"]

    def test_fires_on_world_collective_in_rank_branch(self):
        assert codes("""
            def prog(comm):
                if comm.rank % 2 == 0:
                    yield from comm.gather(1)
        """) == ["SP102"]


class TestSP103GlobalRNG:
    def test_fires_on_np_random(self):
        fs = lint("""
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
        """)
        assert [f.code for f in fs] == ["SP103"]

    def test_fires_on_stdlib_random(self):
        assert codes("""
            import random

            def pick(xs):
                return random.choice(xs)
        """) == ["SP103"]

    def test_fires_through_import_alias(self):
        assert codes("""
            import numpy

            def f():
                return numpy.random.uniform()
        """) == ["SP103"]

    def test_silent_on_seeded_generator(self):
        assert codes("""
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.random(4)
        """) == []

    def test_silent_on_unrelated_random_attr(self):
        assert codes("""
            def f(rng):
                return rng.random(4)
        """) == []


class TestSP105SetOrderPayload:
    def test_fires_on_set_iteration_in_comm_function(self):
        fs = lint("""
            def prog(comm, nbrs):
                nbrs = set(nbrs)
                for b in nbrs:
                    yield from comm.bcast(b)
        """)
        assert "SP105" in [f.code for f in fs]

    def test_fires_on_list_built_from_set(self):
        # list(s) keeps the set's hash order
        assert "SP105" in codes("""
            def prog(comm, nbrs):
                s = set(nbrs)
                for b in list(s):
                    yield from comm.bcast(b)
        """)

    def test_silent_on_sorted_set(self):
        assert codes("""
            def prog(comm, nbrs):
                nbrs = set(nbrs)
                for b in sorted(nbrs):
                    yield from comm.bcast(b)
        """) == []

    def test_silent_outside_comm_functions(self):
        # plain helpers may iterate sets freely
        assert codes("""
            def total(xs):
                acc = 0
                for x in {1, 2, 3}:
                    acc += x
                return acc
        """) == []


class TestSP106SwallowedFault:
    def test_fires_on_silent_pass(self):
        fs = lint("""
            from repro.errors import CommError
            def run():
                try:
                    risky()
                except CommError:
                    pass
        """)
        assert [f.code for f in fs] == ["SP106"]
        assert "CommError" in fs[0].message

    def test_fires_inside_tuple_clause(self):
        assert codes("""
            from repro.errors import ReproError
            def run():
                try:
                    risky()
                except (ValueError, ReproError):
                    fallback()
        """) == ["SP106"]

    def test_fires_when_bound_but_unused(self):
        assert codes("""
            from repro import errors
            def run():
                try:
                    risky()
                except errors.RankFailure as exc:
                    cleanup()
        """) == ["SP106"]

    def test_silent_on_reraise(self):
        assert codes("""
            from repro.errors import CommError
            def run():
                try:
                    risky()
                except CommError:
                    raise
        """) == []

    def test_silent_on_conversion(self):
        assert codes("""
            from repro.errors import DeadlockError
            def run():
                try:
                    risky()
                except DeadlockError as exc:
                    raise RuntimeError("converted") from exc
        """) == []

    def test_silent_when_exception_is_used(self):
        assert codes("""
            from repro.errors import ReproError
            def run():
                try:
                    risky()
                except ReproError as exc:
                    report.append(str(exc))
        """) == []

    def test_silent_on_unrelated_exception(self):
        assert codes("""
            def run():
                try:
                    risky()
                except ValueError:
                    pass
        """) == []

    def test_suppression_comment(self):
        assert codes("""
            from repro.errors import CommError
            def run():
                try:
                    risky()
                except CommError:  # repro: lint-ok[SP106]
                    pass
        """) == []


class TestSuppressions:
    def test_trailing_comment_suppresses(self):
        assert codes("""
            def prog(comm):
                comm.bcast(1)  # repro: lint-ok[SP101]
                yield from comm.barrier()
        """) == []

    def test_standalone_previous_line_suppresses(self):
        assert codes("""
            def prog(comm):
                # repro: lint-ok[SP101]
                comm.bcast(1)
                yield from comm.barrier()
        """) == []

    def test_bare_lint_ok_suppresses_all_codes(self):
        assert codes("""
            def prog(comm):
                comm.bcast(1)  # repro: lint-ok
                yield from comm.barrier()
        """) == []

    def test_wrong_code_does_not_suppress(self):
        # the SP101 still fires, and the mismatched suppression is
        # itself reported stale (SP099)
        assert codes("""
            def prog(comm):
                comm.bcast(1)  # repro: lint-ok[SP103]
                yield from comm.barrier()
        """) == ["SP101", "SP099"]

    def test_code_naming_no_rule_is_reported(self):
        # a typo, or a code whose rule was deleted, can never silence
        # anything, whichever rules the run checks
        fs = lint("""
            def prog(comm):
                yield from comm.barrier()  # repro: lint-ok[SP777]
        """)
        assert [(f.code, f.line) for f in fs] == [("SP099", 3)]
        assert "SP777" in fs[0].message and "names no rule" in fs[0].message


class TestApi:
    def test_every_rule_has_a_hint(self):
        assert set(RULES) == {
            "SP000", "SP099", "SP101", "SP102", "SP103", "SP105", "SP106",
            "SP108", "SP112",
        }
        for rule in RULES.values():
            assert rule.hint

    def test_finding_format_and_dict(self):
        fs = lint("""
            def prog(comm):
                comm.barrier()
                yield from comm.barrier()
        """)
        (f,) = fs
        assert isinstance(f, Finding)
        text = f.format()
        assert "<test>:3" in text and "SP101" in text
        d = f.to_dict()
        assert d["code"] == "SP101" and d["line"] == 3

    def test_findings_to_json_round_trip(self):
        fs = lint("""
            def prog(comm):
                comm.barrier()
                yield from comm.barrier()
        """)
        data = json.loads(findings_to_json(fs))
        assert len(data) == 1 and data[0]["code"] == "SP101"

    def test_select_and_ignore(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            import random

            def prog(comm):
                comm.bcast(random.random())
                yield from comm.barrier()
        """))
        all_codes = {f.code for f in lint_paths([str(bad)])}
        assert all_codes == {"SP101", "SP103"}
        only101 = lint_paths([str(bad)], select={"SP101"})
        assert {f.code for f in only101} == {"SP101"}
        no103 = lint_paths([str(bad)], ignore={"SP103"})
        assert {f.code for f in no103} == {"SP101"}

    @pytest.mark.parametrize("kwargs", [
        {"select": {"SP10l"}},
        {"ignore": {"SP101", "SP104"}},
    ], ids=["select", "ignore"])
    def test_unknown_code_raises(self, tmp_path, kwargs):
        # a code no rule has would otherwise check (or skip) nothing
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        with pytest.raises(ConfigError, match="unknown lint rule code"):
            lint_paths([str(good)], **kwargs)

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        fs = lint_paths([str(broken)])
        assert len(fs) == 1 and fs[0].code == "SP000"

    def test_syntax_error_column_is_one_based(self, tmp_path):
        # like every other rule: col 7 is the ':' of 'def f(:'
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        (by_path,) = lint_paths([str(broken)])
        (by_source,) = lint_source("def f(:\n")
        assert (by_path.line, by_path.col) == (1, 7)
        assert (by_source.line, by_source.col) == (1, 7)


class TestCli:
    def _write_bad(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            def prog(comm):
                comm.barrier()
                yield from comm.barrier()
        """))
        return bad

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SP101" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        assert cli_main(["lint", str(good)]) == 0

    def test_json_format(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data[0]["code"] == "SP101"

    def test_ignore_flag(self, tmp_path):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--ignore", "SP101"]) == 0

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--select", "SP10l"]) == 2
        assert "unknown lint rule code(s): SP10L" in capsys.readouterr().err
