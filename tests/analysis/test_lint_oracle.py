"""Differential test: SP102/SP105 from the whole-program pass
against their former per-function implementation (tests/oracles/lint.py).

Both run over every ``.py`` file of the repository and over every
fixture of the analysis tests, with ``# repro: lint-ok`` suppressions
disabled so that suppressed findings are compared too.  They must agree
on ``(path, line, col, code)`` except on the fixtures in
``ORACLE_WRONG``, where the per-function rule was wrong and the fixture
pins the corrected behaviour.
"""

import ast
import textwrap
from pathlib import Path

from repro.analysis.lint import LintUnit, Suppressions, iter_python_files
from repro.analysis.protocol import check_units
from tests.oracles.lint import oracle_findings

REPO = Path(__file__).resolve().parents[2]
CODES = {"SP102", "SP105"}

#: fixtures (module::Class.test) on which the oracle is known wrong.
#: The reverse case, where the whole-program pass was wrong and the
#: oracle right, needs no entry: its fixture must agree with the oracle.
ORACLE_WRONG = {
    # SP102 on a branch over an allreduce result every rank agrees on
    "test_lint.py::TestSP102RankDependentCollective."
    "test_silent_on_symmetric_collective_result",
    # no SP105 on `for b in list(s)`
    "test_lint.py::TestSP105SetOrderPayload.test_fires_on_list_built_from_set",
}


def _unit(source, path):
    # no suppressions: the comparison covers suppressed findings too
    return LintUnit(path, source, ast.parse(source, filename=path),
                    Suppressions(""))


def _new(units):
    return {(f.path, f.line, f.col, f.code) for f in check_units(units)
            if f.code in CODES}


def _old(units):
    return {(u.path,) + key for u in units for key in oracle_findings(u.tree)}


def _fixtures():
    """Every dedented string in the analysis tests that parses as a
    module defining a function, keyed by its enclosing test."""
    out = {}
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            prefix = f"{cls.name}." if isinstance(cls, ast.ClassDef) else ""
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.Assign)):
                    continue
                name = fn.name if isinstance(fn, ast.FunctionDef) \
                    else "<attribute>"
                for i, node in enumerate(ast.walk(fn)):
                    if not (isinstance(node, ast.Constant)
                            and isinstance(node.value, str)
                            and "def " in node.value):
                        continue
                    src = textwrap.dedent(node.value)
                    try:
                        ast.parse(src)
                    except SyntaxError:
                        continue
                    out[f"{path.name}::{prefix}{name}#{i}"] = src
    return out


def test_repository_matches_oracle():
    units = [_unit(p.read_text(encoding="utf-8"), str(p))
             for p in iter_python_files([REPO / d for d in
                                         ("src", "tests", "benchmarks",
                                          "examples")])]
    old, new = _old(units), _new(units)
    assert old, "the oracle found nothing: the comparison is vacuous"
    assert sorted(new - old) == [] and sorted(old - new) == []


def test_fixtures_match_oracle_except_known_cases():
    fixtures = _fixtures()
    assert len(fixtures) > 50, "fixture extraction found too few sources"
    differ = set()
    for key, src in fixtures.items():
        unit = _unit(src, "<fixture>")
        if _old([unit]) != _new([unit]):
            differ.add(key.split("#")[0])
    assert differ == ORACLE_WRONG

