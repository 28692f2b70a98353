"""Oracle for the SP102/SP105 rules of :mod:`repro.analysis`.

The per-function bodies these rules had before they moved into the
whole-program pass (:mod:`repro.analysis.protocol`): SP102 as an
``If``-scan with its own rank taint, SP105 as a scan for ``for`` loops
over set-valued names.  The differential test runs both over the
repository and the analysis fixtures and requires identical findings
outside the documented cases where the oracle was wrong.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.analysis.lint import (
    _FUNC_NODES,
    _comm_call_op,
    _own_walk,
    _receiver_name,
)
from repro.analysis.protocol import (
    _assigned_names,
    _is_split_result,
    _reads_rank,
)

Key = Tuple[int, int, str]  # (line, col, code)


def _is_set_expr(expr: ast.AST, setish: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("set", "frozenset"):
        return True
    if isinstance(expr, ast.Name) and expr.id in setish:
        return True
    return False


class _OracleLint:
    def __init__(self) -> None:
        self.found: Set[Key] = set()

    def _add(self, node: ast.AST, code: str) -> None:
        self.found.add((getattr(node, "lineno", 1),
                        getattr(node, "col_offset", 0) + 1, code))

    def run(self, tree: ast.AST) -> Set[Key]:
        for node in ast.walk(tree):
            if isinstance(node, _FUNC_NODES):
                self._check_function(node)
        return self.found

    def _check_function(self, fn: ast.AST) -> None:
        own = list(_own_walk(fn))
        is_generator = any(isinstance(n, (ast.Yield, ast.YieldFrom))
                           for n in own)
        communicates = any(
            isinstance(n, ast.Call) and _comm_call_op(n) is not None
            for n in own
        )
        if is_generator:
            self._sp102(own)
        if is_generator and communicates:
            self._sp105(own)

    # -- SP102 ----------------------------------------------------------
    def _sp102(self, own: List[ast.AST]) -> None:
        tainted: Set[str] = set()
        subcomms: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                                   ast.NamedExpr)):
                value, targets = node.value, [node.target]
            else:
                continue
            if value is None:
                continue
            if _is_split_result(value):
                for t in targets:
                    subcomms.update(_assigned_names(t))
            if _reads_rank(value, tainted):
                for t in targets:
                    tainted.update(_assigned_names(t))
        for node in own:
            if not isinstance(node, ast.If) \
                    or not _reads_rank(node.test, tainted):
                continue
            for sub in _own_walk(node):
                if sub is node.test or not isinstance(sub, ast.YieldFrom) \
                        or not isinstance(sub.value, ast.Call):
                    continue
                if _comm_call_op(sub.value) is None:
                    continue
                func = sub.value.func
                if isinstance(func, ast.Attribute) \
                        and _receiver_name(func) in subcomms:
                    continue
                self._add(sub, "SP102")

    # -- SP105 ----------------------------------------------------------
    def _sp105(self, own: List[ast.AST]) -> None:
        setish: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign) \
                    and _is_set_expr(node.value, setish):
                for t in node.targets:
                    setish.update(_assigned_names(t))
        for node in own:
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_set_expr(node.iter, setish):
                self._add(node.iter, "SP105")


def oracle_findings(tree: ast.AST) -> Set[Key]:
    """``(line, col, code)`` of every SP102/SP105 finding the
    per-function rules report on ``tree`` (no suppressions)."""
    return _OracleLint().run(tree)
