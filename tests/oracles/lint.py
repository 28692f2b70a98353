"""Oracle for the SP102/SP104/SP105 rules of :mod:`repro.analysis`.

The per-function bodies these rules had before they moved into the
whole-program pass (:mod:`repro.analysis.protocol`): SP102 as an
``If``-scan with its own rank taint, SP104 as a by-name scan of the
directly-sent variable, SP105 as a scan for ``for`` loops over
set-valued names.  The differential test runs both over the repository
and the analysis fixtures and requires identical findings outside the
documented cases where the oracle was wrong.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.lint import (
    COLLECTIVE_METHODS,
    PATTERN_HELPERS,
    _FUNC_NODES,
    _SCOPE_NODES,
    _comm_call_op,
    _is_comm_receiver,
    _own_walk,
    _receiver_name,
)
from repro.analysis.protocol import (
    SEND_METHODS,
    _assigned_names,
    _is_split_result,
    _reads_rank,
)

Key = Tuple[int, int, str]  # (line, col, code)

#: every container mutator, list and dict methods included
_MUTATOR_METHODS = frozenset({
    "fill", "sort", "put", "resize", "itemset", "partition", "setflags",
    "setfield", "byteswap", "append", "extend", "insert", "pop", "clear",
    "update", "remove", "reverse", "setdefault", "add", "discard",
})


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
        self._sp104_scan(getattr(fn, "body", []), {})

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
                op = _comm_call_op(sub.value)
                if op is None or not (op in COLLECTIVE_METHODS
                                      or op in PATTERN_HELPERS):
                    continue
                func = sub.value.func
                if isinstance(func, ast.Attribute) \
                        and _receiver_name(func) in subcomms:
                    continue
                self._add(sub, "SP102")

    # -- SP104 ----------------------------------------------------------
    def _sp104_scan(self, body: Sequence[ast.stmt],
                    sent: Dict[str, int]) -> None:
        for stmt in body:
            if isinstance(stmt, _SCOPE_NODES):
                continue
            if isinstance(stmt, ast.If):
                self._sp104_exprs(stmt.test, sent)
                then_sent, else_sent = dict(sent), dict(sent)
                self._sp104_scan(stmt.body, then_sent)
                self._sp104_scan(stmt.orelse, else_sent)
                sent.clear()
                sent.update(else_sent)
                sent.update(then_sent)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                header = stmt.iter if isinstance(
                    stmt, (ast.For, ast.AsyncFor)) else stmt.test
                self._sp104_exprs(header, sent)
                for _pass in range(2):
                    self._sp104_scan(stmt.body, sent)
                self._sp104_scan(stmt.orelse, sent)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._sp104_exprs(item.context_expr, sent)
                self._sp104_scan(stmt.body, sent)
            elif isinstance(stmt, ast.Try):
                self._sp104_scan(stmt.body, sent)
                for handler in stmt.handlers:
                    self._sp104_scan(handler.body, sent)
                self._sp104_scan(stmt.orelse, sent)
                self._sp104_scan(stmt.finalbody, sent)
            else:
                self._sp104_simple(stmt, sent)

    def _sp104_simple(self, stmt: ast.stmt, sent: Dict[str, int]) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._sp104_target(target, stmt, sent)
        elif isinstance(stmt, ast.AugAssign):
            self._sp104_target(stmt.target, stmt, sent, aug=True)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in sent:
                    self._add(stmt, "SP104")
        self._sp104_exprs(stmt, sent)

    def _sp104_exprs(self, root: ast.AST, sent: Dict[str, int]) -> None:
        for node in _own_walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _MUTATOR_METHODS \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in sent:
                self._add(node, "SP104")
            elif func.attr in ("at", "copyto", "put", "place", "putmask") \
                    and node.args and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id in sent:
                self._add(node, "SP104")
            elif func.attr in SEND_METHODS \
                    and _is_comm_receiver(_receiver_name(func)):
                payload = node.args[0] if node.args else None
                if payload is None:
                    for kw in node.keywords:
                        if kw.arg == "obj":
                            payload = kw.value
                if isinstance(payload, ast.Name):
                    sent[payload.id] = node.lineno

    def _sp104_target(self, target, stmt, sent, aug: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._sp104_target(elt, stmt, sent, aug)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            if isinstance(base, ast.Name) and base.id in sent:
                self._add(stmt, "SP104")
        elif isinstance(target, ast.Name):
            if aug:
                if target.id in sent:
                    self._add(stmt, "SP104")
            else:
                sent.pop(target.id, None)

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
    """``(line, col, code)`` of every SP102/SP104/SP105 finding the
    per-function rules report on ``tree`` (no suppressions)."""
    return _OracleLint().run(tree)
