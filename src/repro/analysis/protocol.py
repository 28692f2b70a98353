"""Whole-program dataflow pass for SPMD rank programs.

This is the half of ``repro lint`` that follows data and control flow
(:mod:`repro.analysis.lint` holds the syntactic rules).  It builds an
index over every parsed file, resolves ``yield from helper(...)`` calls
across modules (including the stage singletons like
``EMBED_STAGE.run_dist`` and the registry's distributed entry points),
and abstract-interprets each root rank program in execution order,
with the loop/branch structure every collective sits under.  Every op
a ``Comm`` offers is a collective, so the walk checks that all ranks
post the same collectives; a scan of the hot kernels completes the
pass:

======  ================================================================
SP102   a collective on the function's own communicator posted inside a
        branch of the same function that depends on ``comm.rank`` —
        ranks disagree on the collective schedule
SP105   a ``for`` loop over a set (or a list/tuple built from one)
        inside a generator that communicates — set order is
        hash-dependent, so payload order can differ between runs.
        Dicts are not flagged: they iterate in insertion order
SP108   the other collective-count divergences: a *subcommunicator*
        collective inside a rank-dependent branch that is not its
        membership guard, a collective reached through a call under a
        rank-dependent branch, or a collective inside a loop whose trip
        count depends on ``comm.rank``
SP112   perf discipline in the committed hot kernels: ``np.add.at``
        where ``np.bincount`` is the established bit-identical fast
        path, and array allocation inside the iteration loops of
        functions on the hot-kernel list (``BENCH_kernels.json`` locks
        those paths in)
======  ================================================================

Known unsoundness (by design, to keep the shipped tree clean):

* conditionals that do not read ``comm.rank`` are treated as
  rank-consistent — data-dependent branches on allreduce results *are*
  consistent, arbitrary data may not be;
* results of symmetric collectives (``allreduce``/``bcast``/
  ``barrier`` and the pattern helpers) cleanse rank taint;
* unresolved calls are assumed to post no communication.

A payload mutated while its collective is in flight is caught at run
time by the sanitizer (:mod:`repro.analysis.sanitizer`), not here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lint import (
    PATTERN_HELPERS,
    Finding,
    LintUnit,
    _FUNC_NODES,
    _SCOPE_NODES,
    _comm_call_op,
    _is_comm_receiver,
    _own_walk,
    _receiver_name,
    iter_python_files,
)

__all__ = [
    "check_units",
    "check_registry",
    "HOT_KERNELS",
    "ProgramIndex",
]

#: collectives whose result is bit-identical on every participating
#: rank — assigning from one *cleanses* rank taint (the canonical
#: "everyone agrees on the break" idiom in dist_kway_geometric etc.)
SYMMETRIC_OPS = frozenset({
    "allreduce", "bcast", "barrier", "allgather_concat", "share_from_root",
})

#: functions whose inner loops are locked in by BENCH_kernels.json —
#: SP112 enforces the bincount/workspace discipline only here, so the
#: ``_*_reference`` twins keep their deliberately naive np.add.at
HOT_KERNELS = frozenset({
    "attractive_forces",
    "repulsive_forces_lattice",
    "repulsive_forces_bh",
    "beta_force_field",
    "lattice_stats",
    "force_directed_layout",
    "kway_geometric_assign",
})

_ALLOC_FUNCS = frozenset({
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
})

_MAX_INLINE_DEPTH = 12


# ----------------------------------------------------------------------
# program index: modules, functions, methods, instances, imports
# ----------------------------------------------------------------------

def _module_name(path: str) -> Optional[str]:
    """Dotted module name for files under a ``src`` layout (or any path
    containing a ``repro`` package directory); None for loose files."""
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src", "repro"):
        if anchor in parts:
            i = parts.index(anchor)
            mod = parts[i + 1:] if anchor == "src" else parts[i:]
            if mod:
                return ".".join(mod)
    return None


@dataclass
class FuncInfo:
    """One function/method definition anywhere in the indexed program."""

    unit: LintUnit
    module: Optional[str]
    qualname: str
    node: ast.AST                      # FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None
    locals: Dict[str, "FuncInfo"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]

    def params(self) -> List[str]:
        a = self.node.args  # type: ignore[attr-defined]
        names = [p.arg for p in a.posonlyargs + a.args]
        if self.class_name and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


class ModuleInfo:
    def __init__(self, unit: LintUnit, name: Optional[str]) -> None:
        self.unit = unit
        self.name = name
        self.functions: Dict[str, FuncInfo] = {}
        self.classes: Dict[str, Dict[str, FuncInfo]] = {}
        self.instances: Dict[str, str] = {}    # var -> class name
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}

    def _resolve_relative(self, module: Optional[str], level: int) -> Optional[str]:
        if level == 0:
            return module
        if not self.name:
            return None
        base = self.name.split(".")
        if len(base) < level:
            return None
        base = base[:-level]
        if module:
            base += module.split(".")
        return ".".join(base) if base else None


class ProgramIndex:
    """Cross-file view of every function, class, module-level instance
    and import binding in a set of parsed units."""

    def __init__(self, units: Sequence[LintUnit]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.all_funcs: List[FuncInfo] = []
        for u in units:
            self._index_unit(u)

    # -- construction ---------------------------------------------------
    def _index_unit(self, unit: LintUnit) -> None:
        mi = ModuleInfo(unit, _module_name(unit.path))
        self.by_path[unit.path] = mi
        if mi.name:
            self.modules[mi.name] = mi
        for stmt in unit.tree.body:
            self._index_stmt(mi, stmt)

    def _index_stmt(self, mi: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, _FUNC_NODES):
            mi.functions[stmt.name] = self._add_func(mi, stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            mi.classes[stmt.name] = self._add_class(mi, stmt, stmt.name)
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            fn = stmt.value.func
            cls = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None)
            if cls:
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        mi.instances[t.id] = cls
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                mi.imports[bound] = (alias.name if alias.asname
                                     else alias.name.split(".")[0], None)
        elif isinstance(stmt, ast.ImportFrom):
            target = mi._resolve_relative(stmt.module, stmt.level)
            if target is None:
                return
            for alias in stmt.names:
                mi.imports[alias.asname or alias.name] = (target, alias.name)
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            # TYPE_CHECKING blocks, optional imports, module-level loops
            for sub in stmt.body + getattr(stmt, "orelse", []):
                self._index_stmt(mi, sub)

    def _add_class(self, mi: ModuleInfo, node: ast.ClassDef,
                   qualname: str) -> Dict[str, FuncInfo]:
        """Index the methods of a class, and of classes nested in it."""
        methods: Dict[str, FuncInfo] = {}
        for sub in node.body:
            if isinstance(sub, _FUNC_NODES):
                methods[sub.name] = self._add_func(
                    mi, sub, f"{qualname}.{sub.name}", node.name)
            elif isinstance(sub, ast.ClassDef):
                self._add_class(mi, sub, f"{qualname}.{sub.name}")
        return methods

    def _add_func(self, mi: ModuleInfo, node: ast.AST, qualname: str,
                  class_name: Optional[str]) -> FuncInfo:
        fi = FuncInfo(mi.unit, mi.name, qualname, node, class_name)
        self.all_funcs.append(fi)
        self._add_nested(mi, fi)
        return fi

    def _add_nested(self, mi: ModuleInfo, parent: FuncInfo) -> None:
        stack = list(ast.iter_child_nodes(parent.node))
        while stack:
            cur = stack.pop()
            if isinstance(cur, _FUNC_NODES):
                fi = FuncInfo(mi.unit, mi.name,
                              f"{parent.qualname}.{cur.name}", cur,
                              parent.class_name)
                parent.locals[cur.name] = fi
                self.all_funcs.append(fi)
                self._add_nested(mi, fi)
            elif isinstance(cur, ast.ClassDef):
                self._add_class(mi, cur, f"{parent.qualname}.{cur.name}")
            elif not isinstance(cur, ast.Lambda):
                stack.extend(ast.iter_child_nodes(cur))

    # -- lookup ---------------------------------------------------------
    def _function_in(self, mi: ModuleInfo, name: str,
                     hops: int = 2) -> Optional[FuncInfo]:
        if name in mi.functions:
            return mi.functions[name]
        if hops and name in mi.imports:
            mod, orig = mi.imports[name]
            tmi = self.modules.get(mod)
            if tmi is not None and orig is not None:
                return self._function_in(tmi, orig, hops - 1)
        return None

    def _instance_class(self, mi: ModuleInfo, name: str,
                        hops: int = 2) -> Optional[Tuple[ModuleInfo, str]]:
        if name in mi.instances:
            return mi, mi.instances[name]
        if hops and name in mi.imports:
            mod, orig = mi.imports[name]
            tmi = self.modules.get(mod)
            if tmi is not None and orig is not None:
                return self._instance_class(tmi, orig, hops - 1)
        return None

    def _class_method(self, mi: ModuleInfo, cls: str, attr: str,
                      hops: int = 2) -> Optional[FuncInfo]:
        if cls in mi.classes:
            return mi.classes[cls].get(attr)
        if hops and cls in mi.imports:
            mod, orig = mi.imports[cls]
            tmi = self.modules.get(mod)
            if tmi is not None and orig is not None:
                return self._class_method(tmi, orig, attr, hops - 1)
        return None

    def resolve_call(self, call: ast.Call, fi: FuncInfo) -> Optional[FuncInfo]:
        """Resolve the callee of ``yield from <call>`` to an indexed
        function, or None (opaque call)."""
        mi = self.by_path[fi.unit.path]
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in fi.locals:
                return fi.locals[func.id]
            return self._function_in(mi, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base in ("self", "cls") and fi.class_name:
                return self._class_method(mi, fi.class_name, func.attr)
            inst = self._instance_class(mi, base)
            if inst is not None:
                return self._class_method(inst[0], inst[1], func.attr)
            if base in mi.imports and mi.imports[base][1] is None:
                tmi = self.modules.get(mi.imports[base][0])
                if tmi is not None:
                    return tmi.functions.get(func.attr)
        return None

    def find_function(self, path: str, name: str,
                      lineno: Optional[int] = None) -> Optional[FuncInfo]:
        """Locate a function by file + name (+ def line to disambiguate)."""
        best = None
        for fi in self.all_funcs:
            if fi.unit.path != path or fi.name != name:
                continue
            if lineno is None or fi.node.lineno == lineno:  # type: ignore[attr-defined]
                return fi
            best = best or fi
        return best

    def roots(self) -> List[FuncInfo]:
        """Generator functions no *other* function in the index drives
        with ``yield from`` — the rank programs handed to run_spmd.  A
        self-recursive program is still a root."""
        called: Set[int] = set()
        for fi in self.all_funcs:
            for node in _own_walk(fi.node):
                if isinstance(node, ast.YieldFrom) \
                        and isinstance(node.value, ast.Call) \
                        and _comm_call_op(node.value) is None:
                    target = self.resolve_call(node.value, fi)
                    if target is not None and target is not fi:
                        called.add(id(target))
        return [fi for fi in self.all_funcs
                if id(fi) not in called and fi.name not in PATTERN_HELPERS
                and _is_generator(fi.node)]


# ----------------------------------------------------------------------
# per-function environment: taint, subcomms, unordered names
# ----------------------------------------------------------------------

def _is_generator(fn: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _own_walk(fn))


def _reads_rank(expr: ast.AST, tainted: Set[str]) -> bool:
    """Does ``expr`` read ``comm.rank``/``comm.world_rank`` or a
    variable derived from one?"""
    for node in ast.walk(expr):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("rank", "world_rank")
                and _is_comm_receiver(_receiver_name(node))):
            return True
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in tainted:
            return True
    return False


def _is_split_result(value: ast.AST) -> bool:
    """Is ``value`` ``yield from <comm>.split(...)`` (a sub-communicator)?"""
    if isinstance(value, ast.YieldFrom):
        value = value.value
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "split"
            and _is_comm_receiver(_receiver_name(value.func)))


def _assigned_names(target: ast.AST) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


@dataclass
class FuncEnv:
    tainted: Set[str] = field(default_factory=set)
    subcomms: Set[str] = field(default_factory=set)
    unordered: Set[str] = field(default_factory=set)
    #: a generator that posts comm ops itself (SP105's scope)
    communicates: bool = False


def _assign_parts(node: ast.AST):
    if isinstance(node, ast.Assign):
        return node.targets, node.value
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target], node.value
    if isinstance(node, ast.NamedExpr):
        return [node.target], node.value
    return None, None


def _symmetric_yield(value: ast.AST) -> bool:
    """``yield from comm.allreduce(...)`` and friends: the result is
    identical on every rank, so it cleanses taint."""
    if not isinstance(value, ast.YieldFrom):
        return False
    call = value.value
    if not isinstance(call, ast.Call):
        return False
    op = _comm_call_op(call)
    return op is not None and op in SYMMETRIC_OPS


def _is_unordered_expr(expr: ast.AST, unordered: Set[str]) -> bool:
    """Does ``expr`` produce hash-ordered content (a set, or a
    list/tuple built from one)?  ``sorted(...)`` cleanses."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in unordered
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        fn = expr.func.id
        if fn in ("set", "frozenset"):
            return True
        if fn == "sorted":
            return False
        if fn in ("list", "tuple", "iter", "enumerate", "reversed") \
                and expr.args:
            return _is_unordered_expr(expr.args[0], unordered)
    if isinstance(expr, ast.BinOp):
        return (_is_unordered_expr(expr.left, unordered)
                or _is_unordered_expr(expr.right, unordered))
    return False


def _func_env(fn: ast.AST) -> FuncEnv:
    env = FuncEnv()
    own = [n for n in _own_walk(fn)]
    env.communicates = _is_generator(fn) and any(
        isinstance(n, ast.Call) and _comm_call_op(n) is not None
        for n in own)
    cleansed: Set[str] = set()
    for _round in range(3):  # cheap fixpoint: taint chains are short
        before = (len(env.tainted), len(env.subcomms), len(env.unordered))
        for node in own:
            targets, value = _assign_parts(node)
            if value is not None:
                names = [n for t in targets for n in _assigned_names(t)]
                if _is_split_result(value) or (
                        isinstance(value, ast.Name)
                        and value.id in env.subcomms):
                    env.subcomms.update(names)
                if _symmetric_yield(value):
                    cleansed.update(names)
                elif _reads_rank(value, env.tainted):
                    env.tainted.update(names)
                if _is_unordered_expr(value, env.unordered):
                    env.unordered.update(names)
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_unordered_expr(node.iter, env.unordered):
                env.unordered.update(_assigned_names(node.target))
        if (len(env.tainted), len(env.subcomms),
                len(env.unordered)) == before:
            break
    env.tainted -= cleansed
    # a subcomm handle is rank-dependent only in its None-ness (the
    # membership guards handle that); reads of 'sub.size' etc. are
    # identical on every member rank, so the *name* is not taint
    env.tainted -= env.subcomms
    return env


def _membership_guard(test: ast.AST,
                      subcomms: Set[str]) -> Tuple[Optional[str], bool]:
    """If ``test`` is a pure membership check on a subcommunicator name
    ('sub is not None', 'sub is None', 'sub', 'not sub'), return
    (name, guards_then_arm)."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.left, ast.Name) \
            and test.left.id in subcomms \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id, True
        if isinstance(test.ops[0], ast.Is):
            return test.left.id, False
    if isinstance(test, ast.Name) and test.id in subcomms:
        return test.id, True
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
            and isinstance(test.operand, ast.Name) \
            and test.operand.id in subcomms:
        return test.operand.id, False
    return None, False


# ----------------------------------------------------------------------
# whole-program traversal
# ----------------------------------------------------------------------

class _Cond:
    """One active rank-dependent branch or loop during traversal."""

    __slots__ = ("frame", "rank_dep", "guarded", "is_loop")

    def __init__(self, frame, rank_dep: bool, guarded: Set[Tuple[int, str]],
                 is_loop: bool) -> None:
        self.frame = frame
        self.rank_dep = rank_dep
        self.guarded = guarded
        self.is_loop = is_loop


class _Frame:
    """One inlined call during traversal."""

    __slots__ = ("fi", "env", "parent", "callsite", "sub_params")

    def __init__(self, fi: FuncInfo, env: FuncEnv, parent, callsite,
                 sub_params: Set[str]) -> None:
        self.fi = fi
        self.env = env
        self.parent = parent
        self.callsite = callsite
        self.sub_params = sub_params


class _ProtoChecker:
    def __init__(self, index: ProgramIndex,
                 add: Callable[[str, int, int, str, str], None]) -> None:
        self.index = index
        self.add = add
        self._envs: Dict[int, FuncEnv] = {}

    def env_of(self, fi: FuncInfo) -> FuncEnv:
        env = self._envs.get(id(fi))
        if env is None:
            env = self._envs[id(fi)] = _func_env(fi.node)
        return env

    def check_root(self, fi: FuncInfo) -> None:
        _RootRun(self).extract(fi)


class _RootRun:
    """Execution-order walk + checks for one root rank program."""

    def __init__(self, checker: _ProtoChecker) -> None:
        self.checker = checker
        self.index = checker.index
        self.conds: List[_Cond] = []
        self.stack: List[int] = []       # FuncInfo ids, recursion guard
        self._sp108_seen: Set[Tuple[int, str, int]] = set()

    # -- plumbing -------------------------------------------------------
    def _add(self, node: ast.AST, path: str, code: str, message: str) -> None:
        self.checker.add(path, getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0) + 1, code, message)

    def extract(self, fi: FuncInfo) -> None:
        frame = _Frame(fi, self.checker.env_of(fi), None, None, set())
        self.stack.append(id(fi))
        self._walk_body(fi.node.body, frame)  # type: ignore[attr-defined]
        self.stack.pop()

    # -- statement walk (execution order) -------------------------------
    def _walk_body(self, body: Sequence[ast.stmt], frame: _Frame) -> None:
        for stmt in body:
            self._walk_stmt(stmt, frame)

    def _walk_stmt(self, stmt: ast.stmt, frame: _Frame) -> None:
        if isinstance(stmt, _SCOPE_NODES):
            return
        if isinstance(stmt, ast.If):
            self._scan_exprs(stmt.test, frame)
            guard, guards_then = _membership_guard(
                stmt.test, frame.env.subcomms | frame.sub_params)
            rank_dep = _reads_rank(stmt.test, frame.env.tainted)
            key = (id(frame), guard) if guard else None
            then_guard = {key} if key and guards_then else set()
            else_guard = {key} if key and not guards_then else set()
            self.conds.append(_Cond(frame, rank_dep or guard is not None,
                                    then_guard, False))
            self._walk_body(stmt.body, frame)
            self.conds.pop()
            if stmt.orelse:
                self.conds.append(_Cond(frame, rank_dep or guard is not None,
                                        else_guard, False))
                self._walk_body(stmt.orelse, frame)
                self.conds.pop()
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_exprs(stmt.iter, frame)
            if frame.env.communicates \
                    and _is_unordered_expr(stmt.iter, frame.env.unordered):
                self._add(stmt.iter, frame.fi.unit.path, "SP105",
                          "iteration over a set has hash-dependent order "
                          "inside a communicating rank program")
            rank_dep = _reads_rank(stmt.iter, frame.env.tainted)
            self.conds.append(_Cond(frame, rank_dep, set(), True))
            self._walk_body(stmt.body, frame)
            self.conds.pop()
            self._walk_body(stmt.orelse, frame)
        elif isinstance(stmt, ast.While):
            self._scan_exprs(stmt.test, frame)
            guard, guards_then = _membership_guard(
                stmt.test, frame.env.subcomms | frame.sub_params)
            rank_dep = _reads_rank(stmt.test, frame.env.tainted)
            guarded = {(id(frame), guard)} if guard and guards_then else set()
            self.conds.append(_Cond(frame, rank_dep or guard is not None,
                                    guarded, True))
            self._walk_body(stmt.body, frame)
            self.conds.pop()
            self._walk_body(stmt.orelse, frame)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, frame)
            for handler in stmt.handlers:
                self._walk_body(handler.body, frame)
            self._walk_body(stmt.orelse, frame)
            self._walk_body(stmt.finalbody, frame)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_exprs(item.context_expr, frame)
            self._walk_body(stmt.body, frame)
        else:
            self._scan_exprs(stmt, frame)

    def _scan_exprs(self, root: ast.AST, frame: _Frame) -> None:
        for node in _own_walk(root):
            if isinstance(node, ast.YieldFrom) \
                    and isinstance(node.value, ast.Call):
                self._handle_call(node, frame)

    # -- one yield-from call --------------------------------------------
    def _handle_call(self, yf: ast.YieldFrom, frame: _Frame) -> None:
        call = yf.value
        op = _comm_call_op(call)
        if op is not None:
            self._check_collective(yf, op, frame)
            return
        callee = self.index.resolve_call(call, frame.fi)
        if callee is None or id(callee) in self.stack \
                or len(self.stack) > _MAX_INLINE_DEPTH:
            return
        sub_params: Set[str] = set()
        comm_arg: Optional[str] = None
        params = callee.params()
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and i < len(params) and (
                    _is_comm_receiver(arg.id)
                    or arg.id in frame.env.subcomms
                    or arg.id in frame.sub_params):
                comm_arg = arg.id
                if arg.id in frame.env.subcomms or arg.id in frame.sub_params:
                    sub_params.add(params[i])
                # propagate membership guards across the call boundary
                new = _Frame(callee, self.checker.env_of(callee), frame,
                             call, sub_params)
                for cond in self.conds:
                    if (id(frame), comm_arg) in cond.guarded:
                        cond.guarded.add((id(new), params[i]))
                break
        else:
            new = _Frame(callee, self.checker.env_of(callee), frame,
                         call, sub_params)
        self.stack.append(id(callee))
        self._walk_body(callee.node.body, new)  # type: ignore[attr-defined]
        self.stack.pop()
        # drop guard keys that referenced the popped frame
        for cond in self.conds:
            cond.guarded = {k for k in cond.guarded if k[0] != id(new)}

    def _op_receiver(self, call: ast.Call) -> Optional[str]:
        if isinstance(call.func, ast.Attribute):
            return _receiver_name(call.func)
        # pattern helper: the communicator is the first argument
        if call.args and isinstance(call.args[0], ast.Name):
            return call.args[0].id
        return None

    # -- SP102 / SP108 --------------------------------------------------
    def _check_collective(self, yf: ast.YieldFrom, op: str, frame: _Frame) -> None:
        """SP102 for a collective on this function's own communicator
        under a rank branch of this function; SP108 for every other
        way the collective count can diverge."""
        call = yf.value
        receiver = self._op_receiver(call)
        is_sub = receiver is not None and (
            receiver in frame.env.subcomms or receiver in frame.sub_params)
        for cond in self.conds:
            if not cond.rank_dep:
                continue
            if receiver is not None and (id(frame), receiver) in cond.guarded:
                continue
            if cond.frame is frame:
                if cond.is_loop:
                    site, path = call, frame.fi.unit.path
                    msg = (f"collective '{op}' inside a loop whose trip "
                           "count depends on comm.rank — ranks post "
                           "different collective counts")
                elif is_sub:
                    site, path = call, frame.fi.unit.path
                    msg = (f"collective '{op}' on subcommunicator "
                           f"'{receiver}' inside a rank-dependent branch "
                           "that is not its membership guard — member "
                           "ranks disagree on the collective count")
                else:
                    self._add(yf, frame.fi.unit.path, "SP102",
                              f"collective '{op}' posted inside a "
                              "rank-dependent branch — ranks will disagree "
                              "on the collective schedule")
                    continue
            else:
                site, path = self._callsite_under(cond, frame)
                what = "loop" if cond.is_loop else "branch"
                msg = (f"collective '{op}' reached through this call "
                       f"inside a rank-dependent {what} — ranks will "
                       "disagree on the collective count")
            key = (id(cond), path, getattr(site, "lineno", 0))
            if key in self._sp108_seen:
                continue
            self._sp108_seen.add(key)
            self._add(site, path, "SP108", msg)

    def _callsite_under(self, cond: _Cond, frame: _Frame):
        """The call made inside cond's frame that leads to ``frame``."""
        f = frame
        while f.parent is not None and f.parent is not cond.frame:
            f = f.parent
        if f.parent is cond.frame and f.callsite is not None:
            return f.callsite, cond.frame.fi.unit.path
        return f.callsite or f.fi.node, f.fi.unit.path


# ----------------------------------------------------------------------
# SP112: perf discipline in the committed hot kernels (per file)
# ----------------------------------------------------------------------

def _sp112_unit(unit: LintUnit, add) -> None:
    for fn in ast.walk(unit.tree):
        if not isinstance(fn, _FUNC_NODES) or fn.name not in HOT_KERNELS:
            continue
        for node in _own_walk(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "at" \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "add":
                add(unit.path, node.lineno, node.col_offset + 1, "SP112",
                    f"np.add.at in hot kernel '{fn.name}' — np.bincount "
                    "is the committed bit-identical fast path "
                    "(BENCH_kernels.json)")
        _alloc_scan(fn, unit, add)


def _alloc_scan(fn: ast.AST, unit: LintUnit, add) -> None:
    def scan(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            loop_now = in_loop or isinstance(
                child, (ast.For, ast.AsyncFor, ast.While))
            if in_loop and isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr in _ALLOC_FUNCS:
                add(unit.path, child.lineno, child.col_offset + 1, "SP112",
                    f"array allocated inside the iteration loop of hot "
                    f"kernel '{fn.name}' — hoist the workspace out of "
                    "the loop (BENCH_kernels.json locks this path in)")
            scan(child, loop_now)
    scan(fn, False)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def _make_adder(units: Sequence[LintUnit], findings: List[Finding]):
    by_path = {u.path: u for u in units}
    def add(path: str, line: int, col: int, code: str, message: str) -> None:
        unit = by_path.get(path)
        if unit is not None and unit.suppressions.is_suppressed(line, code):
            return
        f = Finding(path, line, col, code, message)
        if f not in findings:
            findings.append(f)
    return add


def check_units(units: Sequence[LintUnit]) -> List[Finding]:
    """Run the whole-program protocol rules over parsed units.

    Findings are already suppression-filtered (``# repro: lint-ok``)
    and unsorted — the caller merges them into per-file order.
    """
    index = ProgramIndex(units)
    findings: List[Finding] = []
    add = _make_adder(units, findings)
    checker = _ProtoChecker(index, add)
    for fi in index.roots():
        checker.check_root(fi)
    # a generator no root run walked (none gave it an env) sits on a
    # call cycle or past the inlining depth: check it as an entry point
    for fi in index.all_funcs:
        if id(fi) not in checker._envs and _is_generator(fi.node):
            checker.check_root(fi)
    for unit in units:
        _sp112_unit(unit, add)
    return findings


def check_registry() -> Tuple[List[Finding], List[str]]:
    """Model-check every registered MethodSpec's distributed entry
    point against the full ``repro`` package tree.

    Returns ``(findings, entry point names checked)``.
    """
    import inspect

    from ..core.methods import distributed_entry_points

    pkg_root = Path(__file__).resolve().parents[1]
    units = []
    for p in iter_python_files([pkg_root]):
        try:
            units.append(LintUnit.parse(p.read_text(encoding="utf-8"), str(p)))
        except SyntaxError:
            continue
    index = ProgramIndex(units)
    findings: List[Finding] = []
    add = _make_adder(units, findings)
    checker = _ProtoChecker(index, add)
    resolved = {str(Path(u.path).resolve()): u.path for u in units}
    names: List[str] = []
    for method, fn in distributed_entry_points():
        try:
            src = inspect.getsourcefile(fn)
            lineno = fn.__code__.co_firstlineno
        except (TypeError, AttributeError):
            continue
        if src is None:
            continue
        upath = resolved.get(str(Path(src).resolve()))
        fi = index.find_function(upath, fn.__name__, lineno) if upath else None
        if fi is None and upath is not None:
            fi = index.find_function(upath, fn.__name__)
        if fi is None:
            continue
        names.append(method)
        checker.check_root(fi)
    return findings, names

