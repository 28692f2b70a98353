"""Static AST lint for SPMD rank programs (``repro lint``).

The paper's algorithms live or die on disciplined SPMD communication:
every rank must post the same collectives in the same order, senders
must not mutate buffers they have already posted (the zero-copy
read-only delivery contract), and all randomness must
flow through seeded per-rank streams so runs are reproducible.  The
checks below are the *static* half of the correctness analyzer — the
dynamic half is the engine's sanitizer mode
(:mod:`repro.analysis.sanitizer`).  They encode the bug classes MPI
verification tools such as MUST and ThreadSanitizer catch at runtime,
tuned to this codebase's rank-program idiom (generator rank programs
driven by :func:`repro.parallel.engine.run_spmd`).

Rules
-----
======  ================================================================
SP099   a ``# repro: lint-ok[CODE]`` suppression whose rule no longer
        fires on the suppressed line — stale suppressions hide future
        regressions, so they must be removed when the code is fixed
SP101   a ``Comm`` communication method (``send``/``recv``/
        ``allreduce``/...) or a :mod:`repro.parallel.patterns` helper
        called without ``yield from`` — the call builds a generator that
        is never driven, so the operation silently does not happen
SP102   a collective posted inside a ``comm.rank``-dependent branch —
        ranks disagree on the collective schedule (deadlock or
        mismatched-collective hazard)
SP103   global RNG state (``np.random.*`` module-level functions,
        stdlib ``random.*``) instead of seeded :mod:`repro.rng` streams
        — breaks run-to-run determinism and rank independence
SP104   a local variable mutated after being passed to ``comm.send`` /
        ``comm.sendrecv`` — delivery is zero-copy, so the receiver
        aliases the sender's memory until delivery
SP105   iteration over a ``set`` inside a communicating rank program —
        set order is hash-dependent, so payload order can differ
        between runs (sort first, e.g. ``for x in sorted(s)``)
SP106   an ``except`` clause catches :class:`~repro.errors.CommError` /
        :class:`~repro.errors.ReproError` and silently swallows it —
        the handler neither re-raises, nor raises a converted error,
        nor uses the bound exception, so a typed fault turns into a
        silent wrong answer
======  ================================================================

The whole-program protocol rules SP107–SP112 live in
:mod:`repro.analysis.protocol` and run by default from
:func:`lint_source` / :func:`lint_paths` (disable with
``protocol=False`` / ``repro lint --no-protocol``).

Dict iteration is *not* flagged: Python dicts preserve insertion order,
and the engine builds inboxes (e.g. ``comm.exchange`` results) in
deterministic rank order.

Suppression
-----------
Append ``# repro: lint-ok[SP104]`` (codes comma-separated, or a bare
``# repro: lint-ok`` for all codes) to the offending line, or put the
comment alone on the line directly above it.  A suppression whose rule
does not fire is itself reported as SP099.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "Suppressions",
    "LintUnit",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "findings_to_json",
    "findings_to_sarif",
]


# ----------------------------------------------------------------------
# rule table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, one-line summary, fix hint."""

    code: str
    summary: str
    hint: str


RULES: Dict[str, Rule] = {
    r.code: r
    for r in (
        Rule(
            "SP000",
            "file could not be parsed",
            "fix the syntax error; the file was not analysed",
        ),
        Rule(
            "SP099",
            "suppression comment no longer matches any finding",
            "remove the stale '# repro: lint-ok[...]' comment (it hides "
            "nothing today and would hide a regression tomorrow)",
        ),
        Rule(
            "SP101",
            "communication method called without 'yield from'",
            "drive it: 'result = yield from comm.<op>(...)'",
        ),
        Rule(
            "SP102",
            "collective posted inside a rank-dependent branch",
            "post the collective unconditionally on every rank of the "
            "communicator; compute rank-dependent payloads, not "
            "rank-dependent schedules",
        ),
        Rule(
            "SP103",
            "global RNG state used instead of a seeded stream",
            "use comm.rng inside rank programs, or repro.rng "
            "(default_rng/derive_seed) elsewhere",
        ),
        Rule(
            "SP104",
            "buffer mutated after being posted to a send",
            "send `obj.copy()`, or delay the mutation until after the "
            "matching receive",
        ),
        Rule(
            "SP105",
            "iteration over a set feeds communication",
            "iterate 'sorted(the_set)' so payload order is deterministic",
        ),
        Rule(
            "SP106",
            "typed fault caught and silently swallowed",
            "re-raise, raise a converted error, or bind the exception "
            "('except CommError as exc:') and record it — swallowed "
            "faults become silent wrong answers",
        ),
        Rule(
            "SP107",
            "point-to-point op has no matching counterpart",
            "pair every recv with a send posting the same tag (and vice "
            "versa) somewhere in the same rank program",
        ),
        Rule(
            "SP108",
            "collective count diverges across ranks",
            "issue the same collectives the same number of times on every "
            "rank of the communicator; guard subcommunicator collectives "
            "only with the membership test 'if sub is not None:'",
        ),
        Rule(
            "SP109",
            "message tag/peer depends on unordered iteration",
            "derive tags and peers from sorted() or indexed order, never "
            "from set iteration order",
        ),
        Rule(
            "SP110",
            "blocking recv posted before any matching send",
            "post the matching send before the unconditional recv (or use "
            "sendrecv) — every rank blocks on the recv, so nobody reaches "
            "the send",
        ),
        Rule(
            "SP111",
            "posted payload aliases a buffer mutated before delivery",
            "send `obj.copy()`, or delay the mutation past the phase "
            "boundary — the receiver aliases the sender's memory, views "
            "included",
        ),
        Rule(
            "SP112",
            "hot-kernel perf discipline violated",
            "use np.bincount instead of np.add.at and hoist array "
            "allocations out of the iteration loop (the bit-identical "
            "fast paths are locked in by BENCH_kernels.json)",
        ),
    )
}

#: exception names whose silent swallowing SP106 flags (the typed fault
#: taxonomy of repro.errors — the base classes plus the CommError family)
SWALLOWABLE_ERRORS = frozenset({
    "ReproError", "CommError", "DeadlockError", "RankFailure",
    "BudgetExceededError",
})

#: every Comm method that must be driven with ``yield from``
COMM_METHODS = frozenset({
    "send", "isend", "recv", "sendrecv", "barrier", "bcast", "reduce",
    "allreduce", "gather", "allgather", "scatter", "alltoall", "scan",
    "exchange", "split",
})

#: Comm methods that are collectives (every rank must participate)
COLLECTIVE_METHODS = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "exchange", "split",
})

#: generator helpers from repro.parallel.patterns (collective inside)
PATTERN_HELPERS = frozenset({
    "allgather_concat", "share_from_root", "gather_to_root",
})

#: point-to-point sends whose payload the sender must not mutate
SEND_METHODS = frozenset({"send", "isend", "sendrecv"})

#: receiver names treated as communicator handles
_COMM_NAMES = frozenset({"comm", "active", "sub", "world"})

#: np.random attributes that are *not* global-state (seeded constructors)
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: stdlib random attributes that are seeded instances, not global state
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: container methods that mutate their receiver in place
_MUTATOR_METHODS = frozenset({
    "fill", "sort", "put", "resize", "itemset", "partition", "setflags",
    "setfield", "byteswap", "append", "extend", "insert", "pop", "clear",
    "update", "remove", "reverse", "setdefault", "add", "discard",
})

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok(?:\[([A-Za-z0-9_,\s]+)\])?"
)


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at file:line with a fix hint."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def hint(self) -> str:
        return RULES[self.code].hint

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"{self.message} (fix: {self.hint})")

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


def findings_to_json(findings: Sequence[Finding]) -> str:
    """Serialise findings for ``repro lint --format json`` / CI.

    The shape of this output is frozen: existing CI consumers parse it,
    so new formats (SARIF) get their own serialiser instead of new keys.
    """
    return json.dumps([f.to_dict() for f in findings], indent=2)


def findings_to_sarif(findings: Sequence[Finding]) -> str:
    """Serialise findings as SARIF 2.1.0 for GitHub code scanning."""
    rules = [
        {
            "id": rule.code,
            "shortDescription": {"text": rule.summary},
            "help": {"text": rule.hint},
            "defaultConfiguration": {
                "level": "note" if rule.code == "SP099" else "error",
            },
        }
        for rule in (RULES[c] for c in sorted(RULES))
    ]
    index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = [
        {
            "ruleId": f.code,
            "ruleIndex": index[f.code],
            "level": "note" if f.code == "SP099" else "error",
            "message": {"text": f"{f.message} (fix: {f.hint})"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": max(f.col, 1),
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNC_NODES + (ast.Lambda, ast.ClassDef)


def _attach_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_lint_parent", None)


def _own_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested scopes
    (functions, lambdas, classes)."""
    yield node
    stack = list(ast.iter_child_nodes(node))
    while stack:
        cur = stack.pop()
        if isinstance(cur, _SCOPE_NODES):
            continue
        yield cur
        stack.extend(ast.iter_child_nodes(cur))


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    """Name of the object a method is called on (``x.op()`` -> ``x``,
    ``a.b.op()`` -> ``b``)."""
    base = func.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _is_comm_receiver(name: Optional[str]) -> bool:
    if name is None:
        return False
    low = name.lower()
    return low in _COMM_NAMES or "comm" in low


def _comm_call_op(call: ast.Call) -> Optional[str]:
    """If ``call`` is a Comm communication method or pattern helper,
    return the op name, else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in COMM_METHODS and _is_comm_receiver(_receiver_name(func)):
            return func.attr
        if func.attr in PATTERN_HELPERS:
            return func.attr
    elif isinstance(func, ast.Name) and func.id in PATTERN_HELPERS:
        return func.id
    return None


def _is_collective_op(op: str) -> bool:
    return op in COLLECTIVE_METHODS or op in PATTERN_HELPERS


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


def _is_set_expr(expr: ast.AST, setish: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("set", "frozenset"):
        return True
    if isinstance(expr, ast.Name) and expr.id in setish:
        return True
    return False




# ----------------------------------------------------------------------
# suppressions (shared by the per-file linter and the protocol checker)
# ----------------------------------------------------------------------

class _SuppressEntry:
    __slots__ = ("line", "col", "codes", "standalone", "used")

    def __init__(self, line: int, col: int,
                 codes: Optional[Set[str]], standalone: bool) -> None:
        self.line = line
        self.col = col
        self.codes = codes          # None means "all codes"
        self.standalone = standalone
        self.used: Set[str] = set()  # codes this entry actually silenced


class Suppressions:
    """``# repro: lint-ok[...]`` comments of one file, with usage
    tracking so stale suppressions can be reported as SP099.

    Parsed from real COMMENT tokens, so docstrings *mentioning* the
    marker (like this module's) neither suppress nor go stale."""

    def __init__(self, source: str) -> None:
        self.entries: Dict[int, _SuppressEntry] = {}
        lines = source.splitlines()
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            line, start_col = tok.start
            codes: Optional[Set[str]] = None
            if m.group(1):
                codes = {c.strip().upper()
                         for c in m.group(1).split(",") if c.strip()}
            text = lines[line - 1] if line <= len(lines) else ""
            standalone = text[:start_col].strip() == ""
            self.entries[line] = _SuppressEntry(
                line, start_col + m.start() + 1, codes, standalone)

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when ``code`` on ``line`` is silenced (same line, or a
        standalone comment on the line above); marks the entry used."""
        entry = self.entries.get(line)
        if entry is not None and (entry.codes is None or code in entry.codes):
            entry.used.add(code)
            return True
        prev = self.entries.get(line - 1)
        if prev is not None and prev.standalone \
                and (prev.codes is None or code in prev.codes):
            prev.used.add(code)
            return True
        return False

    def unused_findings(self, path: str, checked: Set[str]) -> List[Finding]:
        """SP099 findings for entries that silenced nothing.

        ``checked`` is the set of rule codes this run actually
        evaluated: a suppression for a rule that was not checked (e.g.
        protocol rules under ``--no-protocol``) is never reported.
        """
        full_run = checked >= (set(RULES) - {"SP000", "SP099"})
        out: List[Finding] = []
        for entry in self.entries.values():
            if entry.codes is None:
                # a bare lint-ok silences everything, so staleness is
                # only decidable when every rule was on this run
                if full_run and not entry.used:
                    out.append(Finding(
                        path, entry.line, entry.col, "SP099",
                        "blanket '# repro: lint-ok' suppresses nothing — "
                        "no rule fires on this line",
                    ))
                continue
            if "SP099" in entry.codes:
                continue  # explicitly kept
            stale = sorted(c for c in entry.codes
                           if c in checked and c not in entry.used)
            if not stale:
                continue
            codes = ", ".join(stale)
            out.append(Finding(
                path, entry.line, entry.col, "SP099",
                f"suppression 'lint-ok[{codes}]' is stale — "
                f"{codes} does not fire on this line",
            ))
        return out


@dataclass
class LintUnit:
    """One parsed file, shared between the per-file linter and the
    whole-program protocol checker."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def parse(cls, source: str, path: str) -> "LintUnit":
        tree = ast.parse(source, filename=path)
        return cls(path, source, tree, Suppressions(source))


# ----------------------------------------------------------------------
# per-file linter
# ----------------------------------------------------------------------

class _FileLint:
    def __init__(self, unit: LintUnit) -> None:
        self.tree = unit.tree
        self.path = unit.path
        self.lines = unit.source.splitlines()
        self.findings: List[Finding] = []
        self.numpy_random: Set[str] = set()   # names bound to numpy.random
        self.numpy_aliases: Set[str] = set()  # names bound to numpy itself
        self.random_aliases: Set[str] = set()  # names bound to stdlib random
        _attach_parents(self.tree)
        self._suppressions = unit.suppressions

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self._suppressions.is_suppressed(line, code):
            return
        f = Finding(self.path, line, getattr(node, "col_offset", 0) + 1,
                    code, message)
        if f not in self.findings:
            self.findings.append(f)

    # -- driver ---------------------------------------------------------
    def run(self) -> List[Finding]:
        self._collect_imports()
        self._sp101(self.tree)
        self._sp103(self.tree)
        self._sp106(self.tree)
        for node in ast.walk(self.tree):
            if isinstance(node, _FUNC_NODES):
                self._check_function(node)
        self.findings.sort(key=lambda f: (f.line, f.col, f.code))
        return self.findings

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name in ("numpy", "numpy.random"):
                        self.numpy_aliases.add(bound)
                    if alias.name == "numpy.random" and alias.asname:
                        self.numpy_random.add(alias.asname)
                    if alias.name == "random":
                        self.random_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random.add(alias.asname or "random")
                elif node.module in ("numpy.random", "random"):
                    stdlib = node.module == "random"
                    allowed = _STDLIB_RANDOM_OK if stdlib else _NP_RANDOM_OK
                    for alias in node.names:
                        if alias.name not in allowed:
                            self._add(
                                node, "SP103",
                                f"'from {node.module} import {alias.name}' "
                                "pulls in shared RNG state",
                            )

    # -- SP101 ----------------------------------------------------------
    def _sp101(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            op = _comm_call_op(node)
            if op is None:
                continue
            if isinstance(_parent(node), ast.YieldFrom):
                continue
            self._add(
                node, "SP101",
                f"'{op}' called without 'yield from' — the communication "
                "generator is created but never driven",
            )

    # -- SP103 ----------------------------------------------------------
    def _sp103(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            # np.random.<fn>(...) / numpy.random.<fn>(...)
            if (isinstance(base, ast.Attribute) and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in self.numpy_aliases
                    and func.attr not in _NP_RANDOM_OK):
                self._add(
                    node, "SP103",
                    f"'np.random.{func.attr}' uses the shared global "
                    "NumPy RNG",
                )
            # nprand.<fn>(...) after 'from numpy import random as nprand'
            elif (isinstance(base, ast.Name) and base.id in self.numpy_random
                    and func.attr not in _NP_RANDOM_OK):
                self._add(
                    node, "SP103",
                    f"'{base.id}.{func.attr}' uses the shared global "
                    "NumPy RNG",
                )
            # random.<fn>(...) from the stdlib
            elif (isinstance(base, ast.Name) and base.id in self.random_aliases
                    and func.attr not in _STDLIB_RANDOM_OK):
                self._add(
                    node, "SP103",
                    f"'random.{func.attr}' uses the shared global stdlib RNG",
                )

    # -- SP106 ----------------------------------------------------------
    def _sp106(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._sp106_caught(node.type)
            if not caught:
                continue
            if self._sp106_handled(node):
                continue
            self._add(
                node, "SP106",
                f"'{caught}' caught and silently swallowed — the handler "
                "neither re-raises nor uses the exception",
            )

    @staticmethod
    def _sp106_caught(expr: Optional[ast.AST]) -> Optional[str]:
        """First swallowable error name this except clause catches."""
        if expr is None:
            return None
        exprs = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        for e in exprs:
            name = None
            if isinstance(e, ast.Name):
                name = e.id
            elif isinstance(e, ast.Attribute):
                name = e.attr
            if name in SWALLOWABLE_ERRORS:
                return name
        return None

    @staticmethod
    def _sp106_handled(handler: ast.ExceptHandler) -> bool:
        """Does the handler re-raise, raise a conversion, or use the
        bound exception?  (Nested scopes don't count — a ``raise``
        inside a nested ``def`` runs later, if ever.)"""
        for stmt in handler.body:
            for node in _own_walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if (handler.name and isinstance(node, ast.Name)
                        and node.id == handler.name
                        and isinstance(node.ctx, ast.Load)):
                    return True
        return False

    # -- per-function rules ---------------------------------------------
    def _check_function(self, fn: ast.AST) -> None:
        own = list(_own_walk(fn))
        is_generator = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own)
        communicates = any(
            isinstance(n, ast.Call) and _comm_call_op(n) is not None
            for n in own
        )
        if is_generator:
            self._sp102(fn, own)
        if is_generator and communicates:
            self._sp105(fn, own)
        self._sp104(fn)

    # -- SP102 ----------------------------------------------------------
    def _sp102(self, fn: ast.AST, own: List[ast.AST]) -> None:
        tainted: Set[str] = set()
        subcomms: Set[str] = set()
        for node in own:
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                value = node.value
                targets = [node.target]
            elif isinstance(node, ast.NamedExpr):
                value = node.value
                targets = [node.target]
            else:
                continue
            if value is None:
                continue
            # names bound to a split() result are sub-communicators:
            # posting a collective on one inside its own membership guard
            # ('if sub is not None:') is the canonical correct idiom
            if _is_split_result(value):
                for t in targets:
                    subcomms.update(_assigned_names(t))
            if _reads_rank(value, tainted):
                for t in targets:
                    tainted.update(_assigned_names(t))
        for node in own:
            if not isinstance(node, ast.If):
                continue
            if not _reads_rank(node.test, tainted):
                continue
            for sub in _own_walk(node):
                if sub is node.test or not isinstance(sub, ast.YieldFrom):
                    continue
                if not isinstance(sub.value, ast.Call):
                    continue
                op = _comm_call_op(sub.value)
                if op is None or not _is_collective_op(op):
                    continue
                func = sub.value.func
                if isinstance(func, ast.Attribute) \
                        and _receiver_name(func) in subcomms:
                    continue
                self._add(
                    sub, "SP102",
                    f"collective '{op}' posted inside a rank-dependent "
                    "branch — ranks will disagree on the collective "
                    "schedule",
                )

    # -- SP104 ----------------------------------------------------------
    def _sp104(self, fn: ast.AST) -> None:
        sent: Dict[str, Tuple[int, str]] = {}   # name -> (send line, op)
        self._sp104_scan(getattr(fn, "body", []), sent)

    def _sp104_scan(self, body: Sequence[ast.stmt],
                    sent: Dict[str, Tuple[int, str]]) -> None:
        """Walk statements in execution order, tracking posted buffers.

        ``If`` arms are alternatives, so each is scanned with its own
        copy of the tracking state (a send in one arm cannot be mutated
        by the other); loop bodies are scanned twice so a mutation
        textually *before* a send still follows it on iteration two.
        """
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
                header = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                    else stmt.test
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

    def _sp104_simple(self, stmt: ast.stmt,
                      sent: Dict[str, Tuple[int, str]]) -> None:
        """One simple statement: flag mutations, apply rebinds, then
        register any newly posted send payloads."""
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
                    self._sp104_flag(stmt, target.value.id, sent)
        self._sp104_exprs(stmt, sent)

    def _sp104_exprs(self, root: ast.AST,
                     sent: Dict[str, Tuple[int, str]]) -> None:
        """Scan the expressions of one statement/header: mutating calls
        on tracked buffers fire; send calls register their payload."""
        for node in _own_walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            # x.fill(...), x.sort(...), ...
            if func.attr in _MUTATOR_METHODS \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in sent:
                self._sp104_flag(node, func.value.id, sent)
            # np.add.at(x, ...), np.copyto(x, ...), np.put(x, ...)
            elif func.attr in ("at", "copyto", "put", "place", "putmask") \
                    and node.args and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id in sent:
                self._sp104_flag(node, node.args[0].id, sent)
            elif func.attr in SEND_METHODS \
                    and _is_comm_receiver(_receiver_name(func)):
                payload = node.args[0] if node.args else None
                if payload is None:
                    for kw in node.keywords:
                        if kw.arg == "obj":
                            payload = kw.value
                if isinstance(payload, ast.Name):
                    sent[payload.id] = (node.lineno, func.attr)

    def _sp104_flag(self, node: ast.AST, name: str,
                    sent: Dict[str, Tuple[int, str]]) -> None:
        line, op = sent[name]
        self._add(
            node, "SP104",
            f"'{name}' mutated after being posted to '{op}' on line "
            f"{line} — the receiver aliases this memory; send "
            "`obj.copy()`",
        )

    def _sp104_target(self, target, stmt, sent, aug: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._sp104_target(elt, stmt, sent, aug)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            if isinstance(base, ast.Name) and base.id in sent:
                self._sp104_flag(stmt, base.id, sent)
        elif isinstance(target, ast.Name):
            if aug:
                # x += ... mutates ndarrays in place
                if target.id in sent:
                    self._sp104_flag(stmt, target.id, sent)
            else:
                # plain rebind: the name no longer aliases the sent buffer
                sent.pop(target.id, None)

    # -- SP105 ----------------------------------------------------------
    def _sp105(self, fn: ast.AST, own: List[ast.AST]) -> None:
        setish: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, setish):
                for t in node.targets:
                    setish.update(_assigned_names(t))
        for node in own:
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_set_expr(node.iter, setish):
                self._add(
                    node.iter, "SP105",
                    "iteration over a set has hash-dependent order inside "
                    "a communicating rank program",
                )


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

#: rule codes owned by the whole-program checker (repro.analysis.protocol)
PROTOCOL_CODES = frozenset({
    "SP107", "SP108", "SP109", "SP110", "SP111", "SP112",
})


def _checked_codes(protocol: bool) -> Set[str]:
    """Codes a run with/without the protocol pass actually evaluates
    (drives SP099: un-evaluated rules can't prove a suppression stale)."""
    checked = set(RULES) - {"SP000", "SP099"}
    if not protocol:
        checked -= PROTOCOL_CODES
    return checked


def _run_units(
    units: Sequence[LintUnit],
    protocol: bool,
    checked: Set[str],
) -> Dict[str, List[Finding]]:
    """Run the per-file pass, the protocol pass, and the stale-
    suppression check over parsed units; findings per path, sorted."""
    by_path: Dict[str, List[Finding]] = {
        u.path: _FileLint(u).run() for u in units
    }
    if protocol and units:
        from .protocol import check_units
        for f in check_units(units):
            by_path.setdefault(f.path, []).append(f)
    for u in units:
        fs = by_path[u.path]
        fs.extend(u.suppressions.unused_findings(u.path, checked))
        fs.sort(key=lambda f: (f.line, f.col, f.code))
    return by_path


def lint_source(source: str, path: str = "<string>", *,
                protocol: bool = True) -> List[Finding]:
    """Lint python ``source``; returns findings sorted by position.

    A file that fails to parse yields one SP000 finding instead of
    raising, so one broken file cannot abort a whole-tree lint run.
    ``protocol=False`` skips the whole-program SP107–SP112 pass.
    """
    try:
        unit = LintUnit.parse(source, path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, (exc.offset or 1) - 1,
                        "SP000", f"syntax error: {exc.msg}")]
    return _run_units([unit], protocol, _checked_codes(protocol))[path]


def lint_file(path: Union[str, Path], *, protocol: bool = True) -> List[Finding]:
    """Lint one file."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p),
                       protocol=protocol)


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.py")
                              if "__pycache__" not in q.parts))
        else:
            out.append(p)
    return out


def lint_paths(
    paths: Iterable[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    *,
    protocol: bool = True,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    The protocol pass sees *all* the files at once, so cross-module
    rank programs (stage singletons, registry entry points) resolve.
    ``select``/``ignore`` restrict the reported rule codes.
    """
    selected = {c.upper() for c in select} if select else None
    ignored = {c.upper() for c in ignore} if ignore else set()
    checked = _checked_codes(protocol)
    if selected is not None:
        checked &= selected
    checked -= ignored

    ordered: List[Union[LintUnit, Finding]] = []
    for p in iter_python_files(paths):
        src = p.read_text(encoding="utf-8")
        try:
            ordered.append(LintUnit.parse(src, str(p)))
        except SyntaxError as exc:
            ordered.append(Finding(str(p), exc.lineno or 1,
                                   (exc.offset or 1) - 1,
                                   "SP000", f"syntax error: {exc.msg}"))
    units = [e for e in ordered if isinstance(e, LintUnit)]
    by_path = _run_units(units, protocol, checked)
    findings: List[Finding] = []
    for e in ordered:
        if isinstance(e, Finding):
            findings.append(e)
        else:
            findings.extend(by_path.get(e.path, ()))
    return [
        f for f in findings
        if (selected is None or f.code in selected) and f.code not in ignored
    ]
