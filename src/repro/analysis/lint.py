"""Static AST lint for SPMD rank programs (``repro lint``).

The paper's algorithms live or die on disciplined SPMD communication:
every rank must post the same collectives in the same order, and all
randomness must flow through seeded per-rank streams so runs are
reproducible.  The checks below are the *static* half of the
correctness analyzer — the dynamic half is the engine's sanitizer mode
(:mod:`repro.analysis.sanitizer`), which also catches payloads mutated
while their collective is in flight.  They encode the bug classes MPI
verification tools such as MUST catch at runtime, tuned to this
codebase's rank-program idiom (generator rank programs driven by
:func:`repro.parallel.engine.run_spmd`, posting the six collective ops
a ``Comm`` offers).

``repro lint`` runs two passes over the same parsed files.  This module
holds the rule table, suppressions, serialisers and API, plus the
syntactic rules, which judge one call, import or handler at a time:

======  ================================================================
SP000   the file does not parse, so it was not analysed
SP099   a ``# repro: lint-ok[CODE]`` suppression whose rule no longer
        fires on the suppressed line, or that names no rule — stale
        suppressions hide future regressions, so they must be removed
        when the code is fixed
SP101   a ``Comm`` operation (``barrier``/``bcast``/``allreduce``/
        ``gather``/``exchange``/``split``) or a
        :mod:`repro.parallel.patterns` helper called without
        ``yield from`` — the call builds a generator that is never
        driven, so the operation silently does not happen
SP103   global RNG state (``np.random.*`` module-level functions,
        stdlib ``random.*``) instead of seeded :mod:`repro.rng` streams
        — breaks run-to-run determinism and rank independence
SP106   an ``except`` clause catches :class:`~repro.errors.CommError` /
        :class:`~repro.errors.ReproError` and silently swallows it —
        the handler neither re-raises, nor raises a converted error,
        nor uses the bound exception, so a typed fault turns into a
        silent wrong answer
======  ================================================================

Every rule that follows data or control flow — SP102, SP105, SP108 and
SP112 — is computed by the whole-program pass in
:mod:`repro.analysis.protocol`.

Suppression
-----------
Append ``# repro: lint-ok[SP102]`` (codes comma-separated, or a bare
``# repro: lint-ok`` for all codes) to the offending line, or put the
comment alone on the line directly above it.  A suppression whose rule
does not fire, or that names a code no rule has, is itself reported as
SP099.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from ..errors import ConfigError

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
            "SP108",
            "collective count diverges across ranks",
            "issue the same collectives the same number of times on every "
            "rank of the communicator; guard subcommunicator collectives "
            "only with the membership test 'if sub is not None:'",
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

#: codes a suppression can name and a run can prove stale
_CHECKABLE = frozenset(RULES) - {"SP000", "SP099"}

#: exception names whose silent swallowing SP106 flags (the typed fault
#: taxonomy of repro.errors — the base classes plus the CommError family)
SWALLOWABLE_ERRORS = frozenset({
    "ReproError", "CommError", "DeadlockError", "RankFailure",
    "BudgetExceededError",
})

#: the operations a ``Comm`` offers (``repro.parallel.trace.
#: COLLECTIVE_KINDS``, not imported: the engine imports this package).
#: Each is a collective every rank of the communicator must post, and
#: each must be driven with ``yield from``
COMM_METHODS = frozenset({
    "barrier", "bcast", "allreduce", "gather", "exchange", "split",
})

#: generator helpers from repro.parallel.patterns (collective inside)
PATTERN_HELPERS = frozenset({"allgather_concat", "share_from_root"})

#: receiver names treated as communicator handles
_COMM_NAMES = frozenset({"comm", "active", "sub", "world"})

#: np.random attributes that are *not* global-state (seeded constructors)
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: stdlib random attributes that are seeded instances, not global state
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})

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
    """A communicator by name: one of :data:`_COMM_NAMES`, or a name
    with ``comm`` as a whole ``_``-separated part (``sub_comm``,
    ``comm2``), never as a substring (``common``, ``communities``)."""
    if name is None:
        return False
    low = name.lower()
    return low in _COMM_NAMES or any(
        part.rstrip("0123456789") == "comm" for part in low.split("_"))


def _comm_call_op(call: ast.Call) -> Optional[str]:
    """If ``call`` is a Comm operation or pattern helper, return the op
    name, else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in COMM_METHODS and _is_comm_receiver(_receiver_name(func)):
            return func.attr
        if func.attr in PATTERN_HELPERS:
            return func.attr
    elif isinstance(func, ast.Name) and func.id in PATTERN_HELPERS:
        return func.id
    return None


# ----------------------------------------------------------------------
# suppressions (shared by the syntactic and the whole-program pass)
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

        ``checked`` is the set of rule codes this run reports: a
        suppression for a rule left out by ``--select``/``--ignore`` is
        never reported.  A code that names no rule is reported on every
        run.
        """
        full_run = checked >= _CHECKABLE
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
            unknown = sorted(entry.codes - RULES.keys())
            if unknown:
                codes = ", ".join(unknown)
                out.append(Finding(
                    path, entry.line, entry.col, "SP099",
                    f"suppression 'lint-ok[{codes}]' names no rule — "
                    "it can never silence anything",
                ))
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
    """One parsed file, shared between the syntactic rules and the
    whole-program pass."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def parse(cls, source: str, path: str) -> "LintUnit":
        tree = ast.parse(source, filename=path)
        return cls(path, source, tree, Suppressions(source))


# ----------------------------------------------------------------------
# syntactic rules (SP101, SP103, SP106)
# ----------------------------------------------------------------------

class _FileLint:
    def __init__(self, unit: LintUnit) -> None:
        self.tree = unit.tree
        self.path = unit.path
        self.findings: List[Finding] = []
        self.numpy_random: Set[str] = set()   # names bound to numpy.random
        self.numpy_aliases: Set[str] = set()  # names bound to numpy itself
        self.random_aliases: Set[str] = set()  # names bound to stdlib random
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
        nodes = list(ast.walk(tree))
        driven = {id(n.value) for n in nodes if isinstance(n, ast.YieldFrom)}
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            op = _comm_call_op(node)
            if op is None or id(node) in driven:
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


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

def _parse(source: str, path: str) -> Union[LintUnit, Finding]:
    """Parse one file, or return the SP000 finding that replaces its
    analysis (``SyntaxError.offset`` is already 1-based)."""
    try:
        return LintUnit.parse(source, path)
    except SyntaxError as exc:
        return Finding(path, exc.lineno or 1, exc.offset or 1,
                       "SP000", f"syntax error: {exc.msg}")


def _run_units(units: Sequence[LintUnit],
               checked: Set[str]) -> Dict[str, List[Finding]]:
    """Run the syntactic rules, the whole-program pass and the stale-
    suppression check over parsed units; findings per path, sorted."""
    by_path: Dict[str, List[Finding]] = {
        u.path: _FileLint(u).run() for u in units
    }
    if units:
        from .protocol import check_units
        for f in check_units(units):
            by_path[f.path].append(f)
    for u in units:
        fs = by_path[u.path]
        fs.extend(u.suppressions.unused_findings(u.path, checked))
        fs.sort(key=lambda f: (f.line, f.col, f.code))
    return by_path


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint python ``source``; returns findings sorted by position.

    A file that fails to parse yields one SP000 finding instead of
    raising, so one broken file cannot abort a whole-tree lint run.
    """
    unit = _parse(source, path)
    if isinstance(unit, Finding):
        return [unit]
    return _run_units([unit], set(_CHECKABLE))[path]


def lint_file(path: Union[str, Path]) -> List[Finding]:
    """Lint one file."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


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
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    The whole-program pass sees *all* the files at once, so cross-module
    rank programs (stage singletons, registry entry points) resolve.
    ``select``/``ignore`` restrict the reported rule codes; a code no
    rule has raises :class:`~repro.errors.ConfigError`, so a typo cannot
    turn the run into one that checks nothing.
    """
    selected = {c.strip().upper() for c in select} if select else None
    ignored = {c.strip().upper() for c in ignore} if ignore else set()
    unknown = sorted(((selected or set()) | ignored) - RULES.keys())
    if unknown:
        raise ConfigError(
            f"unknown lint rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULES))})")
    checked = set(_CHECKABLE) if selected is None else _CHECKABLE & selected
    checked -= ignored

    ordered = [_parse(p.read_text(encoding="utf-8"), str(p))
               for p in iter_python_files(paths)]
    units = [e for e in ordered if isinstance(e, LintUnit)]
    by_path = _run_units(units, checked)
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
