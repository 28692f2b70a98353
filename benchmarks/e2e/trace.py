"""Span tracing for the end-to-end benchmark, installed from outside.

The benchmark never edits ``src/``.  During a traced round,
:meth:`Tracer.installed` replaces the module attributes through which
the pipeline looks up its public functions (the :data:`HOOKS` table)
with wrappers that record one span per call, and puts every original
back afterwards.  A hook target that no longer exists is a hard error,
so a rename in ``src/`` cannot silently empty a row of the profile.

Span model
----------
A span has a name, the id of the benchmark job it ran in, a parent span
and the interval from its first start to its last end.  ``active`` is
the time the span's own code was running: for a function call its whole
duration, for a rank-program generator only the stretches between its
yields, so a sim rank parked on a collective costs nothing.  ``child``
is the part of ``active`` covered by nested spans, and a layer's self
time is ``active - child``.  Spans stay in memory and are written as
JSONL when the run ends.

Procs workers inherit the wrappers through ``fork`` but record nothing
(the wrappers check the pid); per-phase walls of procs runs come from
the result's ``stage_seconds`` instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Hook",
    "HOOKS",
    "PROGRAM_SPAN",
    "Span",
    "Tracer",
    "resolve",
    "summarize",
    "child_active",
]

#: span name of the rank program handed to ``run_spmd`` on the sim backend
PROGRAM_SPAN = "engine.program"


@dataclass(frozen=True)
class Hook:
    """One wrapped lookup site: ``module.attr`` (``attr`` may be
    ``Class.method``).  ``kind`` is ``"call"`` for plain functions,
    ``"gen"`` for rank-program generators and ``"spmd"`` for
    ``run_spmd``, whose sim program is wrapped as :data:`PROGRAM_SPAN`.
    ``count(result, args, kwargs)`` returns counters stored on the span.
    """

    name: str
    module: str
    attr: str
    kind: str = "call"
    count: Optional[Callable[[Any, tuple, dict], Dict[str, Any]]] = None


def _file_bytes(out, args, kwargs) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(args[0])}


def _hierarchy_sizes(out, args, kwargs) -> Dict[str, Any]:
    return {"sizes": out.sizes()}


def _dist_hierarchy_sizes(out, args, kwargs) -> Dict[str, Any]:
    graphs, _cmaps = out
    return {"sizes": [g.num_vertices for g in graphs]}


def _iterations(out, args, kwargs) -> Dict[str, Any]:
    return {"iters": int(out.iterations)}


def _checkpoint_hit(out, args, kwargs) -> Dict[str, Any]:
    return {"hit": out is not None}


#: every layer boundary the benchmark times, keyed to the module
#: attribute the pipeline looks the function up through at call time
HOOKS: Tuple[Hook, ...] = (
    Hook("graph.read_metis", "repro.graph.io", "read_metis", count=_file_bytes),
    Hook("core.scalapart", "repro.core.scalapart", "scalapart"),
    Hook("core.run_parallel", "repro.core.parallel", "run_parallel"),
    Hook("engine.run_spmd", "repro.core.parallel", "run_spmd", kind="spmd"),
    Hook("checkpoint.key", "repro.parallel.checkpoint",
         "CheckpointContext.for_run"),
    Hook("checkpoint.load", "repro.parallel.checkpoint",
         "CheckpointContext.load_stage", count=_checkpoint_hit),
    Hook("embed.multilevel", "repro.core.stages", "multilevel_embedding"),
    Hook("coarsen.hierarchy", "repro.embed.multilevel", "build_hierarchy",
         count=_hierarchy_sizes),
    Hook("embed.fdl", "repro.embed.multilevel", "force_directed_layout",
         count=_iterations),
    Hook("embed.fdl", "repro.embed.parallel", "force_directed_layout",
         count=_iterations),
    Hook("embed.lattice", "repro.embed.multilevel", "repulsive_forces_lattice"),
    Hook("embed.bh", "repro.embed.multilevel", "repulsive_forces_bh"),
    Hook("embed.bh", "repro.embed.fdl", "repulsive_forces_bh"),
    Hook("embed.exact", "repro.embed.fdl", "repulsive_forces_exact"),
    Hook("embed.attractive", "repro.embed.fdl", "attractive_forces"),
    Hook("geometric.gmt", "repro.core.stages", "geometric_partition"),
    Hook("refine.strip", "repro.core.stages", "strip_refine"),
    Hook("embed.dist", "repro.core.stages", "EmbedStage.run_dist", kind="gen"),
    Hook("coarsen.dist_hierarchy", "repro.embed.parallel",
         "dist_build_hierarchy", kind="gen", count=_dist_hierarchy_sizes),
    Hook("coarsen.dist_hierarchy", "repro.baselines.parallel_ml",
         "dist_build_hierarchy", kind="gen", count=_dist_hierarchy_sizes),
    Hook("geometric.dist", "repro.core.stages", "GeometricStage.run_dist",
         kind="gen"),
    Hook("geometric.kway_dist", "repro.core.stages",
         "KWayGeometricStage.run_dist", kind="gen"),
    Hook("refine.dist", "repro.core.stages", "StripRefineStage.run_dist",
         kind="gen"),
)


class Span:
    """One timed interval; see the module docstring for the fields."""

    __slots__ = ("sid", "name", "job", "parent", "start", "end", "active",
                 "child", "attrs")

    def __init__(self, sid: int, name: str, job: Optional[str],
                 parent: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.job = job
        self.parent = parent
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.active = 0.0
        self.child = 0.0
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def self_time(self) -> float:
        return self.active - self.child


def resolve(hook: Hook) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a hook target.

    Raises :class:`LookupError` when the target is gone or is no longer
    the kind of callable the hook expects.
    """
    where = f"{hook.module}.{hook.attr}"
    try:
        owner: Any = importlib.import_module(hook.module)
        *path, attr = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"hook target {where} no longer exists") from exc
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(func):
        raise LookupError(f"hook target {where} is not callable")
    if (hook.kind == "gen") != inspect.isgeneratorfunction(func):
        raise LookupError(
            f"hook target {where} is {'not ' if hook.kind == 'gen' else ''}"
            "a generator function; fix the hook's kind"
        )
    return owner, attr, raw


class Tracer:
    """Records spans in memory while its hooks are installed.

    ``clock`` is the time source (a test passes a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.pid = os.getpid()
        self.clock = clock
        self.t0 = clock()
        self.spans: List[Span] = []
        #: id of the benchmark job new spans belong to
        self.job: Optional[str] = None
        self._stack: List[Tuple[Span, float]] = []

    # -- span bookkeeping -------------------------------------------------
    def recording(self) -> bool:
        return os.getpid() == self.pid

    def open(self, name: str) -> Span:
        parent = self._stack[-1][0].sid if self._stack else None
        span = Span(len(self.spans), name, self.job, parent)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        now = self.clock()
        if span.start is None:
            span.start = now
        self._stack.append((span, now))

    def leave(self, span: Span) -> None:
        now = self.clock()
        top, since = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span stack corrupted: left {span.name!r} "
                               f"while {top.name!r} was running")
        dt = now - since
        span.active += dt
        span.end = now
        if self._stack:
            self._stack[-1][0].child += dt

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time a block of the benchmark's own code (e.g. one job)."""
        s = self.open(name)
        self.enter(s)
        try:
            yield s
        finally:
            self.leave(s)

    # -- wrappers ---------------------------------------------------------
    def wrap_call(self, hook: Hook, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording():
                return fn(*args, **kwargs)
            span = self.open(hook.name)
            self.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(span)
            if hook.count is not None:
                span.attrs = hook.count(out, args, kwargs)
            return out

        return wrapper

    def wrap_gen(self, hook: Hook, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.recording() or not inspect.isgenerator(gen):
                return gen
            return self.timed(self.open(hook.name), gen, hook.count,
                              args, kwargs)

        return wrapper

    def wrap_spmd(self, hook: Hook, fn: Callable) -> Callable:
        call = self.wrap_call(hook, fn)

        @functools.wraps(fn)
        def wrapper(prog, nranks, *args, **kwargs):
            if self.recording() and kwargs.get("backend", "sim") == "sim":
                prog = self._traced_program(prog)
            return call(prog, nranks, *args, **kwargs)

        return wrapper

    def _traced_program(self, prog: Callable) -> Callable:
        def program(*args, **kwargs):
            out = prog(*args, **kwargs)
            if not inspect.isgenerator(out):
                return out
            return self.timed(self.open(PROGRAM_SPAN), out)

        return program

    def timed(self, span: Span, gen, count=None, args=(), kwargs=None):
        """Drive ``gen`` on behalf of the engine, timing only the
        stretches it runs between yields.  Sent values and thrown
        exceptions are forwarded; the return value is passed through."""
        value, exc = None, None
        try:
            while True:
                self.enter(span)
                try:
                    op = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    if count is not None:
                        span.attrs = count(stop.value, args, kwargs or {})
                    return stop.value
                finally:
                    self.leave(span)
                try:
                    value, exc = (yield op), None
                except GeneratorExit:
                    raise
                except BaseException as thrown:
                    value, exc = None, thrown
        finally:
            gen.close()

    # -- installation -----------------------------------------------------
    @contextlib.contextmanager
    def installed(self, hooks: Iterable[Hook] = HOOKS) -> Iterator["Tracer"]:
        """Wrap every hook target for the duration of the block.

        All targets are resolved before any is patched, so a missing one
        fails the run without leaving the program half-wrapped.
        """
        resolved = [(h, *resolve(h)) for h in hooks]
        wrap = {"call": self.wrap_call, "gen": self.wrap_gen,
                "spmd": self.wrap_spmd}
        patched: List[Tuple[Any, str, Any]] = []
        try:
            for hook, owner, attr, raw in resolved:
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(wrap[hook.kind](hook, raw.__func__))
                else:
                    new = wrap[hook.kind](hook, raw)
                setattr(owner, attr, new)
                patched.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in seconds since tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s.start is None:
                    continue
                rec = {"sid": s.sid, "name": s.name, "job": s.job,
                       "parent": s.parent, "start": s.start - self.t0,
                       "end": s.end - self.t0, "active": s.active,
                       "self": s.self_time}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``active`` and total ``self``."""
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "active": 0.0, "self": 0.0})
        row["calls"] += 1
        row["active"] += s.active
        row["self"] += s.self_time
    return out


def child_active(spans: List[Span], parent: str, child: str) -> float:
    """Active time of ``child``-named spans whose parent is named ``parent``."""
    names = {s.sid: s.name for s in spans}
    return sum(s.active for s in spans
               if s.name == child and names.get(s.parent) == parent)
