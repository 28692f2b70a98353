"""Durable embedding checkpoints for elastic recovery.

The recovery ladder in :func:`~repro.core.parallel.run_parallel`
(retry → shrink → fallback) recomputes from scratch on every attempt —
for the paper's pipeline that means re-coarsening and re-embedding even
when the failure hit the final refinement sweep.  This module makes the
completed embedding — the one stage that persists — *durable*, so an
attempt (or a whole new process, after a crash) can resume downstream
of it:

* :class:`CheckpointStore` — a directory of atomically written,
  crc32-verified ``.npz`` embedding files, keyed by
  ``(graph content hash, config fingerprint, seed, stage)``;
* :class:`CheckpointContext` — one run's view of the store: the
  resolved key, the rank-0 save hook threaded into rank programs, and
  the strictly validated resume probe.  A run with a store both saves
  its embedding and resumes from a persisted one.

Durability contract
-------------------
``save`` writes to a same-directory temp file, flushes + fsyncs it,
atomically renames it over the final name, then fsyncs the directory —
a reader never observes a half-written artifact under POSIX rename
semantics.  ``load`` re-verifies everything it cannot afford to trust:
the npz must parse (``allow_pickle=False``), the embedded metadata must
match the requested key field-for-field, and every payload array must
match its recorded crc32.  Any mismatch raises
:class:`~repro.errors.CheckpointError`; resume paths treat that as
"no checkpoint" and fall through to a full recompute — a poisoned
checkpoint directory can cost time, never correctness.  Resumed cuts
pass the caller's one balance check, exactly like freshly computed
ones.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..errors import CheckpointError, CheckpointWarning, ConfigError
from ..rng import DEFAULT_SEED

__all__ = [
    "CheckpointKey",
    "CheckpointStore",
    "CheckpointContext",
    "as_store",
    "graph_content_hash",
    "config_fingerprint",
]

#: on-disk artifact format; bumped on incompatible layout changes
_FORMAT = 1

#: metadata entry name inside the npz (JSON, utf-8, as a uint8 array —
#: keeps the whole artifact loadable with ``allow_pickle=False``)
_META = "__meta__"


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------

def _normalize_seed(seed: Any) -> int:
    """The run seed as the stable integer the checkpoint key records."""
    if seed is None:
        return DEFAULT_SEED
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ConfigError(
        "checkpointing needs a reproducible run seed (an int or None); "
        f"got {type(seed).__name__} — Generator/SeedSequence seeds are "
        "stateful and cannot key a durable artifact"
    )


def graph_content_hash(graph) -> str:
    """Content hash of a CSR graph (structure + weights, order-exact)."""
    h = sha256()
    for arr in (graph.indptr, graph.indices, graph.ewgt, graph.vwgt):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:20]


def config_fingerprint(method: str, config, k: int = 2,
                       cost_model=None) -> str:
    """Fingerprint of everything besides graph/seed that shapes an
    artifact: the method, its full config, ``k`` and the cost model.
    Over-keying is deliberate — a stale hit costs a recompute, a false
    hit would silently change results."""
    parts: Dict[str, Any] = {"method": method, "k": int(k)}
    if config is not None:
        import dataclasses

        parts["config"] = dataclasses.asdict(config)
    if cost_model == "unit":
        cost_model = None  # the default cost model, however it is spelled
    if cost_model is not None:
        if isinstance(cost_model, str):
            parts["cost_model"] = cost_model
        else:
            arr = np.ascontiguousarray(np.asarray(cost_model))
            parts["cost_model"] = sha256(arr.tobytes()).hexdigest()[:16]
    blob = json.dumps(parts, sort_keys=True, default=str)
    return sha256(blob.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class CheckpointKey:
    """Identity of one durable artifact."""

    graph_hash: str
    fingerprint: str
    seed: int
    stage: str

    def digest(self) -> str:
        blob = f"{self.graph_hash}|{self.fingerprint}|{self.seed}|{self.stage}"
        return sha256(blob.encode()).hexdigest()[:20]

    def filename(self) -> str:
        return f"{self.stage}-{self.digest()}.npz"


#: the one checkpointed stage (the embedding); its name keys the file
_STAGE = "embed"


def _json_safe_info(info: Dict[str, Any]) -> Dict[str, Any]:
    """Best-effort JSON projection of the embedding's info dict
    (diagnostics only — nothing downstream recomputes from it): scalars,
    and lists of integers such as the hierarchy sizes."""
    out: Dict[str, Any] = {}
    for key, value in info.items():
        if isinstance(value, (str, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (int, np.integer)):
            out[key] = int(value)
        elif isinstance(value, (float, np.floating)):
            out[key] = float(value)
        elif isinstance(value, (list, tuple)) and all(
                isinstance(v, (int, np.integer)) for v in value):
            out[key] = [int(v) for v in value]
    return out


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class CheckpointStore:
    """A directory of durable, crc32-verified embedding artifacts.

    Concurrency-safe against readers (atomic rename) and idempotent
    against writers: a re-save of the same key overwrites the previous
    file, which also self-heals a corrupted artifact on the next
    successful run.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self.root)!r})"

    def path_for(self, key: CheckpointKey) -> Path:
        return self.root / key.filename()

    # -- writing --------------------------------------------------------
    def save(self, key: CheckpointKey, artifact) -> Path:
        """Durably persist an
        :class:`~repro.core.stages.EmbeddingArtifact` under ``key``;
        returns the path.

        tmp-write + fsync + rename + directory fsync: a concurrent
        reader sees either the old artifact or the complete new one,
        never a torn write.
        """
        arrays = {"coords": np.ascontiguousarray(artifact.coords,
                                                 dtype=np.float64)}
        meta = {
            "format": _FORMAT,
            "graph_hash": key.graph_hash,
            "fingerprint": key.fingerprint,
            "seed": key.seed,
            "stage": key.stage,
            "crc": {name: zlib.crc32(arr.tobytes())
                    for name, arr in arrays.items()},
            "info": _json_safe_info(artifact.info),
        }
        meta_arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        final = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=str(self.root),
                                   prefix=f".{key.stage}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, **{_META: meta_arr}, **arrays)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        dirfd = os.open(str(self.root), os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
        return final

    # -- reading --------------------------------------------------------
    def load(self, key: CheckpointKey):
        """Load and strictly validate the embedding stored under ``key``.

        Raises :class:`~repro.errors.CheckpointError` naming the precise
        reason when the file is absent, unreadable, keyed differently,
        or fails its crc32 — callers demote every one of those to a full
        recompute.
        """
        path = self.path_for(key)
        if not path.exists():
            raise CheckpointError(f"no checkpoint at {path}")
        try:
            with np.load(path, allow_pickle=False) as npz:
                if _META not in npz.files:
                    raise CheckpointError(
                        f"checkpoint {path.name} has no metadata record"
                    )
                meta = json.loads(bytes(npz[_META].tobytes()).decode())
                arrays = {name: npz[name] for name in npz.files
                          if name != _META}
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path.name} is unreadable "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if meta.get("format") != _FORMAT:
            raise CheckpointError(
                f"checkpoint {path.name} has format "
                f"{meta.get('format')!r}, expected {_FORMAT}"
            )
        for fld, want in (("graph_hash", key.graph_hash),
                          ("fingerprint", key.fingerprint),
                          ("seed", key.seed),
                          ("stage", key.stage)):
            if meta.get(fld) != want:
                raise CheckpointError(
                    f"checkpoint {path.name} key mismatch on {fld}: "
                    f"stored {meta.get(fld)!r}, expected {want!r}"
                )
        crcs = meta.get("crc") or {}
        if sorted(crcs) != sorted(arrays):
            raise CheckpointError(
                f"checkpoint {path.name} array set mismatch: stored "
                f"{sorted(arrays)}, recorded {sorted(crcs)}"
            )
        for name, arr in arrays.items():
            if zlib.crc32(np.ascontiguousarray(arr).tobytes()) != crcs[name]:
                raise CheckpointError(
                    f"checkpoint {path.name} failed crc32 verification "
                    f"on array {name!r} (truncated or corrupt payload)"
                )
        coords = arrays.get("coords")
        if coords is None or coords.ndim != 2 or coords.shape[1] != 2:
            raise CheckpointError(
                f"embed artifact payload is malformed: expected an (n, 2) "
                f"coords array, got "
                f"{None if coords is None else coords.shape}"
            )
        # deferred: repro.core imports this module
        from ..core.stages import EmbeddingArtifact

        return EmbeddingArtifact(stage=key.stage,
                                 info=dict(meta.get("info") or {}),
                                 coords=coords)

    def try_load(self, key: CheckpointKey):
        """``(artifact, None)`` on a verified hit; ``(None, reason)``
        when a file exists but is unusable (also warned, so operators
        can clean a poisoned directory); ``(None, None)`` when absent."""
        if not self.path_for(key).exists():
            return None, None
        try:
            return self.load(key), None
        except CheckpointError as exc:
            reason = str(exc)
            warnings.warn(
                f"ignoring checkpoint: {reason}; falling back to a full "
                "recompute",
                CheckpointWarning,
                stacklevel=2,
            )
            return None, reason


# ----------------------------------------------------------------------
# per-run context
# ----------------------------------------------------------------------

def as_store(obj) -> Optional[CheckpointStore]:
    """Normalise the ``checkpoint=`` argument: a directory path or a
    :class:`CheckpointStore` (or None)."""
    if obj is None or isinstance(obj, CheckpointStore):
        return obj
    if isinstance(obj, (str, os.PathLike)):
        return CheckpointStore(obj)
    raise ConfigError(
        "checkpoint must be a directory path or CheckpointStore, got "
        f"{type(obj).__name__}"
    )


@dataclass
class CheckpointContext:
    """One run's resolved checkpoint identity.

    Built once per :func:`~repro.core.parallel.run_parallel` call from
    the *caller-level* method and seed, so every rung of the recovery
    ladder (retries, shrunk rank counts, cross-process restarts of the
    same invocation) resolves the same key.  ``ignored`` accumulates
    the reasons any unusable artifacts were skipped; the driver surfaces
    it in ``extras``.
    """

    store: CheckpointStore
    method: str
    graph_hash: str
    fingerprint: str
    seed: int
    ignored: List[str] = field(default_factory=list)

    @classmethod
    def for_run(cls, store: CheckpointStore, graph, spec, config,
                seed, k: int = 2, cost_model=None) -> "CheckpointContext":
        return cls(
            store=store,
            method=spec.name,
            graph_hash=graph_content_hash(graph),
            fingerprint=config_fingerprint(spec.name, config, k=k,
                                           cost_model=cost_model),
            seed=_normalize_seed(seed),
        )

    @property
    def key(self) -> CheckpointKey:
        return CheckpointKey(graph_hash=self.graph_hash,
                             fingerprint=self.fingerprint,
                             seed=self.seed, stage=_STAGE)

    def covers(self, spec) -> bool:
        """Does a run of ``spec`` save and resume through this context?
        Only the caller's own method, and only if it can resume."""
        return spec.resume_method is not None and spec.name == self.method

    def save_artifact(self, artifact) -> None:
        """Rank-0 save hook threaded into rank programs.  A durability
        failure is reported (CheckpointWarning), never fatal — the run's
        answer does not depend on the checkpoint landing."""
        try:
            self.store.save(self.key, artifact)
        except OSError as exc:
            warnings.warn(
                f"could not persist {_STAGE!r} checkpoint: "
                f"{type(exc).__name__}: {exc}",
                CheckpointWarning,
                stacklevel=2,
            )

    def load_stage(self):
        """Verified embedding artifact, or None (recording why)."""
        artifact, reason = self.store.try_load(self.key)
        if reason is not None:
            self.ignored.append(reason)
        return artifact
