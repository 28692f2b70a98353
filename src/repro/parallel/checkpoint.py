"""Durable stage checkpoints for elastic recovery.

The recovery ladder in :func:`~repro.core.parallel.run_parallel`
(retry → shrink → fallback) recomputes from scratch on every attempt —
for the paper's pipeline that means re-coarsening and re-embedding even
when the failure hit the final refinement sweep.  This module makes
completed stage artifacts *durable* so an attempt (or a whole new
process, after a crash) can resume from the last persisted stage:

* :class:`CheckpointStore` — a directory of atomically written,
  crc32-verified ``.npz`` artifact files, keyed by
  ``(graph content hash, config fingerprint, seed, stage)``;
* :class:`CheckpointContext` — one run's view of the store: the
  resolved key per stage, the rank-0 save hook threaded into rank
  programs, and the strictly validated resume probe.  A run with a
  store both saves completed stages and resumes from persisted ones.

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
are additionally re-validated against the method's ``balance_bound``
by the caller, exactly like freshly computed ones.
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
from typing import Any, Dict, List, Optional, Tuple, Union

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


# ----------------------------------------------------------------------
# artifact (de)serialisation
# ----------------------------------------------------------------------

def _artifact_payload(artifact) -> Tuple[Dict[str, np.ndarray],
                                         Dict[str, Any]]:
    """Split a checkpointable artifact into arrays + JSON metadata
    (stage-type knowledge lives with the artifact types; imported
    lazily to keep :mod:`repro.core` ↛ :mod:`repro.parallel` acyclic
    at import time)."""
    from ..core.stages import artifact_payload

    return artifact_payload(artifact)


def _artifact_restore(stage: str, arrays: Dict[str, np.ndarray],
                      meta: Dict[str, Any]):
    """Rebuild the typed artifact from its persisted payload."""
    from ..core.stages import artifact_from_arrays

    return artifact_from_arrays(stage, arrays, meta)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class CheckpointStore:
    """A directory of durable, crc32-verified stage artifacts.

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
        """Durably persist ``artifact`` under ``key``; returns the path.

        tmp-write + fsync + rename + directory fsync: a concurrent
        reader sees either the old artifact or the complete new one,
        never a torn write.
        """
        arrays, extra = _artifact_payload(artifact)
        meta = {
            "format": _FORMAT,
            "graph_hash": key.graph_hash,
            "fingerprint": key.fingerprint,
            "seed": key.seed,
            "stage": key.stage,
            "crc": {name: zlib.crc32(arr.tobytes())
                    for name, arr in arrays.items()},
            **extra,
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
        """Load and strictly validate the artifact stored under ``key``.

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
        return _artifact_restore(key.stage, arrays, meta)

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
    same invocation) resolves the same keys.  ``ignored`` accumulates
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

    def key_for(self, stage: str) -> CheckpointKey:
        return CheckpointKey(graph_hash=self.graph_hash,
                             fingerprint=self.fingerprint,
                             seed=self.seed, stage=stage)

    def can_save(self, spec) -> bool:
        return bool(spec.checkpoint_stages and spec.name == self.method)

    def can_resume(self, spec) -> bool:
        return bool(spec.checkpoint_stages
                    and spec.resume_method is not None
                    and spec.name == self.method)

    def save_artifact(self, stage: str, artifact) -> None:
        """Rank-0 save hook threaded into rank programs.  A durability
        failure is reported (CheckpointWarning), never fatal — the run's
        answer does not depend on the checkpoint landing."""
        try:
            self.store.save(self.key_for(stage), artifact)
        except OSError as exc:
            warnings.warn(
                f"could not persist {stage!r} checkpoint: "
                f"{type(exc).__name__}: {exc}",
                CheckpointWarning,
                stacklevel=2,
            )

    def load_stage(self, stage: str):
        """Verified artifact for ``stage``, or None (recording why)."""
        artifact, reason = self.store.try_load(self.key_for(stage))
        if reason is not None:
            self.ignored.append(reason)
        return artifact
