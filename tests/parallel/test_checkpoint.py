"""Durable stage checkpoints and elastic resume.

Properties under test:

* the store round-trips artifacts bit-exactly and every durability
  failure mode (truncation, bit-flip, stale key, foreign config) is
  detected, reported, and demoted to a full recompute — never a wrong
  answer;
* a :class:`~repro.errors.RankFailure` during strip refinement resumes
  from the persisted embedding (``resumed_from == "embed"``) and the
  resumed run is bit-identical to a fresh run fed the same artifact at
  the same rank count;
* a second identical invocation (a "cross-process restart") resumes at
  its *primary* attempt and reproduces the original partition exactly.
"""

import os

import numpy as np
import pytest

from repro.core.config import ScalaPartConfig
from repro.core.parallel import _RETRY_SALT, RetryPolicy, run_parallel
from repro.core.stages import EmbeddingArtifact
from repro.errors import (
    CheckpointError,
    CheckpointWarning,
    ConfigError,
    RankFailure,
)
from repro.parallel import FaultPlan, KillRank
from repro.parallel.checkpoint import (
    CheckpointContext,
    CheckpointKey,
    CheckpointStore,
    as_store,
    config_fingerprint,
    graph_content_hash,
)
from repro.rng import derive_seed

FAST = ScalaPartConfig(coarsest_iters=80, smooth_iters=6)

#: calibrated for small_delaunay/FAST/seed=3/4 ranks: rank 1's 30th op
#: sits inside the 'partition/strip' refinement phase, well after the
#: embed stage persisted its artifact (see test body assertions).
STRIP_OP = 30


def _artifact(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingArtifact(stage="embed",
                             info={"levels": 3, "sizes": [n, 9, 3]},
                             coords=rng.standard_normal((n, 2)))


def _key(stage="embed", **kw):
    base = dict(graph_hash="g" * 20, fingerprint="f" * 20, seed=3)
    base.update(kw)
    return CheckpointKey(stage=stage, **base)


# ----------------------------------------------------------------------
# store round trip + keying
# ----------------------------------------------------------------------

class TestStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        art = _artifact()
        path = store.save(_key(), art)
        assert path.exists() and path.name.startswith("embed-")
        back = store.load(_key())
        assert isinstance(back, EmbeddingArtifact)
        assert back.stage == "embed"
        assert back.info.get("levels") == 3
        assert back.info.get("sizes") == [32, 9, 3]
        np.testing.assert_array_equal(back.coords, art.coords)

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_key(), _artifact())
        store.save(_key(), _artifact(seed=1))  # idempotent overwrite
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_distinct_keys_distinct_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_key(seed=3), _artifact())
        store.save(_key(seed=4), _artifact())
        assert len(list(tmp_path.glob("embed-*.npz"))) == 2

    def test_missing_is_silent_none(self, tmp_path):
        art, reason = CheckpointStore(tmp_path).try_load(_key())
        assert art is None and reason is None

    def test_graph_hash_tracks_weights(self, small_delaunay):
        g = small_delaunay.graph
        h1 = graph_content_hash(g)
        assert h1 == graph_content_hash(g)
        vwgt = g.vwgt.copy()
        vwgt[0] += 1
        g2 = type(g)(indptr=g.indptr, indices=g.indices,
                     ewgt=g.ewgt, vwgt=vwgt)
        assert graph_content_hash(g2) != h1

    def test_fingerprint_tracks_config_and_k(self):
        base = config_fingerprint("ScalaPart", FAST)
        assert base == config_fingerprint("ScalaPart", FAST)
        assert base != config_fingerprint("ScalaPart", ScalaPartConfig())
        assert base != config_fingerprint("ScalaPart", FAST, k=4)
        assert base != config_fingerprint("KWay-Geometric", FAST)

    def test_unit_cost_model_spellings_share_a_key(self):
        """CLI passes the default cost model as the string "unit",
        the library as None — same semantics, same fingerprint."""
        assert (config_fingerprint("ScalaPart", FAST, cost_model="unit")
                == config_fingerprint("ScalaPart", FAST, cost_model=None))
        assert (config_fingerprint("ScalaPart", FAST, cost_model="degree")
                != config_fingerprint("ScalaPart", FAST))

    def test_generator_seed_rejected(self, tmp_path, small_delaunay):
        from repro.core.methods import get_method

        store = as_store(str(tmp_path))
        with pytest.raises(ConfigError, match="reproducible run seed"):
            CheckpointContext.for_run(
                store, small_delaunay.graph, get_method("scalapart"),
                FAST, np.random.default_rng(0))

    def test_as_store_forms(self, tmp_path):
        assert as_store(None) is None
        store = CheckpointStore(tmp_path)
        assert as_store(store) is store
        assert as_store(str(tmp_path)).root == store.root
        with pytest.raises(ConfigError, match="checkpoint must be"):
            as_store(42)


# ----------------------------------------------------------------------
# corruption: detected, reported, demoted — never trusted
# ----------------------------------------------------------------------

class TestCorruption:
    def test_truncated_file_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(_key(), _artifact())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="unreadable|crc32"):
            store.load(_key())
        with pytest.warns(CheckpointWarning, match="falling back"):
            art, reason = store.try_load(_key())
        assert art is None and reason

    def test_bitflip_fails_crc(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(_key(), _artifact())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # land inside the coords payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError,
                           match="crc32 verification|unreadable"):
            store.load(_key())

    def test_stale_fingerprint_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_key(), _artifact())
        # same digest directory, different recorded identity: simulate
        # by renaming an artifact saved under another fingerprint onto
        # this key's expected filename
        other = _key(fingerprint="e" * 20)
        store.save(other, _artifact())
        os.replace(store.path_for(other), store.path_for(_key()))
        with pytest.raises(CheckpointError,
                           match="key mismatch on fingerprint"):
            store.load(_key())

    def test_wrong_seed_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_key(seed=3), _artifact())
        os.replace(store.path_for(_key(seed=3)),
                   store.path_for(_key(seed=9)))
        with pytest.raises(CheckpointError, match="key mismatch on seed"):
            store.load(_key(seed=9))

    def test_corrupt_store_run_still_completes(self, tmp_path,
                                               small_delaunay):
        """A poisoned directory costs a recompute, never correctness."""
        g = small_delaunay.graph
        clean = run_parallel("scalapart", g, 4, seed=3, config=FAST)
        first = run_parallel("scalapart", g, 4, seed=3, config=FAST,
                             checkpoint=str(tmp_path))
        (path,) = tmp_path.glob("embed-*.npz")
        path.write_bytes(b"not an npz at all")
        with pytest.warns(CheckpointWarning, match="falling back"):
            res = run_parallel("scalapart", g, 4, seed=3, config=FAST,
                               checkpoint=str(tmp_path))
        ck = res.extras["checkpoint"]
        assert ck["resumed_from"] is None
        assert len(ck["ignored"]) == 1 and "unreadable" in ck["ignored"][0]
        np.testing.assert_array_equal(res.parts, clean.parts)
        np.testing.assert_array_equal(first.parts, clean.parts)
        # the recompute re-persisted a good artifact over the bad one
        assert CheckpointStore(tmp_path) \
            .try_load(_run_key(g, seed=3))[0] is not None


def _run_key(graph, seed):
    return CheckpointKey(
        graph_hash=graph_content_hash(graph),
        fingerprint=config_fingerprint("ScalaPart", FAST),
        seed=seed, stage="embed",
    )


# ----------------------------------------------------------------------
# elastic resume, end to end
# ----------------------------------------------------------------------

class TestElasticResume:
    def _killed_run(self, graph, tmp_path, backend="sim"):
        plan = FaultPlan(seed=11,
                         kills=(KillRank(rank=1, at_op=STRIP_OP),))
        return run_parallel(
            "scalapart", graph, 4, seed=3, config=FAST, faults=plan,
            retry=RetryPolicy(retries=1), checkpoint=str(tmp_path),
            backend=backend,
        )

    def test_kill_lands_in_strip_phase(self, small_delaunay, tmp_path):
        """Calibration guard: STRIP_OP must hit refinement, after embed."""
        plan = FaultPlan(seed=11,
                         kills=(KillRank(rank=1, at_op=STRIP_OP),))
        with pytest.raises(RankFailure) as exc:
            run_parallel("scalapart", small_delaunay.graph, 4, seed=3,
                         config=FAST, faults=plan,
                         checkpoint=str(tmp_path))
        assert exc.value.phase.startswith("partition/")
        # embed completed (and persisted) before the kill fired
        assert list(tmp_path.glob("embed-*.npz"))

    def test_resume_from_embed_after_rank_failure(self, small_delaunay,
                                                  tmp_path):
        res = self._killed_run(small_delaunay.graph, tmp_path)
        rec = res.extras["recovery"]
        assert rec["recovered"] and rec["resumed_from"] == "embed"
        assert rec["attempts"][0]["status"] == "failed"
        assert rec["attempts"][1]["status"] == "ok"
        assert rec["attempts"][1]["resumed_from"] == "embed"
        res.validate(0.05)

    def test_resumed_run_bit_identical_to_fresh_on_artifact(
            self, small_delaunay, tmp_path):
        """The resumed retry must equal SP-PG7-NL fed the persisted
        embedding at the retry's derived seed — resume changes where
        the coordinates come from, nothing else."""
        g = small_delaunay.graph
        res = self._killed_run(g, tmp_path)
        artifact = CheckpointStore(tmp_path).load(_run_key(g, seed=3))
        fresh = run_parallel("SP-PG7-NL", g, 4, coords=artifact,
                             config=FAST,
                             seed=derive_seed(3, _RETRY_SALT, 1))
        np.testing.assert_array_equal(res.parts, fresh.parts)
        assert res.cut_size == fresh.cut_size

    def test_primary_attempt_resume_is_bit_identical(self, small_delaunay,
                                                     tmp_path):
        """Cross-process restart: a second identical invocation resumes
        at attempt 0 and reproduces the first run's partition."""
        g = small_delaunay.graph
        first = run_parallel("scalapart", g, 4, seed=3, config=FAST,
                             checkpoint=str(tmp_path))
        assert first.extras["checkpoint"]["resumed_from"] is None
        second = run_parallel("scalapart", g, 4, seed=3, config=FAST,
                              checkpoint=str(tmp_path))
        assert second.extras["checkpoint"]["resumed_from"] == "embed"
        np.testing.assert_array_equal(first.parts, second.parts)
        assert first.cut_size == second.cut_size

    @pytest.mark.parametrize("method,kw", [("ScalaPart", {"config": FAST}),
                                           ("KWay-Geometric", {"k": 4})])
    def test_resumed_run_reports_embedding_info(self, small_delaunay,
                                                tmp_path, method, kw):
        """The embedding's diagnostics survive the resume: they come
        from the persisted artifact, not from a recomputation."""
        g = small_delaunay.graph
        first = run_parallel(method, g, 4, seed=3, checkpoint=str(tmp_path),
                             **kw)
        second = run_parallel(method, g, 4, seed=3, checkpoint=str(tmp_path),
                              **kw)
        assert second.extras["checkpoint"]["resumed_from"] == "embed"
        assert first.extras["levels"] >= 2
        for key in ("levels", "sizes", "smooth_iterations"):
            assert second.extras[key] == first.extras[key], key

    def test_different_seed_does_not_resume(self, small_delaunay, tmp_path):
        g = small_delaunay.graph
        run_parallel("scalapart", g, 4, seed=3, config=FAST,
                     checkpoint=str(tmp_path))
        res = run_parallel("scalapart", g, 4, seed=4, config=FAST,
                           checkpoint=str(tmp_path))
        assert res.extras["checkpoint"]["resumed_from"] is None
        assert len(list(tmp_path.glob("embed-*.npz"))) == 2

    def test_kway_geometric_resumes_itself(self, small_delaunay, tmp_path):
        g = small_delaunay.graph
        first = run_parallel("kway-geometric", g, 4, seed=3, k=4,
                             checkpoint=str(tmp_path))
        second = run_parallel("kway-geometric", g, 4, seed=3, k=4,
                              checkpoint=str(tmp_path))
        assert second.extras["checkpoint"]["resumed_from"] == "embed"
        np.testing.assert_array_equal(first.parts, second.parts)

    def test_explicit_coords_bypass_resume(self, small_delaunay, tmp_path):
        """Caller-supplied coordinates win over any persisted stage."""
        g = small_delaunay.graph
        run_parallel("scalapart", g, 4, seed=3, config=FAST,
                     checkpoint=str(tmp_path))
        rng = np.random.default_rng(0)
        res = run_parallel("scalapart", g, 4, seed=3, config=FAST,
                           coords=rng.standard_normal((g.num_vertices, 2)),
                           checkpoint=str(tmp_path))
        assert res.extras["checkpoint"]["resumed_from"] is None

    def test_resume_on_procs_backend(self, small_delaunay, tmp_path):
        res = self._killed_run(small_delaunay.graph, tmp_path,
                               backend="procs")
        rec = res.extras["recovery"]
        assert rec["recovered"] and rec["resumed_from"] == "embed"
        sim = self._killed_run(small_delaunay.graph,
                               tmp_path / "sim", backend="sim")
        np.testing.assert_array_equal(res.parts, sim.parts)
