"""Tests for the cached sweep runner (using cheap methods only)."""

import json

import pytest

from repro.bench import runner
from repro.bench.runner import RunRecord, run_method
from repro.errors import ConfigError


class TestRunMethod:
    def test_rcb_record_fields(self):
        rec = run_method("RCB", "ecology1", 4, use_cache=False)
        assert rec.method == "RCB"
        assert rec.graph == "ecology1"
        assert rec.p == 4
        assert rec.cut > 0
        assert rec.seconds > 0
        assert rec.simulated

    def test_sequential_method_ignores_p(self):
        a = run_method("G7-NL", "ecology1", use_cache=False)
        assert not a.simulated
        assert a.cut > 0

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            run_method("Magic", "ecology1", use_cache=False)

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path)
        runner._MEMO.clear()
        a = run_method("RCB", "ecology2", 4)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        # cache hit returns the identical record
        runner._MEMO.clear()
        b = run_method("RCB", "ecology2", 4)
        assert a == b

    def test_record_json_serialisable(self):
        rec = run_method("RCB", "ecology1", 4, use_cache=False)
        from dataclasses import asdict

        blob = json.dumps(asdict(rec))
        back = RunRecord(**json.loads(blob))
        assert back == rec

    def test_clear_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path)
        run_method("RCB", "ecology1", 4)
        runner.clear_cache()
        assert not list(tmp_path.glob("*.json"))
        assert not runner._MEMO


class TestRegistryView:
    def test_methods_mirrors_registry(self):
        from repro.bench.runner import METHODS
        from repro.core.methods import METHOD_REGISTRY

        assert set(METHODS) == set(METHOD_REGISTRY)
        for name, needs_coords in METHODS.items():
            assert needs_coords == METHOD_REGISTRY[name].needs_coords

    def test_cache_key_versioned(self):
        # the key must change when the cache format version bumps, so a
        # stale on-disk cache can never satisfy a new-format read
        k = runner._cache_key("RCB", "ecology1", 4)
        assert len(k) == 20
        assert k != runner._cache_key("RCB", "ecology1", 8)

    def test_cache_key_covers_the_sources(self, tmp_path, monkeypatch):
        # a cache kept across a code change must miss: one edited byte
        # anywhere in the package changes the digest, and the digest
        # changes the key
        import shutil
        from pathlib import Path

        pkg = tmp_path / "repro"
        shutil.copytree(Path(runner.__file__).resolve().parents[1], pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = runner._source_digest(pkg)
        assert runner._source_digest(pkg) == before
        target = pkg / "coarsen" / "matching.py"
        data = bytearray(target.read_bytes())
        data[-1] ^= 1
        target.write_bytes(bytes(data))
        after = runner._source_digest(pkg)
        assert after != before

        key = runner._cache_key("RCB", "ecology1", 4)
        monkeypatch.setattr(runner, "_code_fingerprint", lambda: after)
        assert runner._cache_key("RCB", "ecology1", 4) != key
