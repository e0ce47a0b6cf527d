"""ResultCache: round-trip fidelity, invalidation, crash tolerance."""

import math

import pytest

import repro.runner.cache as cache_mod
from repro.errors import RunnerError
from repro.flit.stats import FlitRunResult
from repro.obs.recorder import Recorder, use_recorder
from repro.runner.cache import ResultCache, cache_key


def _mk_result(**overrides):
    base = dict(
        offered_load=0.3, injected_load=0.29, throughput=0.28,
        mean_delay=41.25, p95_delay=60.5, max_delay=97.0,
        messages_measured=120, messages_completed=118,
        sim_cycles=10_000, events=54_321,
    )
    base.update(overrides)
    return FlitRunResult(**base)


class TestCacheKey:
    def test_order_insensitive(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert cache_key({"seed": 0}) != cache_key({"seed": 1})

    def test_non_json_values_hash_via_repr(self):
        key = cache_key({"workload": object})  # a type, not JSON-able
        assert len(key) == 64


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        rec = Recorder()
        with use_recorder(rec):
            cache = ResultCache(tmp_path)
            key = cache_key({"p": 1})
            assert cache.get(key) is None
            cache.put(key, _mk_result())
            assert cache.get(key) == _mk_result()
        assert rec.counters["runner.cache_miss"] == 1
        assert rec.counters["runner.cache_hit"] == 1
        assert rec.counters["runner.cache_store"] == 1

    def test_exact_float_and_nan_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored = _mk_result(mean_delay=float("nan"), throughput=0.1 + 0.2)
        cache.put("k", stored)
        loaded = ResultCache(tmp_path).get("k")  # fresh instance: from disk
        assert loaded.throughput == stored.throughput  # bit-exact
        assert math.isnan(loaded.mean_delay)

    def test_put_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _mk_result())
        cache.put("k", _mk_result(throughput=0.99))  # first write wins
        assert len(ResultCache(tmp_path)) == 1
        assert ResultCache(tmp_path).get("k").throughput == 0.28

    def test_len_and_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0 and "k" not in cache
        cache.put("k", _mk_result())
        assert len(cache) == 1 and "k" in cache


class TestInvalidation:
    def test_version_mismatch_skipped_and_counted(self, tmp_path):
        ResultCache(tmp_path, version="v1").put("k", _mk_result())
        rec = Recorder()
        with use_recorder(rec):
            newer = ResultCache(tmp_path, version="v2")
            assert newer.get("k") is None
        assert newer.stale_entries == 1
        assert rec.counters["runner.cache_invalidated"] == 1
        assert rec.counters["runner.cache_miss"] == 1

    def test_torn_trailing_line_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", _mk_result())
        with open(cache.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn", "vers')  # interrupted mid-write
        rec = Recorder()
        with use_recorder(rec):
            reread = ResultCache(tmp_path)
            assert reread.get("k") == _mk_result()
        assert rec.counters["runner.cache_corrupt"] == 1

    def test_record_key_bakes_in_code_version(self, tmp_path):
        # Generic records (put_record callers hash only their own
        # inputs) must still go cold on a library upgrade: the on-disk
        # key itself is derived from the cache's version, so the miss
        # does not depend on the load-time version filter alone.
        old = ResultCache(tmp_path, version="v1")
        old.put_record("step-7", {"mload": 1.5})
        assert old.get_record("step-7") == {"mload": 1.5}
        new = ResultCache(tmp_path, version="v2")
        assert new.get_record("step-7") is None
        assert old.record_key("step-7") != new.record_key("step-7")
        # both versions coexist in the same file without clobbering
        new.put_record("step-7", {"mload": 2.5})
        assert ResultCache(tmp_path, version="v1").get_record(
            "step-7") == {"mload": 1.5}
        assert ResultCache(tmp_path, version="v2").get_record(
            "step-7") == {"mload": 2.5}

    def test_record_key_bakes_in_schema(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, version="v1")
        cache.put_record("k", {"mload": 1.5})
        key_before = cache.record_key("k")
        monkeypatch.setattr(cache_mod, "RECORD_SCHEMA",
                            cache_mod.RECORD_SCHEMA + 1)
        bumped = ResultCache(tmp_path, version="v1")
        assert bumped.record_key("k") != key_before
        assert bumped.get_record("k") is None

    def test_directory_collision_rejected(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.raises(RunnerError, match="not a directory"):
            ResultCache(target)

    def test_missing_directory_is_empty_until_first_put(self, tmp_path):
        cache = ResultCache(tmp_path / "fresh")
        assert cache.get("k") is None  # no directory created by probing
        cache.put("k", _mk_result())
        assert (tmp_path / "fresh").is_dir()


class TestSourceFingerprint:
    """The code version is ``__version__`` plus a hash of the sources
    that decide results, so editing them turns the cache cold."""

    @staticmethod
    def _sources(root):
        for package in cache_mod.FINGERPRINTED:
            (root / package).mkdir(parents=True)
            (root / package / "__init__.py").write_text(f"# {package}\n")
        (root / "flit" / "kernel.c").write_text("int draw;\n")
        (root / "cli.py").write_text("# not fingerprinted\n")
        return root

    @pytest.fixture
    def sources(self, tmp_path, monkeypatch):
        root = self._sources(tmp_path / "src")
        monkeypatch.setattr(cache_mod, "_SOURCE_ROOT", str(root))
        cache_mod._code_version.cache_clear()
        yield root
        cache_mod._code_version.cache_clear()

    def test_only_fingerprinted_sources_count(self, sources):
        before = cache_mod.source_fingerprint(sources)
        (sources / "cli.py").write_text("# edited\n")
        (sources / "flit" / "__pycache__").mkdir()
        (sources / "flit" / "__pycache__" / "stale.py").write_text("x = 1\n")
        (sources / "flow" / "notes.txt").write_text("not a source\n")
        assert cache_mod.source_fingerprint(sources) == before
        (sources / "flit" / "kernel.c").write_text("int draws;\n")
        assert cache_mod.source_fingerprint(sources) != before

    def test_source_edit_changes_keys_and_old_entries_miss(
            self, sources, tmp_path):
        import repro
        from repro.flit.config import FlitConfig
        from repro.flit.engine import FlitSimulator
        from repro.routing.factory import make_scheme
        from repro.runner.sweep import point_key
        from repro.topology.variants import m_port_n_tree

        xgft = m_port_n_tree(4, 2)
        sim = FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), FlitConfig())
        v1 = cache_mod._code_version()
        assert v1.startswith(f"{repro.__version__}+src.")
        k1 = point_key("d-mod-k", sim, 0.3, 0)
        old = ResultCache(tmp_path / "cache")
        old.put(k1, _mk_result())
        old.put_record("step-1", {"mload": 1.5})

        (sources / "routing" / "__init__.py").write_text("# edited\n")
        assert cache_mod._code_version() == v1  # computed once per process
        cache_mod._code_version.cache_clear()
        v2 = cache_mod._code_version()
        assert v2 != v1 and v2.startswith(f"{repro.__version__}+src.")
        k2 = point_key("d-mod-k", sim, 0.3, 0)
        assert k2 != k1
        new = ResultCache(tmp_path / "cache")
        assert new.version == v2
        assert new.get(k1) is None and new.get(k2) is None
        assert new.get_record("step-1") is None
        assert new.stale_entries == 2
