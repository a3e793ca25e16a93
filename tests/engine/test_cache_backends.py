"""Cache conformance: the in-memory LRU and the sqlite store.

One suite runs against both stores: round trips, LRU eviction,
statistics, peek, clear, hot keys and warming.  Persistence across
instances, manifest warming of a fresh instance and corruption recovery
run on the sqlite store alone, the one persistent path.  Cache selection
by path and sqlite-specific behaviour (TTL, byte budgets, WAL
concurrency) get their own classes below.
"""

import json
import multiprocessing
import os
import sqlite3
import threading
import time

import pytest

from repro.engine import (
    Engine,
    QuantifyJob,
    ResultCache,
    SqliteCache,
    create_cache,
    read_manifest,
    write_manifest,
)
from repro.engine.cache import MISS
from repro.errors import EngineError
from repro.fta import FaultTree
from repro.fta.dsl import AND, hazard, primary


def small_tree() -> FaultTree:
    """A two-leaf tree with default probabilities (cacheable as-is)."""
    return FaultTree(hazard("H", gate=AND(
        "g", primary("a", 0.01), primary("b", 0.02)).gate))

#: Representative persistable payloads: scalars, matrix-shaped sweep
#: results, Monte Carlo envelopes, nested metadata.
PAYLOADS = {
    "scalar": 0.0003196,
    "none": None,
    "sweep": {"points": [{"T1": float(i), "T2": float(j)}
                         for i in range(8) for j in range(8)],
              "values": [0.001 * i for i in range(64)]},
    "mc": {"probability": 2.5e-4, "ci_low": 1e-4, "ci_high": 4e-4,
           "samples": 100000, "confidence": 0.95},
    "meta": {"flags": [True, False], "name": "tree-ü",
             "counts": list(range(40)), "empty": [], "sub": {"x": [0, 1.5]}},
}


@pytest.fixture(params=["memory", "sqlite"])
def make_cache(request, tmp_path):
    """Factory building a cache of the parametrized store.

    For sqlite, repeated calls reuse the same store path, so a second
    instance sees the first one's persisted entries; the store is built
    with ``recency_resolution=0`` so recency-sensitive LRU assertions
    hold exactly (the production default coalesces recency writes).
    """
    path = str(tmp_path / "store.db")

    def _make(capacity=64):
        if request.param == "sqlite":
            return SqliteCache(path, capacity=capacity,
                               recency_resolution=0.0)
        return ResultCache(capacity=capacity)

    _make.backend = request.param
    _make.path = path
    return _make


#: Tests of persistence across instances: the sqlite store only.
sqlite_only = pytest.mark.parametrize("make_cache", ["sqlite"],
                                      indirect=True)


class TestConformance:
    def test_round_trip_values(self, make_cache):
        cache = make_cache()
        for key, value in PAYLOADS.items():
            cache.put(key, value)
        for key, value in PAYLOADS.items():
            assert cache.get(key) == value
        assert cache.get("absent") is MISS

    @sqlite_only
    def test_round_trip_across_instances(self, make_cache):
        cache = make_cache()
        for key, value in PAYLOADS.items():
            cache.put(key, value)
        cache.save()
        cache.close()
        reloaded = make_cache()
        for key, value in PAYLOADS.items():
            assert reloaded.get(key) == value

    def test_stats_counters(self, make_cache):
        cache = make_cache()
        assert cache.get("k") is MISS
        cache.put("k", 1.5)
        assert cache.get("k") == 1.5
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_skips_stats_and_recency(self, make_cache):
        cache = make_cache(capacity=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.peek("a") == 1.0
        assert cache.peek("absent") is MISS
        assert cache.stats.lookups == 0
        # peek did not refresh "a": it is still the LRU victim.
        cache.put("c", 3.0)
        assert cache.peek("a") is MISS
        assert cache.peek("b") == 2.0

    def test_lru_eviction_order(self, make_cache):
        cache = make_cache(capacity=2)
        cache.put("a", 1.0)
        time.sleep(0.002)
        cache.put("b", 2.0)
        time.sleep(0.002)
        cache.get("a")                # refresh a; b is now LRU
        time.sleep(0.002)
        cache.put("c", 3.0)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0
        assert cache.stats.evictions == 1

    def test_contains_and_len(self, make_cache):
        cache = make_cache()
        cache.put("a", 1.0)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_clear_keeps_stats(self, make_cache):
        cache = make_cache()
        cache.put("a", 1.0)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is MISS
        assert cache.stats.hits == 1

    @sqlite_only
    def test_memory_only_entries_do_not_persist(self, make_cache):
        cache = make_cache()
        marker = object()
        cache.put("mem", marker, persist=False)
        cache.put("disk", 1.0)
        assert cache.get("mem") is marker
        cache.save()
        cache.close()
        reloaded = make_cache()
        assert reloaded.get("mem") is MISS
        assert reloaded.get("disk") == 1.0

    def test_hot_keys_order(self, make_cache):
        cache = make_cache()
        for i in range(4):
            cache.put(f"k{i}", float(i))
            time.sleep(0.002)
        cache.get("k0")               # k0 becomes hottest
        time.sleep(0.002)
        hot = cache.hot_keys(limit=2)
        assert hot[0] == "k0"
        assert len(hot) == 2

    @sqlite_only
    def test_warming_from_manifest(self, make_cache, tmp_path):
        cache = make_cache()
        for key, value in PAYLOADS.items():
            cache.put(key, value)
        manifest = str(tmp_path / "hot.json")
        assert write_manifest(
            manifest, list(PAYLOADS) + ["gone"]) == len(PAYLOADS) + 1
        assert read_manifest(manifest) == list(PAYLOADS) + ["gone"]
        cache.save()
        cache.close()
        fresh = make_cache()
        warmed = fresh.warm_from_manifest(manifest)
        assert warmed == len(PAYLOADS)       # "gone" was never stored
        assert fresh.stats.lookups == 0      # warming is not workload
        for key, value in PAYLOADS.items():
            assert fresh.get(key) == value

    def test_warming_marks_entries_hot(self, make_cache):
        cache = make_cache(capacity=2)
        cache.put("cold", 1.0)
        time.sleep(0.002)
        cache.put("other", 2.0)
        time.sleep(0.002)
        assert cache.warm(["cold"]) == 1
        time.sleep(0.002)
        cache.put("new", 3.0)        # evicts "other", not warmed "cold"
        assert cache.peek("cold") == 1.0
        assert cache.peek("other") is MISS

    @sqlite_only
    def test_corrupt_store_recovers_empty(self, make_cache):
        with open(make_cache.path, "wb") as handle:
            handle.write(b"\x13garbage that is neither json nor sqlite")
        cache = make_cache()
        assert len(cache) == 0
        assert cache.get("anything") is MISS
        assert os.path.exists(make_cache.path + ".corrupt")
        # And the store works again afterwards.
        cache.put("k", 1.0)
        cache.save()
        cache.close()
        assert make_cache().get("k") == 1.0

    def test_info_payload(self, make_cache):
        cache = make_cache(capacity=8)
        cache.put("a", 1.0)
        cache.get("a")
        cache.get("b")
        info = cache.info()
        assert info["backend"] == make_cache.backend
        assert info["size"] == 1
        assert info["capacity"] == 8
        assert info["hits"] == 1 and info["misses"] == 1
        assert "evictions" in info
        assert json.dumps(info)      # JSON-safe for /stats

    def test_engine_round_trip_through_backend(self, make_cache):
        engine = Engine(workers=1, cache=make_cache())
        first = engine.run_shared(QuantifyJob(small_tree()))
        second = engine.run_shared(QuantifyJob(small_tree()))
        assert not first.cache_hit and second.cache_hit
        assert second.result == first.result
        assert engine.executed == 1
        assert engine.cache.info()["backend"] == make_cache.backend


class TestCreateCache:
    def test_no_path_gives_memory(self):
        cache = create_cache(capacity=8)
        assert isinstance(cache, ResultCache)
        assert cache.info()["backend"] == "memory"
        assert cache.capacity == 8

    def test_any_path_gives_sqlite(self, tmp_path):
        for name in ("c.db", "c.json", "c"):
            cache = create_cache(path=str(tmp_path / name))
            assert isinstance(cache, SqliteCache)
            assert cache.info()["backend"] == "sqlite"
            cache.close()

    def test_engine_wires_backend_selection(self, tmp_path):
        assert isinstance(Engine().cache, ResultCache)
        for name in ("e.db", "e.json", "e"):
            path = str(tmp_path / name)
            engine = Engine(workers=1, cache_path=path)
            assert isinstance(engine.cache, SqliteCache)
            engine.run(QuantifyJob(small_tree()))
            engine.save_cache()
            engine.cache.close()
            reopened = Engine(workers=1, cache_path=path)
            assert reopened.run_shared(QuantifyJob(small_tree())).cache_hit
            reopened.cache.close()

    def test_bounds_need_a_path(self, tmp_path):
        with pytest.raises(EngineError):
            create_cache(ttl=10.0)
        with pytest.raises(EngineError):
            create_cache(max_bytes=100)
        with pytest.raises(EngineError):
            Engine(cache_ttl=10.0)
        with pytest.raises(EngineError):
            Engine(cache_max_bytes=100)
        cache = create_cache(path=str(tmp_path / "x.db"), ttl=60.0,
                             max_bytes=1 << 20)
        assert cache.ttl == 60.0 and cache.max_bytes == 1 << 20

    def test_sqlite_requires_path(self):
        with pytest.raises(EngineError):
            SqliteCache("")

    def test_json_store_is_refused_in_place(self, tmp_path):
        # The format earlier versions of the in-memory cache saved.
        path = tmp_path / "results-cache.json"
        path.write_text(json.dumps(
            {"entries": {"ab12": 0.5}, "version": 1}, sort_keys=True))
        before = path.read_bytes()
        with pytest.raises(EngineError, match="results-cache.json"):
            SqliteCache(str(path))
        with pytest.raises(EngineError, match="results-cache.json"):
            Engine(cache_path=str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["results-cache.json"]


class TestSqliteSpecific:
    def test_ttl_expiry_reads_as_miss(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "t.db"), ttl=0.05)
        cache.put("k", 1.0)
        assert cache.get("k") == 1.0
        time.sleep(0.1)
        assert cache.get("k") is MISS
        assert cache.stats.evictions == 1
        assert "k" not in cache

    def test_ttl_purge_on_put(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "t.db"), ttl=0.05)
        cache.put("old", 1.0)
        time.sleep(0.1)
        cache.put("new", 2.0)
        assert cache.stats.evictions == 1
        assert len(cache) == 1

    def test_max_bytes_evicts_oldest(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "b.db"), max_bytes=4096,
                            recency_resolution=0.0)
        big = [1.0] * 40               # ~370 bytes encoded
        for i in range(32):
            cache.put(f"k{i}", big)
            time.sleep(0.001)
        assert cache.stats.evictions > 0
        total = sum(row[0] for row in sqlite3.connect(
            str(tmp_path / "b.db")).execute(
            "SELECT nbytes FROM cache"))
        assert total <= 4096
        assert cache.peek("k31") == big       # newest survives
        assert cache.peek("k0") is MISS       # oldest evicted

    def test_oversized_entry_still_lands(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "b.db"), max_bytes=64)
        cache.put("huge", [1.0] * 1000)
        assert cache.get("huge") == [1.0] * 1000

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(EngineError):
            SqliteCache(str(tmp_path / "x.db"), ttl=0)
        with pytest.raises(EngineError):
            SqliteCache(str(tmp_path / "x.db"), max_bytes=-1)

    def test_wal_mode_is_active(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "w.db"))
        cache.put("k", 1.0)
        mode = cache._conn().execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_save_to_other_path_backs_up(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "a.db"))
        cache.put("k", [1.0] * 100)
        assert cache.save(str(tmp_path / "copy.db")) == 1
        copy = SqliteCache(str(tmp_path / "copy.db"))
        assert copy.get("k") == [1.0] * 100

    def test_load_merges_other_store(self, tmp_path):
        donor = SqliteCache(str(tmp_path / "donor.db"))
        donor.put("x", 1.0)
        donor.close()
        cache = SqliteCache(str(tmp_path / "main.db"))
        cache.put("y", 2.0)
        assert cache.load(str(tmp_path / "donor.db")) == 1
        assert cache.peek("x") == 1.0 and cache.peek("y") == 2.0

    def test_load_rejects_garbage_file(self, tmp_path):
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a database at all")
        cache = SqliteCache(str(tmp_path / "main.db"))
        with pytest.raises(EngineError):
            cache.load(str(garbage))

    def test_truncated_database_recovers(self, tmp_path):
        path = str(tmp_path / "t.db")
        cache = SqliteCache(path)
        cache.put("k", [1.0] * 500)
        cache.save()
        cache.close()
        with open(path, "r+b") as handle:   # truncate mid-page
            handle.truncate(100)
        recovered = SqliteCache(path)
        assert recovered.get("k") is MISS
        recovered.put("k2", 2.0)
        assert recovered.get("k2") == 2.0

    def test_concurrent_threads_read_and_write(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"), capacity=512)
        for i in range(16):
            cache.put(f"seed-{i}", [float(i)] * 32)
        errors = []

        def hammer(index):
            try:
                for i in range(40):
                    key = f"seed-{(index + i) % 16}"
                    assert cache.get(key) == [float((index + i) % 16)] * 32
                    cache.put(f"w{index}-{i}", {"v": i})
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.stats.hits == 8 * 40
        assert cache.stats.puts == 16 + 8 * 40


def _read_worker(path, keys, out):
    cache = SqliteCache(path)
    try:
        out.put([cache.get(key) is not MISS for key in keys])
    finally:
        cache.close()


class TestMultiProcess:
    def test_processes_share_one_store(self, tmp_path):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            pytest.skip("fork start method unavailable")
        path = str(tmp_path / "shared.db")
        cache = SqliteCache(path)
        keys = [f"k{i}" for i in range(8)]
        for key in keys:
            cache.put(key, PAYLOADS["sweep"])
        cache.save()
        out = context.Queue()
        procs = [context.Process(target=_read_worker,
                                 args=(path, keys, out))
                 for _ in range(3)]
        for proc in procs:
            proc.start()
        results = [out.get(timeout=30) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
        assert all(all(found) for found in results)
