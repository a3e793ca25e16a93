"""Result cache: LRU behaviour, statistics, the store behind a path."""

import pytest

from repro.engine import ResultCache
from repro.engine.cache import MISS, create_cache
from repro.errors import EngineError


class TestLRU:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is MISS
        cache.put("k", 1.0)
        assert cache.get("k") == 1.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_cached_none_is_distinguished_from_miss(self):
        cache = ResultCache(capacity=4)
        cache.put("k", None)
        assert cache.get("k") is None
        assert cache.get("other") is MISS

    def test_eviction_order_is_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # overwrite refreshes a
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError):
            ResultCache(capacity=0)

    def test_clear_keeps_stats(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1


class TestNoStore:
    def test_memory_cache_has_no_path(self):
        cache = ResultCache(capacity=2)
        assert cache.name == "memory"
        assert cache.path is None
        assert cache.info()["backend"] == "memory"

    def test_save_and_load_raise(self, tmp_path):
        cache = ResultCache(capacity=2)
        cache.put("k", 1.0)
        with pytest.raises(EngineError):
            cache.save()
        with pytest.raises(EngineError):
            cache.save(str(tmp_path / "c.db"))
        with pytest.raises(EngineError):
            cache.load(str(tmp_path / "c.db"))
        assert list(tmp_path.iterdir()) == []

    def test_memory_only_flag_is_accepted(self):
        cache = ResultCache(capacity=2)
        marker = object()
        cache.put("k", marker, persist=False)
        assert cache.get("k") is marker


class TestPersistence:
    """Any cache path opens the persistent store; entries outlive it."""

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.db")
        cache = create_cache(path=path, capacity=8)
        cache.put("a", 0.125)
        cache.put("b", {"points": [{"x": 1.0}], "values": [0.5]})
        assert cache.save() == 2
        cache.close()

        loaded = create_cache(path=path, capacity=8)
        assert loaded.get("a") == 0.125
        assert loaded.get("b") == {"points": [{"x": 1.0}],
                                   "values": [0.5]}
        loaded.close()

    def test_non_persistable_entries_stay_in_memory(self, tmp_path):
        path = str(tmp_path / "cache.db")
        cache = create_cache(path=path, capacity=8)
        marker = object()
        cache.put("mem", marker, persist=False)
        cache.put("disk", 1.0)
        assert cache.get("mem") is marker
        assert cache.save() == 1
        cache.close()
        loaded = create_cache(path=path, capacity=8)
        assert loaded.get("mem") is MISS
        assert loaded.get("disk") == 1.0
        loaded.close()

    def test_constructor_quarantines_corrupt_file(self, tmp_path):
        path = tmp_path / "cache.db"
        path.write_bytes(b"\x13not an sqlite store")
        cache = create_cache(path=str(path), capacity=2)
        assert len(cache) == 0
        assert cache.get("anything") is MISS
        assert (tmp_path / "cache.db.corrupt").exists()
        # The store is usable again: a save-and-reopen round trips.
        cache.put("k", 1.0)
        cache.save()
        cache.close()
        reopened = create_cache(path=str(path), capacity=2)
        assert reopened.get("k") == 1.0
        reopened.close()
