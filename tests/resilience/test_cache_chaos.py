"""Cache chaos: the degradation chain under injected and real faults.

Contract: a failing cache never fails a job and never returns a wrong
value.  Reads degrade to misses, writes degrade to retry → in-memory
fallback, and every degradation is visible in the stats.
"""

import os

import pytest

from repro.engine import ResultCache, SqliteCache
from repro.engine.cache import MISS
from repro.errors import EngineError
from repro.resilience import FaultPlan


class TestResultCacheFaults:
    def test_get_fault_reads_as_miss(self):
        cache = ResultCache()
        cache.put("k", 42)
        plan = FaultPlan().inject("cache.get", "io_error", times=1)
        cache.set_fault_plan(plan)
        assert cache.get("k") is MISS
        assert cache.get("k") == 42  # fault window exhausted
        assert cache.stats.degraded == 1
        assert cache.stats.misses == 1

    def test_put_fault_drops_write_silently(self):
        cache = ResultCache()
        plan = FaultPlan().inject("cache.put", "io_error", times=1)
        cache.set_fault_plan(plan)
        cache.put("k", 42)
        assert cache.peek("k") is MISS
        assert cache.stats.degraded == 1
        cache.put("k", 42)
        assert cache.get("k") == 42


class TestSqliteGetFaults:
    def test_get_fault_resets_store_and_recovers(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"))
        cache.put("k", [1, 2, 3])
        plan = FaultPlan().inject("cache.get", "io_error", times=1)
        cache.set_fault_plan(plan)
        # The failed lookup reads as a miss; the reset wipes the store.
        assert cache.get("k") is MISS
        assert cache.stats.degraded == 1
        assert not cache.degraded_mode
        cache.put("k", [1, 2, 3])
        assert cache.get("k") == [1, 2, 3]
        cache.close()

    def test_truncated_payload_drops_entry_only(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"))
        cache.put("bad", list(range(64)))
        cache.put("good", "intact")
        plan = FaultPlan().inject("payload.decode", "truncate",
                                  indices=(0,), keep_bytes=4)
        cache.set_fault_plan(plan)
        # The mangled entry is dropped — a corrupt *entry*, not a
        # corrupt store, so the healthy entry survives untouched.
        assert cache.get("bad") is MISS
        assert cache.stats.degraded == 1
        assert cache.get("good") == "intact"
        assert cache.get("bad") is MISS
        cache.close()

    def test_real_mid_operation_corruption(self, tmp_path):
        path = str(tmp_path / "c.db")
        cache = SqliteCache(path)
        cache.put("k", list(range(5000)))
        cache.close()
        # Smash pages past the header: the file still opens, but the
        # row lookup hits the corrupt page mid-operation.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(min(4096, size // 2))
            handle.write(b"\xff" * 4096)
        reopened = SqliteCache(path)
        assert reopened.get("k") is MISS
        assert reopened.stats.degraded >= 1
        # The quarantine + reinit left a healthy store behind.
        reopened.put("k2", "fresh")
        assert reopened.get("k2") == "fresh"
        assert not reopened.degraded_mode
        reopened.close()


class TestSqlitePutFaults:
    def test_put_fault_retries_once_and_lands(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"))
        plan = FaultPlan().inject("cache.put", "io_error", times=1)
        cache.set_fault_plan(plan)
        cache.put("k", {"a": 1})
        assert cache.stats.retries == 1
        assert cache.stats.degraded == 1
        # The retry wrote through to the (reset) persistent store.
        assert cache.get("k") == {"a": 1}
        assert not cache.degraded_mode
        cache.close()

    def test_put_fault_with_dead_store_falls_back_to_memory(
            self, tmp_path):
        import shutil
        directory = tmp_path / "store"
        cache = SqliteCache(str(directory / "c.db"))
        plan = FaultPlan().inject("cache.put", "io_error", times=None)
        cache.set_fault_plan(plan)
        shutil.rmtree(str(directory))  # reset can no longer reinit
        cache.put("k", 7)
        # The write survived in memory even though the store is gone.
        assert cache.get("k") == 7
        assert cache.degraded_mode
        cache.close()


class TestPermanentDegradation:
    def _degrade(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"))
        plan = FaultPlan().inject("cache.get", "io_error", times=None)
        cache.set_fault_plan(plan)
        for _ in range(cache._MAX_STORE_FAILURES):
            assert cache.get("k") is MISS
        assert cache.degraded_mode
        return cache

    def test_three_consecutive_failures_degrade_permanently(
            self, tmp_path):
        cache = self._degrade(tmp_path)
        # Further reads no longer touch the store at all.
        calls_before = cache._plan.calls("cache.get")
        assert cache.get("k") is MISS
        assert cache._plan.calls("cache.get") == calls_before
        cache.close()

    def test_degraded_cache_still_serves_from_memory(self, tmp_path):
        cache = self._degrade(tmp_path)
        cache.put("k", "memory-only")
        assert cache.get("k") == "memory-only"
        assert "k" in cache
        cache.close()

    def test_degraded_mode_is_honest_in_stats(self, tmp_path):
        cache = self._degrade(tmp_path)
        info = cache.info()
        assert info["degraded_mode"] is True
        assert cache.stats.degraded >= cache._MAX_STORE_FAILURES
        assert "degraded" in cache.stats.as_dict()
        cache.close()

    def test_degraded_save_and_load_refuse_quietly(self, tmp_path):
        cache = self._degrade(tmp_path)
        cache.put("k", 1)
        assert cache.save(str(tmp_path / "snap.db")) == 0
        with pytest.raises(EngineError):
            cache.load(str(tmp_path / "snap.db"))
        cache.close()


class TestHealthySuppression:
    def test_no_plan_means_zero_overhead_paths(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"))
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.stats.degraded == 0
        assert cache.stats.retries == 0
        assert cache.info()["degraded_mode"] is False
        cache.close()

    def test_success_resets_consecutive_failure_count(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.db"))
        # Two failures, a success, two more failures: never reaches
        # the permanent-degradation threshold of three *consecutive*.
        plan = FaultPlan().inject("cache.get", "io_error",
                                  indices=(0, 1, 3, 4))
        cache.set_fault_plan(plan)
        for _ in range(2):
            assert cache.get("k") is MISS
        assert cache.get("k") is MISS  # healthy miss resets the count
        for _ in range(2):
            assert cache.get("k") is MISS
        assert not cache.degraded_mode
        cache.close()
