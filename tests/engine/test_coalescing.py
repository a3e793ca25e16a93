"""Concurrent engine use: coalescing, thread-safe cache, outcomes.

The service layer's contract with the engine: N threads submitting the
same fingerprint trigger exactly one computation and all receive equal
(byte-equal through the JSON envelope) results; distinct fingerprints
all compute; the shared cache survives a concurrent hammering with
consistent statistics.
"""

import json
import threading
import time

import pytest

from repro.engine import (
    Engine,
    MonteCarloJob,
    QuantifyJob,
    ResultCache,
    RunOutcome,
    SqliteCache,
    SweepJob,
)
from repro.engine.jobs import Job
from repro.errors import EngineError
from repro.fta import FaultTree
from repro.fta.dsl import AND, hazard, primary


def small_tree(seed_probability=0.1):
    top = hazard("H", OR_gate=[
        AND("AB", primary("A", seed_probability), primary("B", 0.2)),
        primary("C", 0.05)])
    return FaultTree(top)


def run_threads(count, target):
    """Start ``count`` threads on ``target(index)``; join them all."""
    errors = []

    def wrap(index):
        try:
            target(index)
        except BaseException as exc:  # pragma: no cover - test plumbing
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class SlowJob(Job):
    """A controllable job: blocks until released, counts executions."""

    kind = "slow"

    def __init__(self, token, gate=None, fail=False):
        self.token = token
        self.gate = gate
        self.fail = fail
        self.executions = 0

    def _fingerprint_parts(self):
        return (self.token,)

    def run_serial(self):
        if self.gate is not None:
            self.gate.wait(timeout=10.0)
        self.executions += 1
        if self.fail:
            raise EngineError(f"boom {self.token}")
        return {"token": self.token}

    def describe(self):
        return f"slow {self.token}"


class TestCoalescing:
    def test_identical_jobs_compute_once(self):
        engine = Engine(workers=1)
        job = MonteCarloJob(small_tree(), samples=20_000, seed=3)
        outcomes = [None] * 8

        def submit(index):
            # Fresh, structurally identical job objects per thread:
            # coalescing keys on content, not identity.
            mine = MonteCarloJob(small_tree(), samples=20_000, seed=3)
            outcomes[index] = engine.run_shared(mine)

        run_threads(8, submit)
        assert engine.executed == 1
        assert engine.coalesced + \
            sum(1 for o in outcomes if o.cache_hit) == 7
        fingerprints = {o.fingerprint for o in outcomes}
        assert fingerprints == {job.fingerprint()}
        # All callers see byte-equal results through the JSON envelope.
        encoded = {json.dumps(MonteCarloJob.encode_result(o.result),
                              sort_keys=True) for o in outcomes}
        assert len(encoded) == 1
        # Exactly one outcome actually computed.
        assert sum(1 for o in outcomes if o.computed) == 1

    def test_distinct_jobs_all_compute(self):
        engine = Engine(workers=1)
        outcomes = [None] * 6

        def submit(index):
            job = QuantifyJob(small_tree(0.01 * (index + 1)),
                              method="exact")
            outcomes[index] = engine.run_shared(job)

        run_threads(6, submit)
        assert engine.executed == 6
        assert engine.coalesced == 0
        assert len({o.fingerprint for o in outcomes}) == 6
        assert all(o.computed for o in outcomes)

    def test_followers_block_until_leader_finishes(self):
        engine = Engine(workers=1)
        release = threading.Event()
        outcomes = [None] * 4

        def submit(index):
            outcomes[index] = engine.run_shared(
                SlowJob("t", gate=release))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        # Let every thread reach the in-flight registry, then release.
        deadline = time.time() + 5.0
        while engine.inflight == 0 and time.time() < deadline:
            time.sleep(0.001)
        assert engine.inflight == 1
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert engine.executed == 1
        assert [o.result for o in outcomes] == [{"token": "t"}] * 4
        # Followers may also have landed after completion (cache hit);
        # either way nobody recomputed.
        assert sum(1 for o in outcomes if o.computed) == 1

    def test_leader_failure_propagates_to_followers(self):
        engine = Engine(workers=1)
        release = threading.Event()
        failures = []

        def submit(index):
            try:
                engine.run_shared(SlowJob("bad", gate=release,
                                          fail=True))
            except EngineError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.time() + 5.0
        while engine.inflight == 0 and time.time() < deadline:
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(failures) == 3
        assert all("boom bad" in message for message in failures)
        # A failed computation must not poison the fingerprint: a new
        # submission computes again.
        ok = engine.run_shared(SlowJob("bad"))
        assert ok.result == {"token": "bad"}

    def test_follower_timeout(self):
        engine = Engine(workers=1)
        release = threading.Event()
        leader_started = threading.Event()

        def lead():
            class Signalling(SlowJob):
                def run_serial(self):
                    leader_started.set()
                    return super().run_serial()
            engine.run_shared(Signalling("slow", gate=release))

        leader = threading.Thread(target=lead)
        leader.start()
        assert leader_started.wait(timeout=5.0)
        with pytest.raises(EngineError, match="timed out"):
            engine.run_shared(SlowJob("slow"), timeout=0.05)
        release.set()
        leader.join(timeout=10.0)

    def test_compute_slots_gate_and_timeout(self):
        engine = Engine(workers=1)
        slots = threading.Semaphore(1)
        release = threading.Event()
        started = threading.Event()

        def lead():
            class Signalling(SlowJob):
                def run_serial(self):
                    started.set()
                    return super().run_serial()
            engine.run_shared(Signalling("a", gate=release), slots=slots)

        leader = threading.Thread(target=lead)
        leader.start()
        assert started.wait(timeout=5.0)
        # A *different* fingerprint cannot get a slot while the leader
        # holds the only one.
        with pytest.raises(EngineError, match="compute slot"):
            engine.run_shared(SlowJob("b"), timeout=0.05, slots=slots)
        release.set()
        leader.join(timeout=10.0)
        # Slot released after the computation: next job proceeds.
        assert engine.run_shared(SlowJob("b"), slots=slots).computed

    def test_cache_hits_bypass_slots(self):
        engine = Engine(workers=1)
        job = QuantifyJob(small_tree(), method="exact")
        engine.run_shared(job)
        # A zero-capacity gate would block any computation; the warm
        # path must not touch it.
        exhausted = threading.Semaphore(0)
        outcome = engine.run_shared(QuantifyJob(small_tree(),
                                                method="exact"),
                                    timeout=0.05, slots=exhausted)
        assert outcome.cache_hit


class TestRunOutcome:
    def test_provenance_fields(self):
        engine = Engine(workers=1)
        job = QuantifyJob(small_tree(), method="exact")
        cold = engine.run_shared(job)
        assert isinstance(cold, RunOutcome)
        assert cold.computed and not cold.cache_hit \
            and not cold.coalesced
        warm = engine.run_shared(QuantifyJob(small_tree(),
                                             method="exact"))
        assert warm.cache_hit and not warm.computed
        assert warm.result == cold.result
        assert warm.fingerprint == cold.fingerprint
        assert cold.wall_time >= warm.wall_time >= 0.0
        payload = warm.as_dict()
        assert payload["cache_hit"] is True
        assert "result" not in payload

    def test_run_all_shared_matches_run_all(self):
        engine = Engine(workers=1)
        jobs = [QuantifyJob(small_tree(0.01 * i), method="exact")
                for i in range(1, 4)]
        for job in jobs:
            engine.submit(job)
        outcomes = engine.run_all_shared()
        assert engine.pending == 0
        assert [o.fingerprint for o in outcomes] == \
            [job.fingerprint() for job in jobs]
        for job in jobs:
            engine.submit(job)
        assert engine.run_all() == [o.result for o in outcomes]

    def test_engine_stats_report_coalescing(self):
        engine = Engine(workers=1)
        release = threading.Event()

        def submit(index):
            engine.run_shared(SlowJob("s", gate=release))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.time() + 5.0
        while engine.inflight == 0 and time.time() < deadline:
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        stats = engine.stats()
        assert stats.executed == 1
        assert stats.coalesced == engine.coalesced
        assert stats.inflight == 0
        if stats.coalesced:
            assert f"coalesced={stats.coalesced}" in stats.summary()


class TestThreadSafeCache:
    def test_concurrent_hammer_keeps_consistent_stats(self):
        cache = ResultCache(capacity=64)
        rounds = 200

        def hammer(index):
            for i in range(rounds):
                key = f"k{(index * rounds + i) % 96}"
                cache.put(key, [index, i])
                cache.get(key)
                cache.get(f"missing-{index}")
                len(cache)

        run_threads(8, hammer)
        stats = cache.stats
        assert len(cache) <= 64
        assert stats.puts == 8 * rounds
        assert stats.misses >= 8 * rounds
        assert stats.lookups == stats.hits + stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_info_snapshot(self, tmp_path):
        path = str(tmp_path / "cache.db")
        cache = SqliteCache(path, capacity=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        info = cache.info()
        assert info["size"] == 1
        assert info["capacity"] == 8
        assert info["path"] == path
        assert info["hits"] == 1 and info["misses"] == 1
        assert json.dumps(info)  # JSON-safe for the /stats endpoint

    def test_concurrent_save_and_put(self, tmp_path):
        path = str(tmp_path / "cache.db")
        cache = SqliteCache(path, capacity=256)
        for i in range(32):
            cache.put(f"seed-{i}", i)

        def writer(index):
            for i in range(50):
                cache.put(f"w{index}-{i}", {"v": i})

        def saver(index):
            for _ in range(10):
                cache.save()

        run_threads(4, lambda i: (writer(i) if i % 2 else saver(i)))
        # The last save may predate the last put; saving once more
        # captures a consistent final snapshot.
        count = cache.save()
        reloaded = SqliteCache(path, capacity=256)
        assert len(reloaded) == count == len(cache)

    def test_sweep_results_byte_equal_across_threads(self):
        engine = Engine(workers=1)
        axes = {"pa": [0.01, 0.02, 0.03], "pb": [0.1, 0.2]}
        encoded = []
        lock = threading.Lock()

        def submit(index):
            from repro.core import identity
            job = SweepJob.from_axes(
                small_tree(), {"A": identity("pa"), "B": identity("pb")},
                axes, method="exact")
            outcome = engine.run_shared(job)
            with lock:
                encoded.append(json.dumps(
                    SweepJob.encode_result(outcome.result),
                    sort_keys=True))

        run_threads(6, submit)
        assert engine.executed == 1
        assert len(set(encoded)) == 1
