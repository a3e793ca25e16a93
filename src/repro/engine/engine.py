"""The :class:`Engine` façade: jobs → cache → worker pool.

The engine is the one object callers hold: submit declarative jobs
(:mod:`repro.engine.jobs`), run them, and let the engine content-address
every result so repeated requests — the same fault tree quantified at
the same points by an optimizer, a parameter study re-run with one axis
changed, a Monte Carlo check repeated across sessions via the disk cache
— cost a dictionary lookup instead of a recomputation.

One engine may be shared by many threads (the :mod:`repro.serve`
service runs every client request through a single engine): the cache
is internally locked, the activity counters are guarded, and
:meth:`Engine.run_shared` adds **request coalescing** — an in-flight
registry keyed by job fingerprint, so concurrent submissions of the
same job share one computation instead of racing to repeat it.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.cache import MISS, CacheBackend, CacheStats, create_cache
from repro.engine.jobs import Job
from repro.engine.pool import WorkerPool
from repro.errors import EngineError
from repro.resilience import FaultPlan, RetryPolicy

log = logging.getLogger("repro.engine")


@dataclass
class EngineStats:
    """A snapshot of one engine's activity."""

    workers: int
    submitted: int
    executed: int
    cache_size: int
    cache: Dict[str, float] = field(default_factory=dict)
    coalesced: int = 0
    inflight: int = 0
    #: Module-cache and sifting counters from incremental sessions run
    #: through this engine (see ``repro.incremental.IncrementalStats``).
    incremental: Dict[str, int] = field(default_factory=dict)
    #: Operations absorbed by a degradation path (cache store failures
    #: turned into misses / memory-only writes).  0 on healthy runs.
    degraded: int = 0
    #: Transient-failure re-executions (pool shards + cache store ops).
    retries: int = 0
    #: Shards recovered serially after a worker death.
    recovered: int = 0
    #: Faults fired by an attached :class:`~repro.resilience.FaultPlan`
    #: in this process (worker-side fires surface as ``recovered``).
    faults_injected: int = 0

    def summary(self) -> str:
        """A compact human-readable stats line."""
        line = (f"workers={self.workers} submitted={self.submitted} "
                f"executed={self.executed} cache_size={self.cache_size} "
                f"hits={self.cache.get('hits', 0):.0f} "
                f"misses={self.cache.get('misses', 0):.0f} "
                f"hit_rate={self.cache.get('hit_rate', 0.0):.1%}"
                + (f" coalesced={self.coalesced}" if self.coalesced
                   else ""))
        if self.degraded or self.retries or self.recovered \
                or self.faults_injected:
            line += (f" degraded={self.degraded} retries={self.retries} "
                     f"recovered={self.recovered} "
                     f"faults_injected={self.faults_injected}")
        return line


@dataclass(frozen=True)
class RunOutcome:
    """How one :meth:`Engine.run_shared` call obtained its result.

    Exactly one of three things happened: the result was served from
    the cache (``cache_hit``), this call waited on another thread's
    identical in-flight computation (``coalesced``), or this call ran
    the job itself (``computed``).
    """

    result: Any
    fingerprint: str
    cache_hit: bool
    coalesced: bool
    wall_time: float

    @property
    def computed(self) -> bool:
        """True when this call performed the actual computation."""
        return not (self.cache_hit or self.coalesced)

    def as_dict(self) -> Dict[str, Any]:
        """The JSON-safe provenance fields (without the result)."""
        return {"fingerprint": self.fingerprint,
                "cache_hit": self.cache_hit,
                "coalesced": self.coalesced,
                "wall_time_s": self.wall_time}


class _InFlight:
    """One in-progress computation other threads may latch onto."""

    __slots__ = ("done", "encoded", "error", "followers")

    def __init__(self):
        self.done = threading.Event()
        self.encoded: Any = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class Engine:
    """Parallel batch evaluation with content-addressed result caching.

    Parameters
    ----------
    workers:
        Worker processes for shardable jobs (``None`` = CPU count;
        1 = fully serial, no subprocesses).
    cache:
        A pre-built :class:`~repro.engine.cache.CacheBackend` to share
        between engines; mutually exclusive with the other ``cache_*``
        parameters.
    cache_capacity:
        Entry capacity of the engine-owned cache.
    cache_path:
        Optional sqlite store file backing the cache across sessions;
        without one the cache is an in-memory LRU (see
        :func:`~repro.engine.cache.create_cache`).
    cache_ttl / cache_max_bytes:
        Expiry and byte-budget eviction of the store (need a path).
    warm_manifest:
        Optional manifest of hot fingerprints
        (:func:`~repro.engine.cache.write_manifest`) pre-warmed into
        the cache before the first job runs.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` threaded into the
        worker pool and the cache backend — the chaos-testing hook.
        ``None`` (the default) costs one attribute check per site.
    retry:
        :class:`~repro.resilience.RetryPolicy` for transient shard
        failures in the worker pool (default: 3 attempts).
    """

    def __init__(self, workers: Optional[int] = 1,
                 cache: Optional[CacheBackend] = None,
                 cache_capacity: int = 1024,
                 cache_path: Optional[str] = None,
                 cache_ttl: Optional[float] = None,
                 cache_max_bytes: Optional[int] = None,
                 warm_manifest: Optional[str] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None):
        self.fault_plan = fault_plan
        self.pool = WorkerPool(workers, retry=retry,
                               fault_plan=fault_plan)
        if cache is not None:
            if cache_path is not None:
                raise EngineError(
                    "pass either a cache object or a cache_path, not both")
            self.cache = cache
        else:
            self.cache = create_cache(path=cache_path,
                                      capacity=cache_capacity,
                                      ttl=cache_ttl,
                                      max_bytes=cache_max_bytes)
        if fault_plan is not None:
            self.cache.set_fault_plan(fault_plan)
        if warm_manifest is not None:
            warmed = self.cache.warm_from_manifest(warm_manifest)
            log.info("warmed %d cache entries from manifest %r",
                     warmed, warm_manifest)
        # Shared module-cache/sifting counters for incremental sessions
        # (import at construction time: repro.incremental builds on this
        # package, so a module-level import would be circular).
        from repro.incremental.session import IncrementalStats
        self.incremental = IncrementalStats()
        self._pending: List[Job] = []
        self.submitted = 0
        self.executed = 0
        self.coalesced = 0
        self._inflight: Dict[str, _InFlight] = {}
        # One lock for the in-flight registry, the pending queue and the
        # counters; cache access nests its own (leaf) lock underneath.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Queue a job for the next :meth:`run_all`; returns the job."""
        if not isinstance(job, Job):
            raise EngineError(
                f"expected an engine Job, got {type(job).__name__}")
        with self._lock:
            self._pending.append(job)
            self.submitted += 1
        return job

    @property
    def pending(self) -> int:
        """Number of submitted jobs not yet run."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Number of computations currently running in some thread."""
        with self._lock:
            return len(self._inflight)

    def run(self, job: Job) -> Any:
        """Run one job immediately (cache consulted first)."""
        return self.run_shared(job).result

    def run_shared(self, job: Job, timeout: Optional[float] = None,
                   slots: Optional[threading.Semaphore] = None
                   ) -> RunOutcome:
        """Run one job, sharing any identical in-flight computation.

        The first thread to request a fingerprint becomes its *leader*
        and computes; every thread that requests the same fingerprint
        while the leader runs becomes a *follower* and blocks on the
        leader's completion event instead of recomputing — K concurrent
        identical submissions cost exactly one engine execution.
        Followers decode their result from the leader's encoded payload,
        so every caller receives an equal (for persistable jobs,
        byte-equal through the JSON envelope) result.

        Parameters
        ----------
        timeout:
            Seconds a follower waits for the leader (and a leader waits
            for ``slots``) before an :class:`EngineError` is raised;
            ``None`` waits indefinitely.
        slots:
            Optional semaphore bounding concurrent *computations* — the
            service layer's back-pressure hook.  Cache hits and
            coalesced waits never consume a slot.
        """
        if not isinstance(job, Job):
            raise EngineError(
                f"expected an engine Job, got {type(job).__name__}")
        key = job.fingerprint()
        start = time.perf_counter()
        # The warm-path lookup runs *outside* the engine lock so that a
        # backend with genuinely concurrent readers (sqlite WAL) serves
        # parallel cache hits in parallel; only the miss path takes the
        # lock to join or found an in-flight computation.
        cached = self.cache.get(key)
        if cached is not MISS:
            result = job.decode_result(cached) if job.persistable \
                else cached
            return RunOutcome(result, key, True, False,
                              time.perf_counter() - start)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                # Re-check under the lock (stats-free peek): a leader
                # may have finished between the lookup above and here,
                # and becoming leader again would recompute it.
                cached = self.cache.peek(key)
                if cached is not MISS:
                    result = job.decode_result(cached) \
                        if job.persistable else cached
                    return RunOutcome(result, key, True, False,
                                      time.perf_counter() - start)
                entry = _InFlight()
                self._inflight[key] = entry
                leader = True
            else:
                entry.followers += 1
                leader = False
        if leader:
            return self._run_leader(job, key, entry, timeout, slots,
                                    start)
        return self._wait_follower(job, key, entry, timeout, start)

    def _run_leader(self, job: Job, key: str, entry: _InFlight,
                    timeout: Optional[float],
                    slots: Optional[threading.Semaphore],
                    start: float) -> RunOutcome:
        try:
            if slots is not None and not slots.acquire(timeout=timeout):
                raise EngineError(
                    f"timed out waiting for a compute slot for "
                    f"{job.describe()!r}")
            try:
                # Jobs that manage per-artifact caching themselves (the
                # incremental session) adopt this engine's cache backend
                # and shared counters before running.
                bind = getattr(job, "bind_engine", None)
                if bind is not None:
                    bind(self)
                result = job.run(self.pool)
            finally:
                if slots is not None:
                    slots.release()
            encoded = job.encode_result(result) if job.persistable \
                else result
            self.cache.put(key, encoded, persist=job.persistable)
            entry.encoded = encoded
            with self._lock:
                self.executed += 1
            return RunOutcome(result, key, False, False,
                              time.perf_counter() - start)
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            entry.done.set()

    def _wait_follower(self, job: Job, key: str, entry: _InFlight,
                       timeout: Optional[float],
                       start: float) -> RunOutcome:
        if not entry.done.wait(timeout):
            raise EngineError(
                f"timed out after {timeout:g}s waiting for the "
                f"in-flight computation of {job.describe()!r}")
        if entry.error is not None:
            raise EngineError(
                f"coalesced computation of {job.describe()!r} failed: "
                f"{entry.error}") from entry.error
        result = job.decode_result(entry.encoded) if job.persistable \
            else entry.encoded
        with self._lock:
            self.coalesced += 1
        return RunOutcome(result, key, False, True,
                          time.perf_counter() - start)

    def run_all(self) -> List[Any]:
        """Run every pending job in submission order; returns results."""
        return [outcome.result for outcome in self.run_all_shared()]

    def run_all_shared(self) -> List[RunOutcome]:
        """Like :meth:`run_all`, but returns the full
        :class:`RunOutcome` provenance per job."""
        with self._lock:
            jobs, self._pending = self._pending, []
        return [self.run_shared(job) for job in jobs]

    # ------------------------------------------------------------------
    # Introspection & persistence
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Activity counters plus the cache's hit/miss statistics and
        the resilience counters (degradations, retries, recoveries)."""
        cache_stats: CacheStats = self.cache.stats
        fired = self.fault_plan.total_fired \
            if self.fault_plan is not None else 0
        with self._lock:
            return EngineStats(workers=self.pool.workers,
                               submitted=self.submitted,
                               executed=self.executed,
                               cache_size=len(self.cache),
                               cache=cache_stats.as_dict(),
                               coalesced=self.coalesced,
                               inflight=len(self._inflight),
                               incremental=self.incremental.as_dict(),
                               degraded=cache_stats.degraded,
                               retries=cache_stats.retries
                               + self.pool.retries,
                               recovered=self.pool.recovered,
                               faults_injected=fired)

    def save_cache(self, path: Optional[str] = None) -> int:
        """Persist cacheable results to the backend's store file;
        returns the entry count."""
        return self.cache.save(path)

    def warm_cache(self, manifest: str) -> int:
        """Warm the cache from a manifest of hot fingerprints; returns
        how many were found in the backing store."""
        return self.cache.warm_from_manifest(manifest)
