"""Result caches keyed by job fingerprints.

Keys are the content-addressed job fingerprints from
:mod:`repro.engine.fingerprint`; values are whatever the owning job chose
to store (the engine stores JSON-safe encoded results for persistable
jobs, raw objects for memory-only ones).  A cache never interprets the
values — it only orders, bounds and persists them.

Two stores implement one :class:`CacheBackend` interface, and the cache
path alone picks between them (:func:`create_cache`):

:class:`ResultCache` (no path, ``"memory"``)
    An in-process LRU: a warm read is a dict lookup, nothing outlives
    the process.

:class:`SqliteCache` (any path, ``"sqlite"``)
    A WAL-mode sqlite store for the service layer and multi-machine CI:
    concurrent readers (per-thread connections, reads are write-free),
    a single serialized writer, binary npy-style payloads for
    matrix-shaped results (:mod:`repro.engine.payload`), TTL and
    size-based eviction, and durable persistence — a fresh process pays
    one ``open()`` instead of re-parsing the full store.

Manifests of hot fingerprints (:func:`write_manifest` /
:func:`read_manifest` / :meth:`CacheBackend.warm`) pre-heat either store
before traffic arrives.

A corrupt store is never fatal — at construction *or* mid-operation.
The **degradation chain** runs: damaged store file → quarantine
(``.corrupt`` suffix) and re-initialize empty → if the store keeps
failing (or cannot even be re-created), fall through permanently to the
in-memory side table.  Every step logs, increments the
``degraded``/``retries`` counters in :class:`CacheStats` (surfaced in
``EngineStats`` and a service's ``/stats``), and keeps serving: a cache
failure degrades performance, never correctness and never the job.  A
file holding a JSON result store (the format earlier versions wrote) is
not a damaged store: opening one raises :class:`EngineError` naming it
and leaves the file as it is.

For chaos testing, every backend exposes the ``cache.get`` /
``cache.put`` / ``payload.decode`` injection sites of a
:class:`~repro.resilience.FaultPlan` (:meth:`CacheBackend.set_fault_plan`);
an attached plan's injected I/O errors take exactly the degradation
path real failures take.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.payload import decode_payload, encode_payload
from repro.errors import EngineError
from repro.resilience import FaultPlan, InjectedFault

log = logging.getLogger("repro.engine.cache")

#: Store failures absorbed by the degradation chain (mid-operation
#: sqlite corruption, disk errors, injected faults — all of OSError,
#: which :class:`~repro.resilience.InjectedFault` subclasses).
_STORE_ERRORS = (sqlite3.Error, OSError)

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

_MANIFEST_VERSION = 1


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache backend.

    ``degraded`` counts operations absorbed by the degradation chain
    (a store failure turned into a miss or a memory-only write);
    ``retries`` counts store operations re-attempted after a reset.
    Both stay 0 on every healthy run.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    degraded: int = 0
    retries: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Counters plus the derived hit rate, for reports."""
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions,
                "degraded": self.degraded, "retries": self.retries,
                "hit_rate": self.hit_rate}


def quarantine(path: str, reason: Any) -> None:
    """Move a corrupt store aside (``<path>.corrupt``) and log it."""
    target = path + ".corrupt"
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - racing cleanup
        target = "<unlinked>"
    log.warning("quarantined corrupt cache file %r -> %r: %s",
                path, target, reason)


class CacheBackend:
    """The interface every result-cache backend implements.

    Subclasses provide :meth:`get` / :meth:`put` / :meth:`peek` /
    :meth:`clear` / :meth:`save` / :meth:`load` / :meth:`hot_keys` /
    ``__len__`` plus a ``_touch`` hook for warming; the base class
    supplies shared statistics, manifest warming and the ``info()``
    skeleton served by a service's ``/stats`` endpoint.
    """

    #: Backend identifier shown in ``info()`` and ``/stats``.
    name: str = "backend"

    #: Optional fault-injection plan (:mod:`repro.resilience`); when
    #: absent the injection hooks cost one attribute check.
    _plan: Optional[FaultPlan] = None

    def __init__(self, capacity: int, path: Optional[str]):
        if capacity <= 0:
            raise EngineError(f"cache capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.path = path
        self.stats = CacheStats()

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or detach, with ``None``) a fault-injection plan.

        The ``cache.get`` / ``cache.put`` / ``payload.decode`` sites
        fire only while a plan is attached; injected failures are
        absorbed by the same degradation chain real failures take."""
        self._plan = plan

    def _inject(self, site: str) -> None:
        """Fire an attached plan's injection site (no-op without one)."""
        if self._plan is not None:
            self._plan.fire(site)

    @property
    def degraded_mode(self) -> bool:
        """Whether the backend has permanently fallen back to its
        in-memory store (sqlite only; always ``False`` elsewhere)."""
        return False

    # -- required backend operations -----------------------------------
    def get(self, key: str) -> Any:
        """Return the cached value or :data:`MISS`; refreshes recency
        and counts a hit or miss."""
        raise NotImplementedError

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        """Store ``value`` under ``key``, evicting entries over budget.

        ``persist=False`` keeps the entry in memory only (for results
        that cannot be serialized)."""
        raise NotImplementedError

    def peek(self, key: str) -> Any:
        """Like :meth:`get` but without touching statistics or recency
        (the engine's under-lock re-check during coalescing)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        raise NotImplementedError

    def save(self, path: Optional[str] = None) -> int:
        """Flush persistable entries to disk; returns the entry count."""
        raise NotImplementedError

    def load(self, path: Optional[str] = None) -> int:
        """Merge entries from a store file; returns the count read.

        Raises :class:`EngineError` on a corrupt or foreign file — the
        *constructor* recovers by quarantining instead (an explicit
        ``load()`` call asked for exactly that file)."""
        raise NotImplementedError

    def hot_keys(self, limit: int = 64) -> List[str]:
        """The most recently used keys, hottest first — the input to
        :func:`write_manifest`."""
        raise NotImplementedError

    def _touch(self, key: str) -> bool:
        """Refresh one key's recency without counting a lookup; returns
        whether the key is present (and not expired)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op for in-memory backends)."""

    # -- shared behaviour ----------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not MISS

    def warm(self, keys: Iterable[str]) -> int:
        """Pre-heat the listed fingerprints (mark hottest, pull their
        pages/payloads in); returns how many were found."""
        return sum(1 for key in keys if self._touch(key))

    def warm_from_manifest(self, path: str) -> int:
        """Warm from a manifest file; returns how many keys were found."""
        return self.warm(read_manifest(path))

    def info(self) -> Dict[str, Any]:
        """One JSON-safe snapshot of configuration, size and counters
        (the payload behind a service's ``/stats`` endpoint)."""
        return {"backend": self.name,
                "size": len(self),
                "capacity": self.capacity,
                "path": self.path,
                "ttl": getattr(self, "ttl", None),
                "max_bytes": getattr(self, "max_bytes", None),
                "degraded_mode": self.degraded_mode,
                **self.stats.as_dict()}


class ResultCache(CacheBackend):
    """A bounded in-memory LRU mapping of fingerprints to results.

    The cache of every engine without a cache path.

    Parameters
    ----------
    capacity:
        Maximum number of entries held; the least recently used entry is
        evicted on overflow.

    Nothing is persisted, so ``persist`` on :meth:`put` has no effect and
    :meth:`save` / :meth:`load` raise.  Every operation that touches the
    LRU order or the statistics runs under one internal lock, so a cache
    instance can be shared between the threads of a long-running service
    (:mod:`repro.serve`) without corrupting the recency list or losing
    counter updates.
    """

    name = "memory"

    def __init__(self, capacity: int = 1024):
        super().__init__(capacity, None)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Any:
        """Return the cached value or :data:`MISS`; refreshes recency."""
        if self._plan is not None:
            try:
                self._plan.fire("cache.get")
            except InjectedFault:
                # An unavailable cache is a miss, never an error.
                with self._lock:
                    self.stats.degraded += 1
                    self.stats.misses += 1
                return MISS
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: str) -> Any:
        """The cached value or :data:`MISS`; no stats, no recency."""
        with self._lock:
            return self._entries.get(key, MISS)

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        if self._plan is not None:
            try:
                self._plan.fire("cache.put")
            except InjectedFault:
                # A failed cache write drops the entry, never the job.
                with self._lock:
                    self.stats.degraded += 1
                return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self.stats.puts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()

    def save(self, path: Optional[str] = None) -> int:
        """Always raises: an in-memory cache has no store file."""
        raise EngineError("the in-memory cache has no store file; "
                          "give the cache a path to persist results")

    def load(self, path: Optional[str] = None) -> int:
        """Always raises: stores are read by :class:`SqliteCache`."""
        raise EngineError("the in-memory cache cannot load a store file; "
                          "give the cache a path to reuse stored results")

    def hot_keys(self, limit: int = 64) -> List[str]:
        """Most recently used keys, hottest first."""
        with self._lock:
            return list(reversed(self._entries))[:max(0, limit)]

    def _touch(self, key: str) -> bool:
        with self._lock:
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            return True


def _refuse_json_store(path: str) -> None:
    """Raise :class:`EngineError` when ``path`` holds a JSON result store.

    Earlier versions persisted caches as one JSON object.  Such a file
    is not a damaged sqlite store, so it is neither quarantined nor
    overwritten: the caller decides what becomes of it."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(64).lstrip()
    except OSError:
        return
    if head.startswith(b"{"):
        raise EngineError(
            f"cache file {path!r} holds a JSON result store, which is no "
            f"longer read; remove it or choose another cache path (the "
            f"results are recomputed into an sqlite store)")


class SqliteCache(CacheBackend):
    """A WAL-mode sqlite result store with binary payloads.

    Built for the serve layer and multi-machine CI: many reader threads
    and processes share one store file, a fresh process opens it in
    constant time (no full-file parse), and matrix-shaped results are
    stored as npy-style binary blobs (:mod:`repro.engine.payload`)
    instead of JSON text.

    Parameters
    ----------
    path:
        The store file (created on first use, ``-wal``/``-shm``
        companions appear alongside).  A corrupt file is quarantined
        and re-initialized, never fatal.
    capacity:
        Maximum entry count; least-recently-accessed rows are evicted.
    ttl:
        Optional seconds before an entry expires; expired rows read as
        misses and are purged on the next write.
    max_bytes:
        Optional payload-size budget; oldest-accessed rows are evicted
        until under budget (the newest entry always survives).
    timeout:
        Seconds a writer waits on a cross-process sqlite lock.
    recency_resolution:
        A read refreshes the stored access stamp only when the stamp is
        older than this many seconds, keeping the contended warm-read
        path write-free (eviction needs recency at eviction granularity,
        not per-read precision).

    Concurrency: each thread gets its own read connection (WAL lets
    readers proceed during a write); writes are serialized through one
    in-process lock, and across processes by sqlite's own locking.
    Entries stored with ``persist=False`` live in an in-memory LRU side
    table.  A file holding a JSON result store raises
    :class:`EngineError` (see :func:`_refuse_json_store`).
    """

    name = "sqlite"

    #: Consecutive store failures before the backend gives up on disk
    #: and degrades permanently to its in-memory side table.
    _MAX_STORE_FAILURES = 3

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS cache (
            key      TEXT PRIMARY KEY,
            payload  BLOB NOT NULL,
            nbytes   INTEGER NOT NULL,
            created  REAL NOT NULL,
            accessed REAL NOT NULL
        );
        CREATE INDEX IF NOT EXISTS cache_accessed ON cache(accessed);
    """

    def __init__(self, path: str, capacity: int = 65536,
                 ttl: Optional[float] = None,
                 max_bytes: Optional[int] = None,
                 timeout: float = 30.0,
                 recency_resolution: float = 60.0):
        if not path:
            raise EngineError("the sqlite cache backend requires a path")
        _refuse_json_store(path)
        super().__init__(capacity, path)
        if ttl is not None and ttl <= 0:
            raise EngineError(f"cache ttl must be > 0, got {ttl}")
        if max_bytes is not None and max_bytes <= 0:
            raise EngineError(
                f"cache max_bytes must be > 0, got {max_bytes}")
        self.ttl = ttl
        self.max_bytes = max_bytes
        self.timeout = timeout
        self.recency_resolution = recency_resolution
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        # One lock for writes + in-process bookkeeping (stats, memory
        # side table); reads only take it to bump counters.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._generation = 0
        #: Permanently memory-only after repeated store failures.
        self._degraded = False
        #: Consecutive store failures (reset by any successful store op).
        self._store_failures = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._init_schema()

    # ------------------------------------------------------------------
    # Connections & recovery
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self.timeout,
                               isolation_level=None)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
        return conn

    def _conn(self) -> sqlite3.Connection:
        cached = getattr(self._local, "conn", None)
        if cached is not None \
                and self._local.generation == self._generation:
            return cached
        conn = self._connect()
        self._local.conn = conn
        self._local.generation = self._generation
        with self._lock:
            self._connections.append(conn)
        return conn

    def _init_schema(self) -> None:
        try:
            self._conn().executescript(self._SCHEMA)
        except sqlite3.DatabaseError as exc:
            # Truncated or garbage store: quarantine and start empty
            # rather than taking the engine down.
            self._reset_storage(exc)

    def _reset_storage(self, reason: Any) -> None:
        """Quarantine the store file and re-create an empty schema.

        Never raises: when even re-creation fails (disk gone,
        directory unwritable) the backend degrades to memory-only
        instead of propagating the failure into a job."""
        with self._lock:
            for conn in self._connections:
                try:
                    conn.close()
                except sqlite3.Error:  # pragma: no cover - best effort
                    pass
            self._connections.clear()
            self._generation += 1
            try:
                if os.path.exists(self.path):
                    quarantine(self.path, reason)
                for suffix in ("-wal", "-shm"):
                    companion = self.path + suffix
                    if os.path.exists(companion):
                        os.remove(companion)
                self._conn().executescript(self._SCHEMA)
            except _STORE_ERRORS as exc:
                self._enter_degraded("reset", exc)

    def _enter_degraded(self, op: str, reason: Any) -> None:
        """Fall back permanently to the in-memory side table."""
        with self._lock:
            if self._degraded:
                return
            self._degraded = True
        log.error("sqlite cache store %r disabled after failure during "
                  "%s (%s); serving from memory only", self.path, op,
                  reason)

    def _absorb_failure(self, op: str, exc: BaseException) -> None:
        """Run the degradation chain for a mid-operation store failure.

        First failures quarantine + re-initialize the store file;
        :data:`_MAX_STORE_FAILURES` consecutive failures degrade the
        backend to memory-only.  Never raises — a cache failure costs
        performance, not the job."""
        with self._lock:
            self.stats.degraded += 1
            self._store_failures += 1
            give_up = self._store_failures >= self._MAX_STORE_FAILURES
        if give_up:
            self._enter_degraded(op, exc)
            return
        log.warning("sqlite cache %s failed (%s); resetting store %r",
                    op, exc, self.path)
        self._reset_storage(exc)

    @property
    def degraded_mode(self) -> bool:
        """Whether the store is disabled and only memory is serving."""
        return self._degraded

    def close(self) -> None:
        """Close every connection this instance opened."""
        with self._lock:
            for conn in self._connections:
                try:
                    conn.close()
                except sqlite3.Error:  # pragma: no cover - best effort
                    pass
            self._connections.clear()
            self._generation += 1

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            memory = len(self._memory)
            if self._degraded:
                return memory
        try:
            row = self._conn().execute(
                "SELECT COUNT(*) FROM cache").fetchone()
        except _STORE_ERRORS as exc:
            self._absorb_failure("len", exc)
            return memory
        return memory + row[0]

    def _expired(self, created: float, now: float) -> bool:
        return self.ttl is not None and now - created > self.ttl

    def _fetch(self, key: str) -> Optional[Tuple[bytes, float, float]]:
        return self._conn().execute(
            "SELECT payload, created, accessed FROM cache "
            "WHERE key = ?", (key,)).fetchone()

    def _drop(self, key: str, count_eviction: bool) -> None:
        with self._lock:
            self._conn().execute(
                "DELETE FROM cache WHERE key = ?", (key,))
            if count_eviction:
                self.stats.evictions += 1

    def get(self, key: str) -> Any:
        """Decode and return the stored payload, or :data:`MISS`.

        The warm path is write-free: recency stamps are refreshed only
        when older than ``recency_resolution`` seconds, so concurrent
        readers never serialize on the writer lock.  Any store failure
        mid-lookup (corruption, I/O error, injected fault) runs the
        degradation chain and reads as a miss.
        """
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return self._memory[key]
            if self._degraded:
                self.stats.misses += 1
                return MISS
        try:
            return self._get_store(key)
        except _STORE_ERRORS as exc:
            self._absorb_failure("get", exc)
            with self._lock:
                self.stats.misses += 1
            return MISS

    def _get_store(self, key: str) -> Any:
        """The healthy-path lookup; raises on any store failure."""
        self._inject("cache.get")
        row = self._fetch(key)
        now = time.time()
        if row is None:
            with self._lock:
                self.stats.misses += 1
                self._store_failures = 0
            return MISS
        payload, created, accessed = row
        if self._expired(created, now):
            self._drop(key, count_eviction=True)
            with self._lock:
                self.stats.misses += 1
                self._store_failures = 0
            return MISS
        if self._plan is not None:
            payload = self._plan.pulse("payload.decode", payload)
        try:
            value = decode_payload(payload)
        except EngineError as exc:
            # A mangled payload is a corrupt *entry*, not a corrupt
            # store: drop the row and miss, no quarantine.
            log.warning("dropping undecodable cache entry %r: %s",
                        key, exc)
            self._drop(key, count_eviction=False)
            with self._lock:
                self.stats.degraded += 1
                self.stats.misses += 1
            return MISS
        if now - accessed > self.recency_resolution:
            self._stamp(key, now)
        with self._lock:
            self.stats.hits += 1
            self._store_failures = 0
        return value

    def peek(self, key: str) -> Any:
        """The decoded value or :data:`MISS`; no stats, no recency.

        Peek is the engine's under-lock coalescing re-check: a failing
        store reads as a miss here and lets :meth:`get` run the
        degradation chain on the next full lookup."""
        with self._lock:
            if key in self._memory:
                return self._memory[key]
            if self._degraded:
                return MISS
        try:
            row = self._fetch(key)
            if row is None or self._expired(row[1], time.time()):
                return MISS
            return decode_payload(row[0])
        except (EngineError,) + _STORE_ERRORS:
            return MISS

    def _stamp(self, key: str, now: float) -> None:
        with self._lock:
            self._conn().execute(
                "UPDATE cache SET accessed = ? WHERE key = ?",
                (now, key))

    def _memory_put(self, key: str, value: Any) -> None:
        """Store in the in-memory LRU side table only."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
            self._memory[key] = value
            self.stats.puts += 1
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        """Encode ``value`` to a binary payload and store it durably.

        The insert and the eviction pass run as one immediate
        transaction under the single-writer lock.  When the store
        fails mid-write the degradation chain runs — reset + one
        retry, then the in-memory side table — so the result is
        always cached *somewhere* and the job always completes."""
        if not persist or self._degraded:
            self._memory_put(key, value)
            return
        blob = encode_payload(value)
        try:
            self._inject("cache.put")
            self._put_store(key, blob)
            return
        except _STORE_ERRORS as exc:
            self._absorb_failure("put", exc)
        if not self._degraded:
            # One retry against the freshly reset store.
            with self._lock:
                self.stats.retries += 1
            try:
                self._put_store(key, blob)
                return
            except _STORE_ERRORS as exc:
                self._absorb_failure("put-retry", exc)
        # The write must not be lost with the store: keep it in memory.
        self._memory_put(key, value)

    def _put_store(self, key: str, blob: bytes) -> None:
        """The healthy-path insert; raises on any store failure."""
        now = time.time()
        with self._lock:
            conn = self._conn()
            try:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute(
                    "INSERT OR REPLACE INTO cache "
                    "(key, payload, nbytes, created, accessed) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, sqlite3.Binary(blob), len(blob), now, now))
                evicted = self._evict(conn, key, now)
                conn.execute("COMMIT")
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:  # pragma: no cover - best effort
                    pass
                raise
            self.stats.puts += 1
            self.stats.evictions += evicted
            self._store_failures = 0

    def _evict(self, conn: sqlite3.Connection, fresh_key: str,
               now: float) -> int:
        """TTL purge + capacity + byte-budget eviction; returns count.

        Victims are least-recently-accessed first; the entry written in
        this transaction (``fresh_key``) is never chosen, so a single
        oversized result still lands in the cache.
        """
        evicted = 0
        if self.ttl is not None:
            cursor = conn.execute(
                "DELETE FROM cache WHERE created <= ? AND key != ?",
                (now - self.ttl, fresh_key))
            evicted += cursor.rowcount
        count = conn.execute("SELECT COUNT(*) FROM cache").fetchone()[0]
        if count > self.capacity:
            cursor = conn.execute(
                "DELETE FROM cache WHERE key IN ("
                "  SELECT key FROM cache WHERE key != ?"
                "  ORDER BY accessed ASC, key ASC LIMIT ?)",
                (fresh_key, count - self.capacity))
            evicted += cursor.rowcount
        if self.max_bytes is not None:
            total = conn.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM cache"
            ).fetchone()[0]
            if total > self.max_bytes:
                victims = []
                for key, nbytes in conn.execute(
                        "SELECT key, nbytes FROM cache WHERE key != ? "
                        "ORDER BY accessed ASC, key ASC", (fresh_key,)):
                    victims.append(key)
                    total -= nbytes
                    if total <= self.max_bytes:
                        break
                if victims:
                    marks = ",".join("?" * len(victims))
                    cursor = conn.execute(
                        f"DELETE FROM cache WHERE key IN ({marks})",
                        victims)
                    evicted += cursor.rowcount
        return evicted

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._memory.clear()
            if self._degraded:
                return
        try:
            self._conn().execute("DELETE FROM cache")
        except _STORE_ERRORS as exc:
            self._absorb_failure("clear", exc)

    def hot_keys(self, limit: int = 64) -> List[str]:
        """Most recently accessed persistent keys, hottest first."""
        with self._lock:
            if self._degraded:
                return list(reversed(self._memory))[:max(0, limit)]
        try:
            rows = self._conn().execute(
                "SELECT key FROM cache ORDER BY accessed DESC, key ASC "
                "LIMIT ?", (max(0, limit),)).fetchall()
        except _STORE_ERRORS as exc:
            self._absorb_failure("hot_keys", exc)
            return []
        return [row[0] for row in rows]

    def _touch(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                return True
            if self._degraded:
                return False
        try:
            row = self._fetch(key)
            if row is None or self._expired(row[1], time.time()):
                return False
            # Decoding pulls the payload through the page cache, so the
            # first real request after warming skips the cold read.
            decode_payload(row[0])
            self._stamp(key, time.time())
            return True
        except EngineError:
            return False
        except _STORE_ERRORS as exc:
            self._absorb_failure("touch", exc)
            return False

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Optional[str] = None) -> int:
        """Checkpoint the WAL (or back up to ``path``); returns the
        persistent entry count.  Every put is already durable — save
        only compacts or copies.  In degraded mode save is a no-op
        returning 0 (shutdown must never fail on a cache that already
        failed)."""
        target = path or self.path
        with self._lock:
            if self._degraded:
                log.warning("sqlite cache degraded; save(%r) skipped",
                            target)
                return 0
            conn = self._conn()
            try:
                if os.path.abspath(target) == os.path.abspath(self.path):
                    conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                else:
                    backup = sqlite3.connect(target)
                    try:
                        conn.backup(backup)
                    finally:
                        backup.close()
                return conn.execute(
                    "SELECT COUNT(*) FROM cache").fetchone()[0]
            except sqlite3.DatabaseError as exc:
                raise EngineError(
                    f"cannot save sqlite cache to {target!r}: "
                    f"{exc}") from None

    def load(self, path: Optional[str] = None) -> int:
        """Merge entries from another sqlite store file.

        An explicit load of a store the backend can no longer reach is
        an error (the caller asked for exactly that data); implicit
        resilience applies only to the hot get/put path."""
        source = path or self.path
        if self._degraded:
            raise EngineError(
                f"sqlite cache store {self.path!r} is degraded "
                f"(memory-only); cannot load {source!r}")
        if os.path.abspath(source) == os.path.abspath(self.path):
            try:
                return self._conn().execute(
                    "SELECT COUNT(*) FROM cache").fetchone()[0]
            except sqlite3.DatabaseError as exc:
                self._reset_storage(exc)
                return 0
        with self._lock:
            conn = self._conn()
            try:
                conn.execute("ATTACH DATABASE ? AS src", (source,))
                try:
                    count = conn.execute(
                        "SELECT COUNT(*) FROM src.cache").fetchone()[0]
                    conn.execute(
                        "INSERT OR REPLACE INTO cache "
                        "SELECT * FROM src.cache")
                finally:
                    conn.execute("DETACH DATABASE src")
            except sqlite3.DatabaseError as exc:
                raise EngineError(
                    f"cannot load cache file {source!r}: {exc}") from None
        return count


def create_cache(path: Optional[str] = None, capacity: int = 1024,
                 ttl: Optional[float] = None,
                 max_bytes: Optional[int] = None) -> CacheBackend:
    """The cache for ``path``: in memory without one, sqlite at any.

    No path gives an in-memory :class:`ResultCache`; any path gives a
    :class:`SqliteCache` store.

    TTL and byte budgets bound a store file; asking for them without a
    path is an error rather than a silent no-op.
    """
    if path is None:
        if ttl is not None or max_bytes is not None:
            raise EngineError(
                "ttl/max_bytes eviction needs a cache path")
        return ResultCache(capacity=capacity)
    return SqliteCache(path, capacity=capacity, ttl=ttl,
                       max_bytes=max_bytes)


# ----------------------------------------------------------------------
# Warming manifests
# ----------------------------------------------------------------------
def write_manifest(path: str, keys: Sequence[str]) -> int:
    """Write a manifest of hot fingerprints; returns the key count.

    Typically fed from :meth:`CacheBackend.hot_keys` at the end of a
    run, and consumed by :meth:`CacheBackend.warm_from_manifest` (or the
    ``--warm-manifest`` CLI flags) before the next deployment takes
    traffic.
    """
    payload = {"version": _MANIFEST_VERSION,
               "keys": [str(key) for key in keys]}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.remove(temp_path)
        raise
    return len(payload["keys"])


def read_manifest(path: str) -> List[str]:
    """Read a warming manifest; raises :class:`EngineError` when the
    file is missing or malformed."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise EngineError(
            f"cannot read warming manifest {path!r}: {exc}") from None
    if not isinstance(payload, dict) \
            or payload.get("version") != _MANIFEST_VERSION \
            or not isinstance(payload.get("keys"), list):
        raise EngineError(
            f"not a warming manifest: {path!r}")
    return [str(key) for key in payload["keys"]]
