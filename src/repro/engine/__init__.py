"""Parallel batch-evaluation engine with content-addressed caching.

The paper's safety-optimization loop quantifies the same fault trees
over and over — across parameter grids (Fig. 5/6), optimizer
trajectories, and Monte Carlo cross-checks.  This package turns those
repeated evaluations into declarative *jobs* executed through one
engine:

* :mod:`repro.engine.jobs`        — job specs with validation,
* :mod:`repro.engine.fingerprint` — canonical structural hashing so
  semantically identical requests share a cache key,
* :mod:`repro.engine.cache`       — result caches behind one
  :class:`CacheBackend` interface: an in-memory LRU without a path, a
  WAL-mode sqlite store with TTL/size eviction and manifest warming at
  any path,
* :mod:`repro.engine.payload`     — the binary (npy-style) payload
  codec the sqlite backend stores matrix-shaped results with,
* :mod:`repro.engine.pool`        — a multiprocessing worker pool with a
  serial fallback and deterministic per-shard Monte Carlo seeding,
* :mod:`repro.engine.specs`       — the JSON wire format shared by
  ``repro batch`` and the :mod:`repro.serve` HTTP service (spec → job,
  job + outcome → result envelope),
* :mod:`repro.engine.engine`      — the :class:`Engine` façade tying
  jobs → cache → pool, with thread-safe request coalescing
  (:meth:`Engine.run_shared`) for multi-tenant use.

Quickstart::

    from repro.engine import Engine, SweepJob

    engine = Engine(workers=4, cache_path="results.db")
    job = SweepJob.from_axes(tree, {"OT1": p_ot1, "OT2": p_ot2},
                             axes={"T1": t1_values, "T2": t2_values})
    surface = engine.run(job)      # recomputed
    surface = engine.run(job)      # served from the cache
    print(engine.stats().summary())
"""

from repro.engine.cache import (
    CacheBackend,
    CacheStats,
    ResultCache,
    SqliteCache,
    create_cache,
    read_manifest,
    write_manifest,
)
from repro.engine.payload import decode_payload, encode_payload
from repro.engine.engine import Engine, EngineStats, RunOutcome
from repro.engine.fingerprint import (
    canonical_tree,
    grid_fingerprint,
    job_fingerprint,
    model_fingerprint,
    options_fingerprint,
    parametric_fingerprint,
    tree_fingerprint,
    values_fingerprint,
)
from repro.engine.jobs import (
    IncrementalJob,
    Job,
    MonteCarloJob,
    OptimizeJob,
    QuantifyJob,
    SimulationJob,
    SweepJob,
    SweepResult,
    UncertaintyJob,
)
from repro.engine.pool import WorkerPool, default_workers, derive_seed
from repro.engine.specs import (
    SPEC_TYPES,
    job_from_spec,
    jobs_from_payload,
    result_envelope,
    tree_from_spec,
)

__all__ = [
    "Engine",
    "EngineStats",
    "RunOutcome",
    "Job",
    "IncrementalJob",
    "QuantifyJob",
    "SweepJob",
    "SweepResult",
    "MonteCarloJob",
    "SimulationJob",
    "UncertaintyJob",
    "OptimizeJob",
    "CacheBackend",
    "ResultCache",
    "SqliteCache",
    "create_cache",
    "CacheStats",
    "read_manifest",
    "write_manifest",
    "encode_payload",
    "decode_payload",
    "WorkerPool",
    "default_workers",
    "derive_seed",
    "tree_fingerprint",
    "canonical_tree",
    "model_fingerprint",
    "parametric_fingerprint",
    "values_fingerprint",
    "grid_fingerprint",
    "options_fingerprint",
    "job_fingerprint",
    "SPEC_TYPES",
    "job_from_spec",
    "jobs_from_payload",
    "result_envelope",
    "tree_from_spec",
]
