"""Engine benchmarks: warm-cache speedup, shard scaling, the sqlite store.

The engine's performance claims, measured on the Elbtunnel trees:

* a repeated parameter sweep served from the content-addressed cache is
  at least an order of magnitude faster than the cold quantification;
* a sharded Monte Carlo run distributes its sample budget across worker
  processes with identical (deterministic) results, scaling toward the
  machine's core count;
* the persistent sqlite store is timed on a cold write, a warm read,
  threads sharing one handle and several fresh processes each opening
  the store and reading their own slice of hot entries (the serve/CI
  deployment pattern), and every reader finds every entry.

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.core import identity
from repro.elbtunnel import ElbtunnelConfig
from repro.elbtunnel.faulttrees import (
    false_alarm_fault_tree,
    odfinal_armed_probability,
)
from repro.elbtunnel.model import p_hv_odfinal
from repro.engine import (
    Engine,
    MonteCarloJob,
    SqliteCache,
    SweepJob,
    WorkerPool,
)
from repro.engine.cache import MISS
from repro.fta import FaultTree, hazard_probability
from repro.fta.dsl import AND, KOFN, hazard, primary
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Scaled configuration (as in the Monte Carlo benchmark): realistic
#: hazard probabilities (~1e-4) would need 1e8 samples to resolve.
SCALED = ElbtunnelConfig(p_ohv_present=0.15, p_const2=0.05,
                         hv_odfinal_rate=0.08)


def voting_tree(width: int = 12) -> "FaultTree":
    """A 3-of-``width`` vote over AND pairs — 2*width BDD variables.

    Sized so one exact quantification costs about a millisecond: large
    enough that the sweep's cold run dwarfs fingerprinting, small enough
    to keep the benchmark quick.
    """
    branches = [AND(f"br{i}",
                    primary(f"a{i}", 0.01), primary(f"b{i}", 0.02))
                for i in range(width)]
    return FaultTree(hazard("H", gate=KOFN("vote", 3, *branches).gate))


class PerPointSweepJob(SweepJob):
    """A sweep quantified point by point with ``hazard_probability``.

    This benchmark measures the *cache's* speedup over recomputation,
    so the cold run pays the full per-point cost of the interpreted
    reference (the compiled production route has its own benchmark in
    ``test_bench_compile.py``).  Same kind and fingerprint as
    :class:`SweepJob`: a plain sweep of the same grid hits the entry
    this job wrote.
    """

    def run(self, pool):
        return self._result([
            hazard_probability(self.tree, overrides, method=self.method,
                               policy=self.policy)
            for overrides in self._overrides()])


def sweep_job(points_per_axis: int = 9, job_class=SweepJob) -> SweepJob:
    """A Fig. 5-shaped 2-D sweep, quantified exactly at every point."""
    values = [0.01 + 0.005 * i for i in range(points_per_axis)]
    return job_class.from_axes(
        voting_tree(), {"a0": identity("pa0"), "b0": identity("pb0")},
        {"pa0": values, "pb0": values}, method="exact")


def test_warm_cache_sweep_speedup(report):
    engine = Engine(workers=1)
    # Two distinct job objects over two distinct tree objects: the warm
    # hit comes from content addressing, not object identity.
    cold_job = sweep_job(job_class=PerPointSweepJob)
    warm_job = sweep_job()

    start = time.perf_counter()
    cold_result = engine.run(cold_job)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_result = engine.run(warm_job)
    warm = time.perf_counter() - start

    assert warm_result == cold_result
    assert engine.executed == 1
    speedup = cold / warm if warm > 0 else float("inf")
    report(format_table(
        ["run", "time [s]", "points"],
        [["cold (exact BDD per point)", f"{cold:.4f}", len(cold_result)],
         ["warm (content-addressed cache)", f"{warm:.6f}",
          len(warm_result)],
         ["speedup", f"{speedup:.0f}x", ""]],
        title="Engine — warm-cache repeat of a Fig. 5-shaped sweep"))
    assert speedup >= 10.0, \
        f"warm cache only {speedup:.1f}x faster than cold run"


def test_monte_carlo_shard_scaling(report):
    config = SCALED
    tree = false_alarm_fault_tree(config)
    values = {"T1": 19.0, "T2": 15.6}
    overrides = {
        "HV_ODfinal": p_hv_odfinal(config)(values),
        "ODfinal_armed": odfinal_armed_probability(config)(values),
    }
    shards = 4
    job = MonteCarloJob(tree, overrides, samples=80_000, seed=7,
                        shards=shards)

    rows = []
    timings = {}
    estimates = {}
    for workers in (1, 2, shards):
        if workers > 1 and workers > (os.cpu_count() or 1):
            rows.append([workers, "skipped (not enough cores)", ""])
            continue
        start = time.perf_counter()
        estimates[workers] = job.run(WorkerPool(workers))
        timings[workers] = time.perf_counter() - start
        rows.append([workers, f"{timings[workers]:.3f}",
                     f"{timings[1] / timings[workers]:.2f}x"])

    # Shard merging is deterministic: worker count never changes the
    # estimate, only the wall clock.
    assert len(set(estimates.values())) == 1
    report(format_table(
        ["workers", "time [s]", "speedup vs serial"], rows,
        title=f"Engine — Monte Carlo shard scaling "
              f"({job.samples} samples, {shards} shards)"))
    if (os.cpu_count() or 1) >= 2 and 2 in timings:
        # Near-linear on unloaded multi-core hardware; asserted loosely
        # so a busy CI box cannot flake the suite.
        assert timings[2] < timings[1] * 1.25


def test_sweep_parallel_matches_serial(benchmark):
    job = sweep_job(points_per_axis=5)
    serial = job.run(WorkerPool(1))
    parallel = benchmark(job.run, WorkerPool(min(4, os.cpu_count() or 1)))
    assert parallel == serial


# ----------------------------------------------------------------------
# Cache backends: cold / warm / contended access
# ----------------------------------------------------------------------
#: Store population: matrix-shaped payloads the size of a real sweep.
N_ENTRIES = 16 if QUICK else 64
FLOATS_PER_ENTRY = 1000 if QUICK else 4000
#: Reads per worker in the thread-contention scenario (process workers
#: each read their disjoint slice of the key space once instead).
READS = 32 if QUICK else 128
PROCESSES = 4
THREADS = 4


def _payload(index: int) -> dict:
    return {
        "points": [{"T1": float(index), "T2": float(j)}
                   for j in range(FLOATS_PER_ENTRY // 20)],
        "values": [index + j * 1e-6 for j in range(FLOATS_PER_ENTRY)],
    }


def _keys():
    return [f"fp-{i:04d}" for i in range(N_ENTRIES)]


def _open_store(path: str) -> SqliteCache:
    return SqliteCache(path, capacity=N_ENTRIES * 2)


def _populate(path: str) -> float:
    """Cold write: populate and persist the whole store."""
    start = time.perf_counter()
    cache = _open_store(path)
    for i, key in enumerate(_keys()):
        cache.put(key, _payload(i))
    cache.save()
    cache.close()
    return time.perf_counter() - start


def _warm_read(path: str) -> float:
    """Warm read in a fresh process-like context: open + read all."""
    start = time.perf_counter()
    cache = _open_store(path)
    for key in _keys():
        assert cache.get(key) is not MISS
    elapsed = time.perf_counter() - start
    cache.close()
    return elapsed


def _contended_worker(path, offset, out):
    """One contending reader: fresh store handle, its own slice of keys.

    Each worker reads the disjoint slice ``keys[offset::PROCESSES]``
    once — the deployment shape, where concurrent serve workers or CI
    machines each need *their* hot fingerprints, not the whole store.
    It reports its own CPU seconds (``time.process_time``): the
    wall-clock span of one of several concurrent readers on a saturated
    box mostly measures the scheduler, while CPU seconds capture the
    work a reader actually pays — one ``open()`` plus the keys asked
    for.
    """
    keys = _keys()[offset::PROCESSES]
    start = time.process_time()
    cache = _open_store(path)
    try:
        found = sum(1 for key in keys if cache.get(key) is not MISS)
        out.put((found, time.process_time() - start))
    finally:
        cache.close()


def _contended_processes(path: str) -> float:
    """Aggregate reader CPU seconds."""
    context = multiprocessing.get_context("fork")
    out = context.Queue()
    procs = [context.Process(target=_contended_worker,
                             args=(path, offset, out))
             for offset in range(PROCESSES)]
    for proc in procs:
        proc.start()
    results = [out.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=120)
    expected = [len(_keys()[offset::PROCESSES])
                for offset in range(PROCESSES)]
    assert [found for found, _ in results] == expected
    return sum(elapsed for _, elapsed in results)


def _contended_threads(path: str) -> float:
    """Thread contention against one shared in-process store handle."""
    cache = _open_store(path)
    keys = _keys()
    barrier = threading.Barrier(THREADS)
    errors = []

    def reader(offset):
        try:
            barrier.wait()
            for i in range(READS):
                assert cache.get(keys[(offset + i) % len(keys)]) \
                    is not MISS
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(t,))
               for t in range(THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    cache.close()
    assert errors == []
    return elapsed


@pytest.fixture
def backend_stores(tmp_path):
    """The sqlite store populated with matrix-shaped payloads."""
    path = str(tmp_path / "bench.db")
    return path, _populate(path)


def test_backend_cold_warm_contended(report, backend_stores):
    path, cold = backend_stores
    warm = _warm_read(path)
    threaded = _contended_threads(path)
    contended = _contended_processes(path)
    report(format_table(
        ["store", "cold write [s]", "warm read [s]",
         f"{THREADS}-thread warm [s]",
         f"{PROCESSES}-process warm [CPU s]"],
        [["sqlite", f"{cold:.4f}", f"{warm:.4f}", f"{threaded:.4f}",
          f"{contended:.4f}"]],
        title=f"Engine — sqlite store, {N_ENTRIES} sweep-shaped "
              f"entries ({FLOATS_PER_ENTRY} floats each)"))


def test_backend_warm_hit_equivalence(backend_stores):
    """The store returns value-equal payloads for every fingerprint."""
    path, _cold = backend_stores
    cache = _open_store(path)
    for i, key in enumerate(_keys()):
        assert cache.get(key) == _payload(i)
    cache.close()
