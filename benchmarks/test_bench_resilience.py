"""Resilience benchmarks: hook overhead and crash-recovery cost.

The resilience layer's two performance claims:

* with a fault plan attached but never firing, the injection hooks add
  **under 5 %** to a warm-cache Fig. 5 sweep (and cost literally
  nothing when no plan is attached — the hot paths test one attribute);
* recovering a shard lost to a worker crash is **bounded**: the
  chaos run finishes within a small multiple of the fault-free wall
  time, never a hang.

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import os
import time

from repro.engine import Engine, SqliteCache, WorkerPool, job_from_spec
from repro.engine.pool import run_monte_carlo_shard
from repro.fta import FaultTree
from repro.fta.dsl import hazard, primary
from repro.resilience import FaultPlan, RetryPolicy
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: A spec that keeps every hook live but never fires: the pure
#: bookkeeping cost of an attached plan.
_NEVER = 10 ** 9


def _fig5_sweep_specs(points):
    """Fig. 5 operating points: the collision tree quantified on a
    grid of detection-threshold failure probabilities."""
    specs = []
    for i in range(points):
        for j in range(points):
            specs.append({
                "type": "quantify",
                "tree": "collision",
                "method": "exact",
                "probabilities": {"OT1": 0.005 + 0.005 * i,
                                  "OT2": 0.005 + 0.005 * j,
                                  "Other collision causes": 0.001},
            })
    return specs


def _sweep_pass(engine, specs):
    start = time.perf_counter()
    results = [engine.run(job_from_spec(spec)) for spec in specs]
    return time.perf_counter() - start, results


def _warm_sweep_time(tmp_path, specs, passes, plan=None):
    """Best-of warm-pass wall time over a sqlite-backed engine."""
    cache = SqliteCache(str(tmp_path))
    engine = Engine(workers=1, cache=cache, fault_plan=plan)
    _cold, baseline = _sweep_pass(engine, specs)  # fills the cache
    best, results = min(
        (_sweep_pass(engine, specs) for _ in range(passes)),
        key=lambda pair: pair[0])
    assert results == baseline
    stats = engine.stats()
    cache.close()
    return best, stats


def test_fault_free_hook_overhead(report, tmp_path):
    points = 5 if QUICK else 9
    passes = 3 if QUICK else 5
    specs = _fig5_sweep_specs(points)

    bare, bare_stats = _warm_sweep_time(tmp_path / "bare.db", specs,
                                        passes)
    plan = (FaultPlan(seed=1)
            .inject("cache.get", "io_error", after=_NEVER)
            .inject("cache.put", "io_error", after=_NEVER)
            .inject("payload.decode", "truncate", after=_NEVER)
            .inject("pool.shard", "crash", after=_NEVER))
    hooked, hooked_stats = _warm_sweep_time(tmp_path / "hooked.db",
                                            specs, passes, plan=plan)

    assert bare_stats.faults_injected == 0
    assert hooked_stats.faults_injected == 0
    assert plan.calls("cache.get") > 0  # the hooks really ran
    overhead = hooked / bare - 1.0

    report(format_table(
        ["metric", "value"],
        [["sweep points (warm cache)", len(specs)],
         ["bare wall [ms]", f"{bare * 1e3:.2f}"],
         ["hooked wall [ms]", f"{hooked * 1e3:.2f}"],
         ["hook overhead", f"{overhead:+.2%}"]],
        title="Resilience — armed-but-silent fault hooks on a warm "
              "Fig. 5 sweep"))
    # 5 % relative budget, with a 5 ms absolute grace so scheduler
    # noise on a millisecond-scale sweep cannot fail the gate.
    assert hooked < bare * 1.05 + 0.005, \
        f"silent fault hooks cost {overhead:.1%} (budget: 5%)"


def test_crash_recovery_wall_time_is_bounded(report):
    shards = 6
    samples = 20_000 if QUICK else 100_000
    tree = FaultTree(hazard("H", OR_gate=[primary("A", 0.1),
                                          primary("B", 0.2)]))
    payloads = [(tree, None, samples, seed) for seed in range(shards)]
    retry = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

    start = time.perf_counter()
    serial = WorkerPool(1).map(run_monte_carlo_shard, payloads)
    serial_wall = time.perf_counter() - start

    plan = FaultPlan(seed=2).inject("pool.shard", "crash", indices=(2,))
    pool = WorkerPool(2, retry=retry, fault_plan=plan)
    start = time.perf_counter()
    recovered = pool.map(run_monte_carlo_shard, payloads)
    chaos_wall = time.perf_counter() - start

    assert recovered == serial  # bit-identical after the crash
    assert pool.recovered >= 1
    ratio = chaos_wall / serial_wall

    report(format_table(
        ["metric", "value"],
        [["shards × samples", f"{shards} × {samples}"],
         ["fault-free serial wall [s]", f"{serial_wall:.3f}"],
         ["crash + recovery wall [s]", f"{chaos_wall:.3f}"],
         ["slowdown vs serial", f"{ratio:.2f}x"],
         ["shards recovered serially", pool.recovered]],
        title="Resilience — worker crash mid-map, serial re-execution"))
    # Bounded: a crashed executor costs at most a restart plus a
    # serial re-run of the lost shards — far from a hang, and on the
    # same order as running everything serially in the first place.
    assert chaos_wall < serial_wall * 4.0 + 5.0, \
        f"crash recovery took {chaos_wall:.1f}s " \
        f"(serial baseline {serial_wall:.1f}s)"
