"""DES benchmarks: batched replications vs. the sequential scalar loop.

The ISSUE-5 acceptance benchmark: 64 replications of the 30-day Fig. 6
corridor simulation run as one batch (:mod:`repro.elbtunnel.batch`) must
be at least 5x faster than 64 sequential ``simulate()`` calls — and
every replication's counters must be **bit-identical** to the scalar
kernel at the same seed (the scalar path is the oracle, not an
approximation).

Set ``BENCH_QUICK=1`` to shrink the auxiliary workloads for smoke runs
(the acceptance workload itself always runs at full size).
"""

import os
import time
from dataclasses import replace

from repro.elbtunnel import (
    COUNTER_FIELDS,
    DesignVariant,
    SimulationConfig,
    TrafficConfig,
    simulate,
)
from repro.elbtunnel.batch import simulate_batch
from repro.elbtunnel.study import CORRIDOR_OHV_RATE
from repro.engine import Engine, SimulationJob
from repro.sim.batch import replication_seeds
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: The 30-day Fig. 6 corridor run: heavy HV traffic, correct-only OHVs.
CORRIDOR = SimulationConfig(
    duration=60.0 * 24 * 30, timer1=30.0, timer2=15.6,
    variant=DesignVariant.WITHOUT_LB4,
    traffic=TrafficConfig(ohv_rate=CORRIDOR_OHV_RATE, p_correct=1.0,
                          hv_odfinal_rate=0.13),
    seed=0)

def test_batched_replication_speedup(report):
    replications = 64
    seeds = replication_seeds(CORRIDOR.seed, replications)

    start = time.perf_counter()
    sequential = [simulate(replace(CORRIDOR, seed=seed))
                  for seed in seeds]
    slow = time.perf_counter() - start

    start = time.perf_counter()
    batch = simulate_batch(CORRIDOR, replications)
    fast = time.perf_counter() - start

    for index, result in enumerate(sequential):
        assert batch.counters.row(index) == result.counters(), \
            f"replication {index} (seed {seeds[index]}) is not " \
            f"bit-identical to the scalar kernel"
    speedup = slow / fast if fast > 0 else float("inf")
    report(format_table(
        ["run", "time [s]", "replications"],
        [["sequential scalar simulate() loop", f"{slow:.4f}",
          replications],
         ["batched replication engine", f"{fast:.4f}", replications],
         ["speedup", f"{speedup:.1f}x", ""]],
        title="DES — 30-day corridor simulation, batched vs. sequential"))
    assert speedup >= 5.0, \
        f"batched replications only {speedup:.1f}x faster than the " \
        f"sequential scalar loop"


def test_sharded_simulation_job(report):
    """Sharding across the pool reproduces the batch rows exactly.

    Timing is reported, not asserted — CI core counts vary; the
    bit-identity of every row at any worker count is the contract.
    """
    replications = 8 if QUICK else 32
    config = replace(CORRIDOR,
                     duration=60.0 * 24 * (5 if QUICK else 15))
    reference = simulate_batch(config, replications)

    start = time.perf_counter()
    sharded = Engine(workers=4).run(
        SimulationJob(config, replications=replications))
    elapsed = time.perf_counter() - start

    assert list(sharded.counters.rows()) == \
        list(reference.counters.rows()), \
        "sharded job rows differ from the in-process batch"
    report(format_table(
        ["measure", "value"],
        [["replications", replications],
         ["workers", 4],
         ["elapsed [s]", f"{elapsed:.4f}"],
         ["rows bit-identical", "yes"]],
        title="DES — SimulationJob sharded across the worker pool"))
    for name in COUNTER_FIELDS:
        assert (sharded.counters.column(name) >= 0).all()
