"""Pool chaos: dead workers, transient failures, deadlines.

The contract under test: a shard lost to infrastructure — a worker
process killed outright, an out-of-memory abort, an injected I/O error,
a stuck worker — is re-executed serially in the parent and the final
result list is **bit-identical** to the fault-free serial run, because
every payload is a pure function of its contents.
"""

import os
import time

import pytest

from repro.engine import WorkerPool
from repro.engine.pool import run_monte_carlo_shard
from repro.errors import QuantificationError
from repro.fta import ConstraintPolicy, FaultTree
from repro.fta.dsl import hazard, primary
from repro.resilience import FaultPlan, RetryPolicy

_PARENT_PID = os.getpid()

#: A fast no-sleep retry policy for chaos tests.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def small_tree():
    return FaultTree(hazard("H", OR_gate=[primary("A", 0.1),
                                          primary("B", 0.2)]))


def mc_payloads(shards=6, samples=400):
    tree = small_tree()
    return [(tree, None, samples, seed) for seed in range(shards)]


def _die_in_worker(payload):
    """Kill the worker process on shard 2 (parent-side runs survive)."""
    index, value = payload
    if index == 2 and os.getpid() != _PARENT_PID:
        os._exit(70)
    return value * value


def _oom_in_worker(payload):
    """Raise MemoryError on shard 1 inside a worker process only."""
    index, value = payload
    if index == 1 and os.getpid() != _PARENT_PID:
        raise MemoryError("injected worker OOM")
    return value + 10


def _slow_shard(payload):
    """Sleep long on shard 0 inside a worker (parent runs are fast)."""
    index, value = payload
    if index == 0 and os.getpid() != _PARENT_PID:
        time.sleep(30.0)
    return value - 1


class TestWorkerDeath:
    """Satellite: worker death pinned bit-identical to the serial run."""

    def test_os_exit_recovers_bit_identical(self):
        payloads = [(i, i) for i in range(6)]
        serial = [value * value for _i, value in payloads]
        pool = WorkerPool(2, retry=FAST_RETRY)
        assert pool.map(_die_in_worker, payloads) == serial
        assert pool.recovered >= 1

    def test_memory_error_recovers_bit_identical(self):
        payloads = [(i, i) for i in range(6)]
        serial = [value + 10 for _i, value in payloads]
        pool = WorkerPool(2, retry=FAST_RETRY)
        assert pool.map(_oom_in_worker, payloads) == serial
        assert pool.recovered >= 1

    def test_injected_crash_on_real_job_matches_serial(self):
        payloads = mc_payloads()
        serial = WorkerPool(1).map(run_monte_carlo_shard, payloads)
        plan = FaultPlan(seed=3).inject("pool.shard", "crash",
                                        indices=(2,))
        pool = WorkerPool(3, retry=FAST_RETRY, fault_plan=plan)
        assert pool.map(run_monte_carlo_shard, payloads) == serial
        assert pool.recovered >= 1

    def test_stuck_worker_bounded_by_deadline(self):
        payloads = [(i, i) for i in range(4)]
        serial = [value - 1 for _i, value in payloads]
        pool = WorkerPool(2, retry=FAST_RETRY)
        start = time.monotonic()
        assert pool.map(_slow_shard, payloads, timeout=1.0) == serial
        # Far below the 30s sleep: the deadline abandoned the shard
        # and the parent recovered it serially.
        assert time.monotonic() - start < 10.0
        assert pool.recovered >= 1


class TestTransientRetry:
    def test_serial_io_error_retried_in_place(self):
        payloads = mc_payloads(shards=4)
        baseline = WorkerPool(1).map(run_monte_carlo_shard, payloads)
        plan = FaultPlan(seed=1).inject("pool.shard", "io_error",
                                        indices=(1,))
        pool = WorkerPool(1, retry=FAST_RETRY, fault_plan=plan)
        assert pool.map(run_monte_carlo_shard, payloads) == baseline
        assert pool.retries == 1
        assert plan.fired("pool.shard") == 1

    def test_serial_crash_retried_in_place(self):
        # In-process (serial) execution turns a crash fault into an
        # InjectedCrash exception, which the retry budget absorbs.
        payloads = mc_payloads(shards=3)
        baseline = WorkerPool(1).map(run_monte_carlo_shard, payloads)
        plan = FaultPlan(seed=2).inject("pool.shard", "crash",
                                        indices=(0,))
        pool = WorkerPool(1, retry=FAST_RETRY, fault_plan=plan)
        assert pool.map(run_monte_carlo_shard, payloads) == baseline
        assert pool.retries == 1

    def test_latency_fault_only_delays(self):
        payloads = mc_payloads(shards=3)
        baseline = WorkerPool(1).map(run_monte_carlo_shard, payloads)
        plan = FaultPlan().inject("pool.shard", "latency",
                                  latency_s=0.01, times=None)
        pool = WorkerPool(1, retry=FAST_RETRY, fault_plan=plan)
        assert pool.map(run_monte_carlo_shard, payloads) == baseline
        assert pool.retries == 0
        assert plan.fired("pool.shard") == 3

    def test_retry_budget_exhaustion_propagates(self):
        payloads = mc_payloads(shards=2)
        plan = FaultPlan().inject("pool.shard", "io_error", times=None,
                                  indices=(0,))
        pool = WorkerPool(1,
                          retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.0, jitter=0.0),
                          fault_plan=plan)
        # Retries run with injection disabled, so even an always-on
        # spec cannot defeat the budget: shard 0 recovers on retry.
        assert pool.map(run_monte_carlo_shard, payloads) == \
            WorkerPool(1).map(run_monte_carlo_shard, payloads)

    def test_deterministic_errors_never_retried(self):
        tree = small_tree()
        from repro.engine.pool import run_quantify_chunk
        payloads = [((tree, None, "no_such_method",
                      ConstraintPolicy.INDEPENDENT), [{}])]
        pool = WorkerPool(1, retry=FAST_RETRY)
        with pytest.raises(QuantificationError):
            pool.map(run_quantify_chunk, payloads)
        assert pool.retries == 0


def test_row_jobs_at_one_worker_pass_the_shard_site():
    """Sweep and UQ blocks at one worker run through ``pool.map`` like
    Monte Carlo shards: an injected I/O error at ``pool.shard`` is
    retried, and the results equal the fault-free engine's."""
    from repro.elbtunnel import (
        corridor_fault_tree,
        corridor_uncertain_model,
    )
    from repro.engine import Engine, UncertaintyJob, jobs_from_payload

    def run(plan=None):
        engine = Engine(workers=1, fault_plan=plan, retry=FAST_RETRY)
        sweep, = jobs_from_payload({"type": "sweep", "tree": "corridor",
                                    "method": "exact", "axes": {
                                        "Signal not shown": [1e-4, 1e-3],
                                        "OHV in section 2 ignores stop":
                                            [0.01, 0.02]}})
        uq = UncertaintyJob(corridor_fault_tree(),
                            corridor_uncertain_model(), samples=64,
                            seed=3)
        return [engine.run(sweep), engine.run(uq)], engine.stats()

    plan = FaultPlan(seed=5).inject("pool.shard", "io_error")
    results, stats = run(plan)
    assert results == run()[0]
    assert plan.fired("pool.shard") >= 1
    assert stats.retries >= 1
