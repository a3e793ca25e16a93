"""Worker pool: multiprocessing execution with crash-proof fallbacks.

The pool runs *payload lists* through module-level worker functions (the
only kind :mod:`multiprocessing` can ship to child processes).  Payloads
carry plain library objects — fault trees, probability dicts, cut set
collections — all of which pickle; parametric probabilities (arbitrary
closures) never cross the process boundary: sweep jobs evaluate them in
the parent and ship the resulting per-point override dicts instead.
Row-wise jobs (sweep, uncertainty, simulation) go through
:meth:`WorkerPool.map_rows`, the one place that cuts rows into blocks.

When only one worker is configured, only one payload exists, or a pool
cannot be created (restricted environments, missing semaphores), the same
worker functions run serially in-process — results are identical either
way, by construction.

Failure handling is the point of this layer: every payload is a *pure
function* of its contents (shard seeds derive from ``(base_seed,
index)``), so a shard lost to a dead worker process, an out-of-memory
kill, a transient I/O error or a stuck worker can always be re-executed
— serially, in the parent — with a bit-identical result.
:meth:`WorkerPool.map` retries transient in-process failures with
capped jittered backoff (:class:`~repro.resilience.RetryPolicy`),
recovers crashed/poisoned shards serially, and bounds every wait with a
deadline when one is given; the ``retries``/``recovered`` counters feed
:class:`~repro.engine.engine.EngineStats`.  A
:class:`~repro.resilience.FaultPlan` threads through as the
``pool.shard`` injection site (free when absent).
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.fta.quantify import hazard_probability
from repro.resilience import FaultPlan, RetryPolicy

log = logging.getLogger("repro.engine.pool")

#: In-process failures worth retrying: real (or injected) I/O errors
#: and allocation failures.  Library validation errors (ReproError) are
#: deterministic and propagate immediately.
TRANSIENT_FAILURES = (OSError, MemoryError)


def default_workers() -> int:
    """The machine's CPU count (at least 1)."""
    return os.cpu_count() or 1


def derive_seed(seed: int, shard: int) -> int:
    """Deterministic, well-separated per-shard RNG seed.

    Hash-derived so that neighbouring base seeds cannot collide with
    neighbouring shard indices (as ``seed + shard`` would); independent of
    ``PYTHONHASHSEED``.
    """
    raw = hashlib.sha256(f"mc-shard:{seed}:{shard}".encode()).digest()
    return int.from_bytes(raw[:8], "big")


#: Row blocks per worker in :meth:`WorkerPool.map_rows` when the pool
#: is parallel: several blocks per worker even out uneven row costs.
BLOCKS_PER_WORKER = 4


def chunk_indices(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into ``chunks`` near-equal (start, stop) runs."""
    if count <= 0:
        raise EngineError(f"cannot chunk {count} items")
    chunks = max(1, min(chunks, count))
    base, extra = divmod(count, chunks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class WorkerPool:
    """A fixed-size process pool with retry, crash recovery and
    graceful serial degradation.

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` means the CPU count.  With
        one worker everything runs in-process (no pickling, no fork).
    retry:
        Backoff policy for transient in-process failures
        (:data:`TRANSIENT_FAILURES`); defaults to 3 attempts with
        capped jittered exponential backoff.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` fired at the
        ``pool.shard`` site around each payload (in workers, a
        ``crash`` fault kills the worker process — the recovery path
        under test).  Costs one ``is None`` check when absent.
    """

    def __init__(self, workers: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None):
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        #: Transient-failure re-executions (backoff retries).
        self.retries = 0
        #: Shards recovered serially after a dead/poisoned/stuck worker.
        self.recovered = 0

    # ------------------------------------------------------------------
    # Serial execution (also the recovery path)
    # ------------------------------------------------------------------
    def _run_one(self, fn: Callable[[Any], Any], payload: Any,
                 index: int, inject: bool) -> Any:
        """Run one payload in-process with bounded retries.

        ``inject=False`` marks a *recovery* re-execution: the fault
        already happened (a worker died), so the plan must not fire
        again — recovery is the authoritative serial run.
        """
        attempts = self.retry.max_attempts
        for attempt in range(attempts):
            try:
                if inject and attempt == 0 \
                        and self.fault_plan is not None:
                    self.fault_plan.fire("pool.shard", index=index)
                return fn(payload)
            except TRANSIENT_FAILURES as exc:
                if attempt + 1 >= attempts:
                    raise
                self.retries += 1
                log.warning(
                    "shard %d failed (%s: %s); retry %d/%d",
                    index, type(exc).__name__, exc, attempt + 1,
                    attempts - 1)
                pause = self.retry.delay(attempt, key=f"shard:{index}")
                if pause > 0:
                    time.sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover

    def _map_serial(self, fn: Callable[[Any], Any],
                    payloads: Sequence[Any]) -> List[Any]:
        return [self._run_one(fn, payload, index, inject=True)
                for index, payload in enumerate(payloads)]

    # ------------------------------------------------------------------
    # Parallel execution with crash recovery
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None) -> List[Any]:
        """Apply a module-level function to every payload, in order.

        Results are returned in payload order regardless of completion
        order.  Deterministic worker exceptions propagate to the caller
        unchanged; *infrastructure* failures do not fail the job:

        * a worker process that dies (``os._exit``, OOM-kill, injected
          crash) breaks the executor — every shard without a result is
          re-executed serially in the parent, bit-identical because
          payloads are pure functions of their contents;
        * transient failures (:data:`TRANSIENT_FAILURES`) are retried
          with capped jittered backoff;
        * with ``timeout`` (seconds for the whole parallel phase), a
          stuck worker cannot hang the job: unfinished shards are
          abandoned and recovered serially.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if self.workers == 1 or len(payloads) == 1:
            return self._map_serial(fn, payloads)
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(payloads)),
                mp_context=multiprocessing.get_context())
        except (OSError, ValueError, ImportError):
            # Sandboxes without /dev/shm or fork; same results, serially.
            return self._map_serial(fn, payloads)
        plan = self.fault_plan
        deadline = None if timeout is None \
            else _monotonic() + timeout
        results: List[Any] = [None] * len(payloads)
        lost: List[int] = []
        try:
            futures = []
            broken = False
            for index, payload in enumerate(payloads):
                try:
                    futures.append(executor.submit(
                        _run_shard, fn, payload, plan, index))
                except BrokenExecutor:
                    # A worker died while we were still submitting;
                    # everything not yet submitted recovers serially.
                    broken = True
                    lost.extend(range(index, len(payloads)))
                    break
            for index, future in enumerate(futures):
                if broken and not future.done():
                    # The executor died: no further result can arrive.
                    lost.append(index)
                    continue
                try:
                    remaining = None if deadline is None \
                        else max(0.0, deadline - _monotonic())
                    results[index] = future.result(timeout=remaining)
                except (BrokenExecutor, OSError, MemoryError) as exc:
                    # Dead worker (or a transient failure pickled back):
                    # recover this shard serially in the parent.
                    log.warning(
                        "shard %d lost to %s: %s; recovering serially",
                        index, type(exc).__name__, exc)
                    lost.append(index)
                    if isinstance(exc, BrokenExecutor):
                        broken = True
                except FutureTimeoutError:
                    log.warning(
                        "shard %d missed the %gs deadline; "
                        "recovering serially", index, timeout)
                    lost.append(index)
                    broken = True  # abandon the stragglers too
        finally:
            # cancel_futures makes shutdown non-blocking even with a
            # hung worker still holding a task.
            executor.shutdown(wait=False, cancel_futures=True)
        for index in lost:
            self.recovered += 1
            results[index] = self._run_one(fn, payloads[index], index,
                                           inject=False)
        return results

    def map_rows(self, fn: Callable[[Any], List[Any]], common: Any,
                 rows: Sequence[Any]) -> List[Any]:
        """Apply a row-wise worker function to ``rows`` in blocks.

        The one place row-wise work is split: ``rows`` (a list or an
        array) is cut into one block at one worker and
        :data:`BLOCKS_PER_WORKER` blocks per worker otherwise, each
        ``(common, block)`` payload goes through :meth:`map`, and the
        per-block result lists are concatenated in row order.  ``fn``
        must compute each row independently of the others, so the
        result cannot depend on the block layout.
        """
        blocks = 1 if self.workers == 1 \
            else BLOCKS_PER_WORKER * self.workers
        results: List[Any] = []
        for part in self.map(fn, [(common, rows[start:stop])
                                  for start, stop
                                  in chunk_indices(len(rows), blocks)]):
            results.extend(part)
        return results


_monotonic = time.monotonic


# ----------------------------------------------------------------------
# Worker functions (module-level: must be picklable by reference)
# ----------------------------------------------------------------------
def _run_shard(fn: Callable[[Any], Any], payload: Any,
               plan: Optional[FaultPlan], index: int) -> Any:
    """Run one payload inside a worker process.

    Fires the fault plan at ``pool.shard`` with ``worker=True``: a
    ``crash`` fault here terminates the worker process itself
    (``os._exit``) — the real failure mode the parent's recovery path
    must survive.
    """
    if plan is not None:
        plan.fire("pool.shard", index=index, worker=True)
    return fn(payload)


def run_quantify_chunk(payload: Tuple) -> List[float]:
    """Quantify one row block of a parametric sweep — the one route
    every sweep takes.

    ``payload`` is ``((tree, cut_sets, method, policy), points)`` where
    ``points`` is a list of override dicts; returns their hazard
    probabilities, in order.  Where
    :func:`~repro.compile.supports_compilation` accepts the tree/method
    pair the points run as one :mod:`repro.compile` batch, bit-identical
    to per-point quantification.  The rest (``inclusion_exclusion``,
    cut-set methods on non-coherent trees) fall back to per-point
    :func:`hazard_probability`, which fails there with its own
    diagnostics.  Each payload ships (and unpickles) its own tree copy,
    so the compile memo cannot hit across blocks: compilation happens
    once per *block* — amortized over the block's points, still far
    cheaper than the per-point walk.
    """
    from repro.compile import compile_tree, supports_compilation
    (tree, cut_sets, method, policy), points = payload
    if supports_compilation(tree, method):
        evaluator = compile_tree(tree, method, policy, cut_sets=cut_sets)
        return [float(value) for value in evaluator.evaluate(points)]
    return [hazard_probability(tree, overrides, method=method,
                               policy=policy, cut_sets=cut_sets)
            for overrides in points]


def run_monte_carlo_shard(payload: Tuple) -> Tuple[int, int]:
    """Run one Monte Carlo shard; returns ``(occurrences, samples)``.

    ``payload`` is ``(tree, probabilities, samples, seed)``.
    """
    from repro.sim.montecarlo import monte_carlo_counts
    tree, probabilities, samples, seed = payload
    return monte_carlo_counts(tree, probabilities, samples, seed)


def run_simulation_shard(payload: Tuple) -> list:
    """Run one replication shard of a batched traffic simulation.

    ``payload`` is ``(config, seeds)`` — a
    :class:`~repro.elbtunnel.simulation.SimulationConfig` plus a block
    of per-replication seeds; returns one integer counter row per seed
    (:data:`~repro.elbtunnel.simulation.COUNTER_FIELDS` order).  Rows
    are pure functions of ``(config, seed)``, so concatenated blocks
    give the full batch however the seed list was split — worker-count
    independence by construction.
    """
    from repro.elbtunnel.batch import replicate_counters
    config, seeds = payload
    return replicate_counters(config, seeds)


def run_uq_chunk(payload: Tuple) -> list:
    """Propagate one row block of a UQ design.

    ``payload`` is ``((tree, model, method, policy), block)`` where
    ``block`` is a ``(rows, n_uncertain)`` slice of the seeded uniform
    design built in the parent.  The chunk applies the model's
    quantiles and evaluates the rows through
    :func:`repro.uq.evaluate_design`, and each row is an independent
    element-wise computation, so concatenating per-block results is
    bit-identical to evaluating the whole design at once: the worker
    count cannot perturb the sampled distribution.
    """
    from repro.uq.propagate import evaluate_design
    (tree, model, method, policy), block = payload
    return evaluate_design(tree, model, block, method, policy).tolist()
