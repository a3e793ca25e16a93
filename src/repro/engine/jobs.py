"""Declarative job specifications for the batch-evaluation engine.

A job is a validated, content-addressable description of one unit of
work over the library's analytic machinery:

* :class:`QuantifyJob`     — one hazard probability of one fault tree,
* :class:`SweepJob`        — a fault tree quantified across a parameter
  grid (chunked across workers),
* :class:`MonteCarloJob`   — a sampling estimate split into
  deterministically seeded shards and pooled into one Wilson interval,
* :class:`UncertaintyJob`  — epistemic uncertainty propagation of an
  :class:`~repro.uq.spec.UncertainModel` through one tree (row-sharded
  across workers, bit-identical at any worker/shard count),
* :class:`SimulationJob`   — batched replications of the Elbtunnel
  traffic simulation (replication-sharded across workers, each row
  bit-identical to the scalar kernel at its seed),
* :class:`OptimizeJob`     — a full safety-optimization run over a
  :class:`~repro.core.model.SafetyModel`.

Jobs know how to fingerprint themselves (so semantically identical
requests share a cache key), how to run serially, how to spread across a
:class:`~repro.engine.pool.WorkerPool`, and how to encode their results
for the JSON-persistable cache.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.parametric import (
    ParametricProbability,
    as_parametric,
    grid_points,
)
from repro.engine.fingerprint import (
    grid_fingerprint,
    job_fingerprint,
    model_fingerprint,
    options_fingerprint,
    parametric_fingerprint,
    tree_fingerprint,
    values_fingerprint,
)
from repro.engine.pool import (
    WorkerPool,
    chunk_indices,
    derive_seed,
    quantify_points,
    run_monte_carlo_shard,
    run_quantify_chunk,
    run_uq_chunk,
)
from repro.errors import EngineError
from repro.fta.constraints import ConstraintPolicy
from repro.fta.cutsets import CutSetCollection, mocus
from repro.fta.events import Condition, PrimaryFailure
from repro.fta.quantify import hazard_probability
from repro.fta.tree import FaultTree
from repro.sim.montecarlo import MonteCarloEstimate
from repro.stats.estimation import pooled_wilson_ci

#: Quantification methods accepted by tree-based jobs (mirrors
#: :mod:`repro.fta.quantify`).
QUANTIFY_METHODS = ("rare_event", "mcub", "inclusion_exclusion", "exact")

#: Methods whose cut sets can be computed once and shared across points.
_CUT_SET_METHODS = ("rare_event", "mcub", "inclusion_exclusion")


def _check_tree(tree: FaultTree) -> FaultTree:
    if not isinstance(tree, FaultTree):
        raise EngineError(
            f"job requires a FaultTree, got {type(tree).__name__}")
    return tree


def _check_method(method: str) -> str:
    if method not in QUANTIFY_METHODS:
        raise EngineError(
            f"unknown method {method!r}; "
            f"expected one of {QUANTIFY_METHODS}")
    return method


def _check_policy(policy: ConstraintPolicy) -> ConstraintPolicy:
    if not isinstance(policy, ConstraintPolicy):
        raise EngineError(
            f"policy must be a ConstraintPolicy, got {policy!r}")
    return policy


def _check_probabilities(tree: FaultTree,
                         probabilities: Optional[Mapping[str, float]]
                         ) -> Optional[Dict[str, float]]:
    """Validate leaf overrides: a mapping from the names of ``tree``'s
    primary failures and conditions to numbers in [0, 1].

    A name that matches no such event is an error, with close matches
    as a hint — a misspelled override must not quietly leave the
    default in place."""
    if probabilities is None:
        return None
    if not isinstance(probabilities, Mapping):
        raise EngineError(
            f"probabilities must map event names to numbers, "
            f"got {type(probabilities).__name__}")
    leaves = {event.name for event in tree.iter_events()
              if isinstance(event, (PrimaryFailure, Condition))}
    checked: Dict[str, float] = {}
    for name, value in probabilities.items():
        name = str(name)
        if name not in leaves:
            import difflib
            hint = difflib.get_close_matches(name, sorted(leaves), n=3)
            raise EngineError(
                f"probability given for {name!r}, which names no primary "
                f"failure or condition of tree {tree.name!r}"
                + (f"; did you mean {', '.join(map(repr, hint))}?"
                   if hint else ""))
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise EngineError(
                f"probability of {name!r} must be a number, "
                f"got {value!r}")
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise EngineError(
                f"probability of {name!r} must be in [0, 1], got {value}")
        checked[name] = value
    return checked


def _shared_cut_sets(tree: FaultTree,
                     method: str) -> Optional[CutSetCollection]:
    """Cut sets computed once per job (they don't depend on the point)."""
    if method in _CUT_SET_METHODS and tree.is_coherent:
        return mocus(tree)
    return None


class Job:
    """Base class: a validated, fingerprintable unit of work."""

    kind: str = "job"
    #: Whether results are JSON-encodable for the disk-persisted cache.
    persistable: bool = True

    _cached_fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """The job's content-addressed cache key (computed once)."""
        if self._cached_fingerprint is None:
            self._cached_fingerprint = job_fingerprint(
                self.kind, *self._fingerprint_parts())
        return self._cached_fingerprint

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def run_serial(self) -> Any:
        """Execute the job in-process, without a pool."""
        raise NotImplementedError

    def run(self, pool: WorkerPool) -> Any:
        """Execute the job, using the pool where the job can shard."""
        return self.run_serial()

    @staticmethod
    def encode_result(result: Any) -> Any:
        """JSON-safe encoding of a result (for disk persistence)."""
        return result

    @staticmethod
    def decode_result(encoded: Any) -> Any:
        """Inverse of :meth:`encode_result`."""
        return encoded

    def describe(self) -> str:
        """One-line human description for batch reports."""
        return self.kind


class QuantifyJob(Job):
    """Quantify one fault tree hazard at fixed leaf probabilities."""

    kind = "quantify"

    def __init__(self, tree: FaultTree,
                 probabilities: Optional[Mapping[str, float]] = None,
                 method: str = "rare_event",
                 policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT):
        self.tree = _check_tree(tree)
        self.probabilities = _check_probabilities(tree, probabilities)
        self.method = _check_method(method)
        self.policy = _check_policy(policy)

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        return (tree_fingerprint(self.tree),
                values_fingerprint(self.probabilities),
                self.method, self.policy.value)

    def run_serial(self) -> float:
        return hazard_probability(self.tree, self.probabilities,
                                  method=self.method, policy=self.policy)

    def describe(self) -> str:
        return (f"quantify {self.tree.name!r} "
                f"({self.method}, {self.policy.value})")


class IncrementalJob(Job):
    """A what-if script: quantify a tree, then re-quantify per edit.

    Wraps an :class:`repro.incremental.IncrementalSession` as an engine
    job: the baseline is quantified, each edit in ``edits`` is applied
    (in order) with an :class:`~repro.incremental.session.EditReport`
    per step, and the per-module tapes/values persist through the
    engine's cache backend.  When run through an
    :class:`~repro.engine.engine.Engine`, :meth:`bind_engine` hands the
    session the engine's shared cache and
    :class:`~repro.incremental.session.IncrementalStats` (surfaced in
    ``/stats``); standalone ``run_serial`` works too, just uncached.
    """

    kind = "incremental"

    def __init__(self, tree: FaultTree,
                 probabilities: Optional[Mapping[str, float]] = None,
                 edits: Optional[Sequence[Mapping[str, Any]]] = None,
                 sift_threshold: Optional[int] = None):
        from repro.incremental import validate_edits
        self.tree = _check_tree(tree)
        self.probabilities = _check_probabilities(tree, probabilities)
        self.edits = tuple(validate_edits(list(edits or [])))
        if sift_threshold is not None:
            if not isinstance(sift_threshold, int) \
                    or isinstance(sift_threshold, bool) \
                    or sift_threshold < 1:
                raise EngineError(
                    f"sift_threshold must be a positive int, "
                    f"got {sift_threshold!r}")
        self.sift_threshold = sift_threshold
        self._cache = None
        self._stats = None

    def bind_engine(self, engine: Any) -> None:
        """Adopt the engine's cache backend and incremental counters."""
        self._cache = engine.cache
        self._stats = engine.incremental

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        # sift_threshold is *not* an execution detail: when it triggers,
        # the tape arithmetic (hence the exact float result) changes.
        return (tree_fingerprint(self.tree),
                values_fingerprint(self.probabilities),
                options_fingerprint(edits=list(self.edits),
                                    sift_threshold=self.sift_threshold))

    def run_serial(self) -> Dict[str, Any]:
        from repro.incremental import IncrementalSession
        session = IncrementalSession(
            self.tree, self.probabilities, cache=self._cache,
            sift_threshold=self.sift_threshold, stats=self._stats)
        baseline = session.quantify()
        steps = [session.apply([edit]).as_dict() for edit in self.edits]
        return {"tree": self.tree.name,
                "modules": session.modules,
                "baseline": baseline,
                "steps": steps,
                "final": steps[-1]["value"] if steps else baseline}

    def describe(self) -> str:
        return (f"incremental {self.tree.name!r} "
                f"({len(self.edits)} edits)")


@dataclass(frozen=True)
class SweepResult:
    """A quantified parameter grid: one value per grid point, in order."""

    points: Tuple[Dict[str, float], ...]
    values: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.values))

    def series(self, parameter: str) -> List[Tuple[float, float]]:
        """The ``(parameter value, hazard probability)`` pairs — the raw
        data behind one-parameter plots like the paper's Fig. 6."""
        return [(point[parameter], value) for point, value in self]

    def best(self) -> Tuple[Dict[str, float], float]:
        """The grid point with the smallest value (grid-search optimum)."""
        index = min(range(len(self.values)), key=self.values.__getitem__)
        return self.points[index], self.values[index]


class SweepJob(Job):
    """Quantify a fault tree across a grid of parameter valuations.

    ``assignments`` maps leaf names to
    :class:`~repro.core.parametric.ParametricProbability` objects (or
    floats); at each grid point they are evaluated *in the parent
    process* — closures never cross the process boundary — and only the
    resulting override dicts are shipped to workers alongside the tree
    and its precomputed cut sets.
    """

    kind = "sweep"

    def __init__(self, tree: FaultTree,
                 assignments: Mapping[str, Any],
                 grid: Sequence[Mapping[str, float]],
                 method: str = "rare_event",
                 policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT,
                 probabilities: Optional[Mapping[str, float]] = None,
                 chunks: Optional[int] = None):
        self.tree = _check_tree(tree)
        self.method = _check_method(method)
        self.policy = _check_policy(policy)
        # Fixed leaf overrides applied at every point (assignments win).
        self.probabilities = _check_probabilities(tree, probabilities)
        if not assignments:
            raise EngineError("sweep needs at least one leaf assignment")
        self.assignments: Dict[str, ParametricProbability] = {}
        for name, value in assignments.items():
            if name not in tree:
                raise EngineError(
                    f"assignment for unknown leaf {name!r} "
                    f"in tree {tree.name!r}")
            self.assignments[name] = as_parametric(value)
        required = frozenset().union(
            *(p.parameters for p in self.assignments.values()))
        if not grid:
            raise EngineError("sweep grid must not be empty")
        self.grid: List[Dict[str, float]] = []
        for i, point in enumerate(grid):
            missing = required - set(point)
            if missing:
                raise EngineError(
                    f"grid point {i} is missing parameter values for "
                    f"{sorted(missing)}")
            self.grid.append({str(k): float(v) for k, v in point.items()})
        if chunks is not None and chunks < 1:
            raise EngineError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks

    @classmethod
    def from_axes(cls, tree: FaultTree, assignments: Mapping[str, Any],
                  axes: Mapping[str, Sequence[float]],
                  method: str = "rare_event",
                  policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT,
                  probabilities: Optional[Mapping[str, float]] = None,
                  chunks: Optional[int] = None) -> "SweepJob":
        """Build the grid as the cartesian product of per-axis values."""
        return cls(tree, assignments, grid_points(axes),
                   method=method, policy=policy,
                   probabilities=probabilities, chunks=chunks)

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        assignments = ";".join(
            f"{name}={parametric_fingerprint(p)}"
            for name, p in sorted(self.assignments.items()))
        return (tree_fingerprint(self.tree), assignments,
                values_fingerprint(self.probabilities),
                grid_fingerprint(self.grid), self.method,
                self.policy.value)

    def _overrides(self) -> List[Dict[str, float]]:
        base = self.probabilities or {}
        result = []
        for point in self.grid:
            overrides = dict(base)
            overrides.update(
                (name, p(point)) for name, p in self.assignments.items())
            result.append(overrides)
        return result

    def _result(self, values: Sequence[float]) -> SweepResult:
        # Copy the grid dicts: the result (and the cache entry encoded
        # from it) must not share mutable state with this job's grid or
        # with whatever the caller does to the returned points.
        return SweepResult(points=tuple(dict(p) for p in self.grid),
                           values=tuple(values))

    def run_serial(self) -> SweepResult:
        return self._result(quantify_points(
            self.tree, _shared_cut_sets(self.tree, self.method),
            self.method, self.policy, self._overrides()))

    def run(self, pool: WorkerPool) -> SweepResult:
        if not pool.is_parallel or len(self.grid) == 1:
            return self.run_serial()
        overrides = self._overrides()
        cut_sets = _shared_cut_sets(self.tree, self.method)
        chunks = self.chunks if self.chunks is not None \
            else 4 * pool.workers
        payloads = []
        for start, stop in chunk_indices(len(overrides), chunks):
            chunk = [(i, overrides[i]) for i in range(start, stop)]
            payloads.append(
                (self.tree, cut_sets, self.method, self.policy, chunk))
        values: List[float] = [0.0] * len(overrides)
        for partial in pool.map(run_quantify_chunk, payloads):
            for index, value in partial:
                values[index] = value
        return self._result(values)

    @staticmethod
    def encode_result(result: SweepResult) -> Dict[str, Any]:
        return {"points": [dict(p) for p in result.points],
                "values": list(result.values)}

    @staticmethod
    def decode_result(encoded: Mapping[str, Any]) -> SweepResult:
        return SweepResult(points=tuple(dict(p)
                                        for p in encoded["points"]),
                           values=tuple(encoded["values"]))

    def describe(self) -> str:
        return (f"sweep {self.tree.name!r} over {len(self.grid)} points "
                f"({self.method}, {len(self.assignments)} leaves)")


class MonteCarloJob(Job):
    """Sharded Monte Carlo estimation of one tree's hazard probability.

    The sample budget is split into ``shards`` near-equal pieces, each
    driven by a deterministic seed derived from ``(seed, shard index)``
    (:func:`repro.engine.pool.derive_seed`), and the per-shard counts are
    pooled into a single Wilson interval via
    :func:`repro.stats.estimation.pooled_wilson_ci`.  With ``shards=1``
    the job reproduces :func:`repro.sim.montecarlo.monte_carlo_probability`
    bit-for-bit (same seed, same stream).
    """

    kind = "montecarlo"

    def __init__(self, tree: FaultTree,
                 probabilities: Optional[Mapping[str, float]] = None,
                 samples: int = 100_000, seed: int = 0,
                 confidence: float = 0.95, shards: int = 1):
        self.tree = _check_tree(tree)
        self.probabilities = _check_probabilities(tree, probabilities)
        if samples <= 0:
            raise EngineError(f"samples must be > 0, got {samples}")
        if shards < 1:
            raise EngineError(f"shards must be >= 1, got {shards}")
        if shards > samples:
            raise EngineError(
                f"cannot split {samples} samples into {shards} shards")
        if not 0.0 < confidence < 1.0:
            raise EngineError(
                f"confidence must be in (0, 1), got {confidence}")
        self.samples = int(samples)
        self.seed = int(seed)
        self.confidence = float(confidence)
        self.shards = int(shards)

    def shard_plan(self) -> List[Tuple[int, int]]:
        """The deterministic ``(samples, seed)`` plan, one per shard."""
        if self.shards == 1:
            return [(self.samples, self.seed)]
        return [(stop - start, derive_seed(self.seed, i))
                for i, (start, stop)
                in enumerate(chunk_indices(self.samples, self.shards))]

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        return (tree_fingerprint(self.tree),
                values_fingerprint(self.probabilities),
                options_fingerprint(samples=self.samples, seed=self.seed,
                                    confidence=self.confidence,
                                    shards=self.shards))

    def run_serial(self) -> MonteCarloEstimate:
        return self.run(WorkerPool(1))

    def run(self, pool: WorkerPool) -> MonteCarloEstimate:
        payloads = [(self.tree, self.probabilities, samples, seed)
                    for samples, seed in self.shard_plan()]
        counts = pool.map(run_monte_carlo_shard, payloads)
        occurrences, samples, (ci_low, ci_high) = pooled_wilson_ci(
            counts, self.confidence)
        return MonteCarloEstimate(
            probability=occurrences / samples, ci_low=ci_low,
            ci_high=ci_high, occurrences=occurrences, samples=samples,
            confidence=self.confidence)

    @staticmethod
    def encode_result(result: MonteCarloEstimate) -> Dict[str, Any]:
        return asdict(result)

    @staticmethod
    def decode_result(encoded: Mapping[str, Any]) -> MonteCarloEstimate:
        return MonteCarloEstimate(**encoded)

    def describe(self) -> str:
        return (f"montecarlo {self.tree.name!r} "
                f"({self.samples} samples, {self.shards} shards, "
                f"seed {self.seed})")


class UncertaintyJob(Job):
    """Epistemic uncertainty propagation through one fault tree.

    The seeded sampling design is a pure function of ``(model, samples,
    seed, sampler)`` and is built *whole* in the parent process; workers
    only quantify row blocks of the finished matrix.  Because each
    row's quantification is element-wise, the assembled result is
    bit-identical to the serial run — and to the scalar per-sample
    reference loop (:func:`repro.uq.reference_propagate`) — at any
    worker or shard count.  The fingerprint extends the tree's
    structural hash with the :class:`~repro.uq.spec.UncertainModel`
    content hash, so semantically identical UQ requests share a cache
    entry across sessions.
    """

    kind = "uncertainty"

    def __init__(self, tree: FaultTree, model,
                 samples: int = 1000, seed: int = 0,
                 sampler: str = "lhs", method: str = "exact",
                 policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT,
                 chunks: Optional[int] = None):
        from repro.compile import supports_compilation
        from repro.uq.sampling import SAMPLERS
        from repro.uq.spec import UncertainModel
        self.tree = _check_tree(tree)
        if not isinstance(model, UncertainModel):
            raise EngineError(
                f"UncertaintyJob requires an UncertainModel, "
                f"got {type(model).__name__}")
        if samples < 1:
            raise EngineError(f"samples must be >= 1, got {samples}")
        if sampler not in SAMPLERS:
            raise EngineError(
                f"unknown sampler {sampler!r}; "
                f"expected one of {SAMPLERS}")
        self.method = _check_method(method)
        if not supports_compilation(tree, method):
            raise EngineError(
                f"uncertainty propagation needs a compilable method "
                f"for tree {tree.name!r}; {method!r} is not")
        self.policy = _check_policy(policy)
        self.model = model
        self.samples = int(samples)
        self.seed = int(seed)
        self.sampler = sampler
        if chunks is not None and chunks < 1:
            raise EngineError(f"chunks must be >= 1, got {chunks}")
        # Like SweepJob.chunks: an execution detail, results are
        # bit-identical regardless — deliberately not fingerprinted.
        self.chunks = chunks

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        return (tree_fingerprint(self.tree), self.model.fingerprint,
                options_fingerprint(samples=self.samples, seed=self.seed,
                                    sampler=self.sampler),
                self.method, self.policy.value)

    def run_serial(self):
        from repro.uq import propagate
        return propagate(self.tree, self.model, n_samples=self.samples,
                         seed=self.seed, sampler=self.sampler,
                         method=self.method, policy=self.policy)

    def run(self, pool: WorkerPool):
        if not pool.is_parallel or self.samples == 1:
            return self.run_serial()
        from repro.uq import PropagationResult, propagation_matrix
        matrix = propagation_matrix(
            self.tree, self.model, self.samples, seed=self.seed,
            sampler=self.sampler, method=self.method, policy=self.policy)
        chunks = self.chunks if self.chunks is not None \
            else 4 * pool.workers
        payloads = [(self.tree, self.method, self.policy,
                     matrix[start:stop])
                    for start, stop in chunk_indices(self.samples,
                                                     chunks)]
        values: List[float] = []
        for partial in pool.map(run_uq_chunk, payloads):
            values.extend(partial)
        return PropagationResult(
            name=self.tree.name, samples=tuple(values), seed=self.seed,
            sampler=self.sampler, method=self.method)

    @staticmethod
    def encode_result(result) -> Dict[str, Any]:
        return result.encode()

    @staticmethod
    def decode_result(encoded: Mapping[str, Any]):
        from repro.uq import PropagationResult
        return PropagationResult.decode(encoded)

    def describe(self) -> str:
        return (f"uncertainty {self.tree.name!r} "
                f"({self.samples} {self.sampler} samples, "
                f"seed {self.seed}, {len(self.model)} uncertain events)")


class SimulationJob(Job):
    """Batched replications of the Elbtunnel traffic simulation.

    ``replications`` independent runs of one
    :class:`~repro.elbtunnel.simulation.SimulationConfig`, seeded by
    :func:`repro.sim.batch.replication_seeds` from ``seed`` (default:
    the config's own seed) and executed through the batch kernel
    (:mod:`repro.elbtunnel.batch`).  Replication rows are pure functions
    of ``(config, seed)``, so sharding the seed list across the pool
    reassembles to the same :class:`BatchSimulationResult` at any worker
    or shard count — and every row is bit-identical to the scalar
    ``simulate()`` run at that seed.  Like ``chunks`` elsewhere,
    ``shards`` is an execution detail and not part of the fingerprint;
    the content key covers the full simulation config plus
    ``(replications, seed)``, so repeated studies hit the LRU/disk cache
    like every other job.
    """

    kind = "simulate"

    def __init__(self, config, replications: int = 1,
                 seed: Optional[int] = None,
                 shards: Optional[int] = None):
        from repro.elbtunnel.simulation import SimulationConfig
        if not isinstance(config, SimulationConfig):
            raise EngineError(
                f"SimulationJob requires a SimulationConfig, "
                f"got {type(config).__name__}")
        if replications < 1:
            raise EngineError(
                f"replications must be >= 1, got {replications}")
        if shards is not None and shards < 1:
            raise EngineError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.replications = int(replications)
        self.seed = int(config.seed if seed is None else seed)
        self.shards = shards

    def _config_dict(self) -> Dict[str, Any]:
        encoded = asdict(self.config)
        encoded["variant"] = self.config.variant.value
        # Replication seeds derive from the job's effective seed alone
        # (replicate_counters overrides the config seed per run), so a
        # superseded config seed must not split the cache key.
        encoded["seed"] = self.seed
        return encoded

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        return (options_fingerprint(**self._config_dict()),
                options_fingerprint(replications=self.replications,
                                    seed=self.seed))

    def seed_plan(self) -> List[int]:
        """The deterministic per-replication seeds, in order."""
        from repro.sim.batch import replication_seeds
        return replication_seeds(self.seed, self.replications)

    def run_serial(self):
        return self.run(WorkerPool(1))

    def run(self, pool: WorkerPool):
        from repro.elbtunnel.batch import BatchSimulationResult
        from repro.engine.pool import run_simulation_shard
        seeds = self.seed_plan()
        if not pool.is_parallel or self.replications == 1:
            rows = run_simulation_shard((self.config, seeds))
        else:
            chunks = self.shards if self.shards is not None \
                else 4 * pool.workers
            payloads = [(self.config, seeds[start:stop])
                        for start, stop
                        in chunk_indices(self.replications, chunks)]
            rows = []
            for partial in pool.map(run_simulation_shard, payloads):
                rows.extend(partial)
        return BatchSimulationResult.from_rows(self.config.duration,
                                               seeds, rows)

    @staticmethod
    def encode_result(result) -> Dict[str, Any]:
        return result.encode()

    @staticmethod
    def decode_result(encoded: Mapping[str, Any]):
        from repro.elbtunnel.batch import BatchSimulationResult
        return BatchSimulationResult.decode(encoded)

    def describe(self) -> str:
        days = self.config.duration / (60.0 * 24)
        return (f"simulate {self.config.variant.value} "
                f"({self.replications} replications x {days:g} days, "
                f"seed {self.seed})")


class OptimizeJob(Job):
    """A full safety-optimization run over a :class:`SafetyModel`.

    Optimizer trajectories are inherently sequential, so the job always
    runs in the parent process; the engine's value here is caching — an
    optimizer study revisiting the same model and method reuses the
    finished run.  Results hold optimizer history objects and are
    memory-cached only (``persistable=False``).
    """

    kind = "optimize"
    persistable = False

    def __init__(self, model, method: str = "nelder_mead",
                 baseline: Optional[Sequence[float]] = None,
                 options: Optional[Mapping[str, Any]] = None):
        from repro.core.model import SafetyModel
        from repro.core.optimizer import _METHODS
        if not isinstance(model, SafetyModel):
            raise EngineError(
                f"OptimizeJob requires a SafetyModel, "
                f"got {type(model).__name__}")
        if method not in _METHODS:
            raise EngineError(
                f"unknown optimization method {method!r}; "
                f"expected one of {sorted(_METHODS)}")
        if baseline is not None:
            baseline = tuple(float(v) for v in baseline)
            if len(baseline) != len(model.space):
                raise EngineError(
                    f"baseline has {len(baseline)} components for "
                    f"{len(model.space)} parameters")
        self.model = model
        self.method = method
        self.baseline = baseline
        self.options: Dict[str, Any] = dict(options or {})

    def _fingerprint_parts(self) -> Tuple[str, ...]:
        return (model_fingerprint(self.model), self.method,
                options_fingerprint(baseline=self.baseline,
                                    **self.options))

    def run_serial(self):
        from repro.core.optimizer import SafetyOptimizer
        return SafetyOptimizer(self.model).optimize(
            self.method, baseline=self.baseline, **self.options)

    def describe(self) -> str:
        return f"optimize {self.model.name!r} ({self.method})"
