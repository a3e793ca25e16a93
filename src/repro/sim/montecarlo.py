"""Monte Carlo estimation of hazard probabilities from fault trees.

Samples every leaf (primary failures, conditions, house-event overrides)
as independent Bernoulli variables and evaluates the tree's structure
function.  This makes *no* rare-event or order-truncation approximation,
so it serves as an independent check of both the standard formula (Eq. 1)
and the exact BDD evaluation — the three must agree within sampling error
(benchmark A3).

Rare hazards need many samples; :func:`monte_carlo_probability` reports a
Wilson confidence interval so callers can see when the budget was too
small rather than trusting a noisy point estimate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.fta.events import Condition, PrimaryFailure
from repro.fta.quantify import probability_map
from repro.fta.tree import FaultTree


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Result of a Monte Carlo hazard-probability run."""

    probability: float
    ci_low: float
    ci_high: float
    occurrences: int
    samples: int
    confidence: float

    def agrees_with(self, analytic: float) -> bool:
        """True when an analytic value falls inside the interval."""
        return self.ci_low <= analytic <= self.ci_high

    def __repr__(self) -> str:
        return (f"MonteCarloEstimate(p={self.probability:.3e} "
                f"[{self.ci_low:.3e}, {self.ci_high:.3e}] "
                f"@{self.confidence:.0%}, n={self.samples})")


def monte_carlo_counts(
        tree: FaultTree,
        probabilities: Optional[Dict[str, float]] = None,
        samples: int = 100_000, seed: int = 0) -> Tuple[int, int]:
    """Count hazard occurrences over ``samples`` draws.

    The raw ``(occurrences, samples)`` pair behind
    :func:`monte_carlo_probability` — exposed so shards run in parallel
    (by :mod:`repro.engine`) can be pooled into one Wilson interval via
    :func:`repro.stats.estimation.pooled_wilson_ci`.

    The structure function is compiled by :mod:`repro.compile` and
    evaluated on whole blocks of draws, bit-packed where the tree allows
    it.  Sample ``i`` draws its leaves, in first-visit order, from the
    ``random.Random(seed)`` stream, so the count equals that of a
    per-sample walk of the tree on the same stream.
    """
    if samples <= 0:
        raise SimulationError(f"samples must be > 0, got {samples}")
    from repro.compile import compile_sampler
    return compile_sampler(tree).counts(probabilities, samples, seed)


def monte_carlo_probability(
        tree: FaultTree,
        probabilities: Optional[Dict[str, float]] = None,
        samples: int = 100_000, seed: int = 0,
        confidence: float = 0.95, shards: int = 1,
        workers: int = 1) -> MonteCarloEstimate:
    """Estimate the hazard probability of ``tree`` by direct sampling.

    Runs a :class:`~repro.engine.jobs.MonteCarloJob` on a
    ``workers``-process pool, so overrides are checked like any job's:
    a name that matches no leaf raises
    :class:`~repro.errors.EngineError` with close matches as a hint.

    Parameters
    ----------
    tree:
        The fault tree (coherent or not).
    probabilities:
        Leaf probability overrides merged over event defaults.
    samples:
        Number of independent leaf-assignment samples.
    seed:
        Seed of the private RNG; runs are reproducible.
    confidence:
        Confidence level of the Wilson interval.
    shards:
        Split the sample budget into this many independently seeded
        shards.  ``shards=1`` samples the single ``random.Random(seed)``
        stream; sharded runs draw a different (but deterministic,
        seed-derived) sample stream, so their estimates agree with the
        single-stream one within the confidence interval rather than
        bit-for-bit.
    workers:
        Worker processes used to run the shards (only meaningful with
        ``shards > 1``).
    """
    if samples <= 0:
        raise SimulationError(f"samples must be > 0, got {samples}")
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if shards > samples:
        raise SimulationError(
            f"cannot split {samples} samples into {shards} shards")
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    # Imported lazily to keep repro.sim free of an engine dependency at
    # import time.
    from repro.engine.jobs import MonteCarloJob
    from repro.engine.pool import WorkerPool
    job = MonteCarloJob(tree, probabilities=probabilities,
                        samples=samples, seed=seed, confidence=confidence,
                        shards=shards)
    return job.run(WorkerPool(workers))


def monte_carlo_cut_set_frequencies(
        tree: FaultTree,
        probabilities: Optional[Dict[str, float]] = None,
        samples: int = 100_000, seed: int = 0) -> Dict[str, float]:
    """Estimate, per primary failure, how often it participates in a hazard.

    For each sample where the hazard occurs, every true leaf is credited.
    The result maps leaf names to their hazard-conditional occurrence
    frequency — a sampling analogue of Fussell–Vesely importance.
    """
    if samples <= 0:
        raise SimulationError(f"samples must be > 0, got {samples}")
    probs = probability_map(tree, probabilities)
    leaf_names = [e.name for e in tree.iter_events()
                  if isinstance(e, (PrimaryFailure, Condition))]
    rng = random.Random(seed)
    hazard_count = 0
    credit: Dict[str, int] = {name: 0 for name in leaf_names}
    assignment: Dict[str, bool] = {}
    for _ in range(samples):
        for name in leaf_names:
            assignment[name] = rng.random() < probs[name]
        if tree.evaluate(assignment):
            hazard_count += 1
            for name in leaf_names:
                if assignment[name]:
                    credit[name] += 1
    if hazard_count == 0:
        return {name: 0.0 for name in leaf_names}
    return {name: count / hazard_count for name, count in credit.items()}
