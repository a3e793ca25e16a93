"""Push epistemic uncertainty through a fault tree in one batch.

The point machinery answers "what is the top-event probability given
*these* leaf probabilities"; this module answers "what is its
*distribution* given what we actually know about the leaves".  One call
builds the ``(n_samples, n_leaves)`` probability matrix from an
:class:`~repro.uq.spec.UncertainModel` and pushes the whole matrix
through a compiled evaluator (:class:`~repro.compile.CompiledTape` /
:class:`~repro.compile.CompiledCutSets`) — tens of thousands of exact
quantifications as a handful of NumPy array sweeps.

A run is two steps.  :func:`propagation_design` draws the seeded
uniform design, a pure function of the seed; :func:`evaluate_design`
turns any row block of it into leaf probabilities (the distributions'
``ppf_batch``) and evaluates them.  Every row is an independent
element-wise computation, so the serial run and the engine's chunks
(:func:`repro.engine.pool.run_uq_chunk`) take the same route and give
the same doubles: shard and worker counts cannot perturb a published
credible interval.  Each sample is bit-identical to a per-sample loop
that fills its row with the scalar ``ppf`` and quantifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compile import compile_tree, supports_compilation
from repro.errors import UQError
from repro.fta.constraints import ConstraintPolicy
from repro.fta.tree import FaultTree
from repro.uq.sampling import (
    fill_probability_matrix,
    probability_matrix,
    uncertain_leaves,
    uniform_matrix,
)
from repro.uq.spec import UncertainModel

#: Percentiles reported by default (median plus a 90 % band).
DEFAULT_PERCENTILES = (5.0, 50.0, 95.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    The one percentile definition used across the UQ subsystem
    (propagation summaries, robust objectives), kept in plain Python so
    its arithmetic is stable and obvious.
    """
    if not 0.0 <= q <= 100.0:
        raise UQError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise UQError("no values to take a percentile of")
    if len(ordered) == 1:
        return ordered[0]
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass(frozen=True)
class PropagationResult:
    """The sampled distribution of a tree's top-event probability."""

    name: str
    samples: Tuple[float, ...]
    seed: int
    sampler: str
    method: str

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((x - m) ** 2 for x in self.samples)
                         / (len(self.samples) - 1))

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile of the sampled distribution."""
        return percentile(self.samples, q)

    def percentiles(self, qs: Sequence[float] = DEFAULT_PERCENTILES
                    ) -> Dict[float, float]:
        """Several percentiles at once, as an ordered mapping."""
        return {float(q): self.percentile(q) for q in qs}

    def interval(self, confidence: float = 0.90) -> Tuple[float, float]:
        """Central credible interval from the sample percentiles."""
        if not 0.0 < confidence < 1.0:
            raise UQError(
                f"confidence must be in (0, 1), got {confidence}")
        tail = (1.0 - confidence) / 2.0 * 100.0
        return (self.percentile(tail), self.percentile(100.0 - tail))

    def exceedance(self, threshold: float) -> float:
        """Empirical ``P(top-event probability > threshold)``."""
        count = sum(1 for v in self.samples if v > threshold)
        return count / len(self.samples)

    def exceedance_curve(self, thresholds: Optional[Sequence[float]]
                         = None) -> List[Tuple[float, float]]:
        """``(threshold, P(Y > threshold))`` pairs — the risk curve.

        Default thresholds span the sampled range on 21 evenly spaced
        points, endpoints included.
        """
        if thresholds is None:
            lo, hi = min(self.samples), max(self.samples)
            if hi <= lo:
                thresholds = [lo]
            else:
                step = (hi - lo) / 20
                thresholds = [lo + i * step for i in range(21)]
        return [(float(t), self.exceedance(float(t)))
                for t in thresholds]

    def summary(self) -> str:
        """A compact multi-line text report."""
        lo, hi = self.interval(0.90)
        lines = [
            f"uncertainty of {self.name!r} "
            f"({self.n_samples} {self.sampler} samples, "
            f"seed {self.seed}, {self.method})",
            f"  mean     : {self.mean:.6g}",
            f"  std      : {self.std:.6g}",
            f"  median   : {self.percentile(50.0):.6g}",
            f"  90% band : [{lo:.6g}, {hi:.6g}]",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON round-trip (engine cache persistence)
    # ------------------------------------------------------------------
    def encode(self) -> Dict[str, Any]:
        """JSON-safe encoding (floats round-trip exactly via repr)."""
        return {"name": self.name, "samples": list(self.samples),
                "seed": self.seed, "sampler": self.sampler,
                "method": self.method}

    @staticmethod
    def decode(encoded: Mapping[str, Any]) -> "PropagationResult":
        """Inverse of :meth:`encode`."""
        return PropagationResult(
            name=encoded["name"],
            samples=tuple(float(v) for v in encoded["samples"]),
            seed=int(encoded["seed"]), sampler=encoded["sampler"],
            method=encoded["method"])

    def __repr__(self) -> str:
        lo, hi = self.interval(0.90)
        return (f"PropagationResult({self.name}: mean={self.mean:.4g}, "
                f"90% [{lo:.4g}, {hi:.4g}], n={self.n_samples})")


def _checked_evaluator(tree: FaultTree, method: str,
                       policy: ConstraintPolicy):
    if not supports_compilation(tree, method):
        raise UQError(
            f"uncertainty propagation needs a compilable method for "
            f"tree {tree.name!r}; {method!r} is not (use 'exact', or a "
            f"cut-set method on a coherent tree)")
    return compile_tree(tree, method, policy)


def propagation_matrix(tree: FaultTree, model: UncertainModel,
                       n_samples: int, seed: int = 0,
                       sampler: str = "lhs", method: str = "exact",
                       policy: ConstraintPolicy =
                       ConstraintPolicy.INDEPENDENT) -> np.ndarray:
    """The exact leaf-probability matrix a propagation run evaluates.

    :func:`propagation_design` filled whole — exposed so checks and
    benchmarks consume *the same* IEEE doubles a run evaluates.
    """
    evaluator = _checked_evaluator(tree, method, policy)
    return probability_matrix(model, evaluator.leaf_names, n_samples,
                              seed=seed, sampler=sampler,
                              defaults=evaluator.defaults)


def propagation_design(tree: FaultTree, model: UncertainModel,
                       n_samples: int, seed: int = 0,
                       sampler: str = "lhs", method: str = "exact",
                       policy: ConstraintPolicy =
                       ConstraintPolicy.INDEPENDENT) -> np.ndarray:
    """The seeded uniform design a propagation run fills.

    One column per uncertain leaf, in the evaluator's column order; a
    pure function of ``(n_samples, len(model), seed, sampler)``.  The
    engine builds it in the parent and ships row blocks of it.
    """
    evaluator = _checked_evaluator(tree, method, policy)
    uncertain = uncertain_leaves(model, evaluator.leaf_names)
    return uniform_matrix(n_samples, len(uncertain), seed=seed,
                          sampler=sampler)


def evaluate_design(tree: FaultTree, model: UncertainModel,
                    uniforms: np.ndarray, method: str = "exact",
                    policy: ConstraintPolicy =
                    ConstraintPolicy.INDEPENDENT) -> np.ndarray:
    """Top-event probabilities of a block of design rows.

    Fills the rows into leaf probabilities
    (:func:`~repro.uq.sampling.fill_probability_matrix`) and evaluates
    them in one compiled batch — the route of :func:`propagate` and of
    every engine chunk.
    """
    evaluator = _checked_evaluator(tree, method, policy)
    matrix = fill_probability_matrix(model, evaluator.leaf_names,
                                     uniforms, defaults=evaluator.defaults)
    return evaluator.evaluate_matrix(matrix)


def propagate(tree: FaultTree, model: UncertainModel,
              n_samples: int = 1000, seed: int = 0,
              sampler: str = "lhs", method: str = "exact",
              policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT,
              ) -> PropagationResult:
    """Sample the epistemic distribution of the top-event probability.

    Draws the seeded design and evaluates it whole through
    :func:`evaluate_design`: bit-identical to any row-sharded execution
    of the same design.
    """
    uniforms = propagation_design(tree, model, n_samples, seed=seed,
                                  sampler=sampler, method=method,
                                  policy=policy)
    values = evaluate_design(tree, model, uniforms, method, policy)
    return PropagationResult(
        name=tree.name, samples=tuple(values.tolist()),
        seed=int(seed), sampler=sampler, method=method)
