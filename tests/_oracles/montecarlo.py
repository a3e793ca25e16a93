"""The per-sample Monte Carlo walk, draw by draw."""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.fta.events import Condition, PrimaryFailure
from repro.fta.quantify import probability_map
from repro.fta.tree import FaultTree


def walk_counts(tree: FaultTree,
                probabilities: Optional[Dict[str, float]] = None,
                samples: int = 100_000, seed: int = 0) -> Tuple[int, int]:
    """``(occurrences, samples)`` from one structure-function walk per
    sample.

    Each sample draws every leaf, in first-visit order, from one
    ``random.Random(seed)`` stream: leaf ``j`` occurs when its draw
    falls below its probability.
    """
    probs = probability_map(tree, probabilities)
    leaf_names = [e.name for e in tree.iter_events()
                  if isinstance(e, (PrimaryFailure, Condition))]
    rng = random.Random(seed)
    occurrences = 0
    assignment: Dict[str, bool] = {}
    for _ in range(samples):
        for name in leaf_names:
            assignment[name] = rng.random() < probs[name]
        if tree.evaluate(assignment):
            occurrences += 1
    return occurrences, samples
