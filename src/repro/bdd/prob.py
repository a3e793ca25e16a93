"""Exact probability evaluation over a BDD.

For pairwise-independent variables, the probability that a Boolean function
is true is computed in a single bottom-up pass over its BDD:

``P(node) = (1 - p_var) * P(low) + p_var * P(high)``

The pass runs over the manager's arena in ascending index order — a
topological level order, since decision nodes are always created after
their cofactors — so no recursion and no per-node dictionary walk is
involved.

This is exact — unlike the paper's standard formula (Eq. 1), which sums
minimal-cut-set products and "neglects second and higher-order terms".  The
benchmark suite uses this evaluator to measure the rare-event
approximation's error.
"""

from __future__ import annotations

from typing import Dict

from repro.bdd.manager import BDDManager, Node
from repro.errors import BDDError


def probability(manager: BDDManager, node: Node,
                var_probs: Dict[str, float]) -> float:
    """Return ``P(f = 1)`` for independent variables.

    Parameters
    ----------
    manager:
        The manager that owns ``node``.
    node:
        Root of the function's BDD.
    var_probs:
        Mapping from variable name to its probability of being true.
        Every variable in the support of ``node`` must be present and
        inside ``[0, 1]``.
    """
    index = node.index
    if index == 1:
        return 1.0
    if index == 0:
        return 0.0
    vars_, lows, highs = manager.arena
    names = manager.var_names
    values: Dict[int, float] = {0: 0.0, 1: 1.0}
    # Validation folds into the single bottom-up sweep: each support
    # variable is checked the first time a node branching on it appears.
    prob_of: Dict[int, float] = {}
    for n in manager.topological_indices(node):
        var = vars_[n]
        p = prob_of.get(var)
        if p is None:
            name = names[var]
            if name not in var_probs:
                raise BDDError(
                    f"no probability given for variable {name!r}")
            p = var_probs[name]
            if not 0.0 <= p <= 1.0:
                raise BDDError(
                    f"probability of {name!r} must be in [0, 1], got {p}")
            prob_of[var] = p
        values[n] = (1.0 - p) * values[lows[n]] + p * values[highs[n]]
    return values[index]


def conditional_probability(manager: BDDManager, node: Node,
                            var_probs: Dict[str, float],
                            given: str, value: bool) -> float:
    """Return ``P(f = 1 | variable == value)``.

    Computed by restricting the BDD — the basis of Birnbaum importance
    (``P(f|x=1) - P(f|x=0)``) evaluated without the rare-event
    approximation.
    """
    restricted = manager.restrict(node, given, value)
    remaining = {k: v for k, v in var_probs.items() if k != given}
    return probability(manager, restricted, remaining)
