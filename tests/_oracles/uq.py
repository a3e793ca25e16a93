"""The per-sample UQ loop: scalar quantiles, scalar quantification."""

from __future__ import annotations

from repro.compile import compile_tree
from repro.fta.constraints import ConstraintPolicy
from repro.uq import PropagationResult, uniform_matrix


def loop_propagate(tree, model, n_samples: int = 1000, seed: int = 0,
                   sampler: str = "lhs", method: str = "exact",
                   policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT
                   ) -> PropagationResult:
    """:func:`repro.uq.propagate`, one row and one element at a time.

    Draws the same seeded uniform design, turns each uncertain entry
    into a leaf probability with the distribution's scalar ``ppf``
    (clipped into ``[0, 1]``), and quantifies each row over the other
    leaves' defaults through the compiled scalar path.
    """
    evaluator = compile_tree(tree, method, policy)
    names = evaluator.leaf_names
    uncertain = [name for name in names if name in model]
    uniforms = uniform_matrix(n_samples, len(uncertain), seed=seed,
                              sampler=sampler)
    values = [evaluator.scalar(
        {name: min(1.0, max(0.0, model[name].ppf(u)))
         for name, u in zip(uncertain, row)})
        for row in uniforms.tolist()]
    return PropagationResult(name=tree.name, samples=tuple(values),
                             seed=int(seed), sampler=sampler,
                             method=method)
