"""Epistemic uncertainty quantification over fault-tree risk.

The point machinery (quantification, optimization, importance) answers
questions at fixed basic-event probabilities; this package answers the
same questions *given what is actually known* about those
probabilities:

* :mod:`repro.uq.spec`        — :class:`UncertainModel`: immutable,
  hashable event → distribution maps with engine-compatible
  fingerprints, plus error-factor helpers;
* :mod:`repro.uq.sampling`    — seeded plain-MC and Latin-hypercube
  designs producing ``(n_samples, n_events)`` probability matrices via
  the vectorized ``ppf_batch``;
* :mod:`repro.uq.propagate`   — the design through one compiled batch
  (or row block by row block, in the engine's chunks): top-event
  probability distributions with credible intervals and exceedance
  curves;
* :mod:`repro.uq.sensitivity` — Saltelli-design Sobol first/total
  indices and a one-batch tornado ranking;
* :mod:`repro.uq.robust`      — :class:`~repro.core.model.SafetyModel`
  wrapped into a percentile-risk optimization problem (the paper's
  optimization made robust).

Quickstart::

    from repro.elbtunnel import collision_fault_tree
    from repro.uq import from_error_factors, propagate, sobol_indices

    tree = collision_fault_tree()
    model = from_error_factors(tree, error_factor=3.0)
    result = propagate(tree, model, n_samples=10_000, sampler="lhs")
    print(result.summary())
    print(sobol_indices(tree, model).ranking())
"""

from repro.uq.propagate import (
    DEFAULT_PERCENTILES,
    PropagationResult,
    evaluate_design,
    percentile,
    propagate,
    propagation_design,
    propagation_matrix,
)
from repro.uq.robust import (
    RobustCostObjective,
    robust_problem,
)
from repro.uq.sampling import (
    SAMPLERS,
    fill_probability_matrix,
    probability_matrix,
    uncertain_leaves,
    uniform_matrix,
)
from repro.uq.sensitivity import (
    SobolIndices,
    TornadoEntry,
    sobol_from_samples,
    sobol_indices,
    tornado,
)
from repro.uq.spec import (
    UncertainModel,
    distribution_fingerprint,
    from_error_factors,
    lognormal_error_factor,
)

__all__ = [
    "UncertainModel",
    "distribution_fingerprint",
    "from_error_factors",
    "lognormal_error_factor",
    "SAMPLERS",
    "uniform_matrix",
    "probability_matrix",
    "fill_probability_matrix",
    "uncertain_leaves",
    "DEFAULT_PERCENTILES",
    "PropagationResult",
    "percentile",
    "propagate",
    "propagation_design",
    "propagation_matrix",
    "evaluate_design",
    "SobolIndices",
    "TornadoEntry",
    "sobol_from_samples",
    "sobol_indices",
    "tornado",
    "RobustCostObjective",
    "robust_problem",
]
