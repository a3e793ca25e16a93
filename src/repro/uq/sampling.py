"""Seeded sampling designs producing leaf-probability matrices.

Two designs over the unit hypercube, both deterministic functions of
``(n_samples, n_events, seed)`` alone:

* ``mc``  — plain Monte Carlo: independent uniforms;
* ``lhs`` — Latin hypercube: each event's quantile range is split into
  ``n_samples`` equal strata with one jittered draw per stratum,
  independently shuffled per event — orthogonal-main-effect style space
  coverage (cf. Bagchi, PAPERS.md) that beats plain MC at equal budget.

The uniform design is drawn whole, in one process: Latin strata span
the full sample set, and bit-identical results independent of worker
and chunk count require the design to be a pure function of the seed.
Parallelism in :mod:`repro.engine` therefore splits the finished
uniform design row-wise instead of seeding per-shard streams; turning
uniforms into probabilities is element-wise per row, so it runs in the
chunks (see :func:`repro.uq.evaluate_design`).

:func:`fill_probability_matrix` turns uniforms into the ``(n_samples,
n_leaves)`` leaf-probability matrix the compiled evaluators consume:
uncertain columns through the array quantile kernels
(:meth:`~repro.stats.distributions.Distribution.ppf_batch`, clipped
into ``[0, 1]``), certain columns held at their default probabilities.
:func:`probability_matrix` is the design and the fill in one call.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import UQError
from repro.uq.spec import UncertainModel

#: Supported sampling designs.
SAMPLERS = ("mc", "lhs")

#: Uniforms are clamped into the open interval so every quantile
#: function stays inside its domain.
_U_LO = 1e-12
_U_HI = 1.0 - 1e-12


def uniform_matrix(n_samples: int, n_events: int, seed: int = 0,
                   sampler: str = "lhs") -> np.ndarray:
    """A deterministic ``(n_samples, n_events)`` matrix of uniforms.

    The matrix depends only on the arguments — the same call always
    returns the same IEEE doubles, the foundation of the UQ subsystem's
    bit-reproducibility guarantees.
    """
    if sampler not in SAMPLERS:
        raise UQError(
            f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    if n_samples < 1:
        raise UQError(f"n_samples must be >= 1, got {n_samples}")
    if n_events < 1:
        raise UQError(f"n_events must be >= 1, got {n_events}")
    rng = np.random.default_rng(int(seed))
    if sampler == "mc":
        u = rng.random((n_samples, n_events))
    else:
        u = np.empty((n_samples, n_events))
        strata = np.arange(n_samples, dtype=np.float64)
        for j in range(n_events):
            jittered = (strata + rng.random(n_samples)) / n_samples
            u[:, j] = rng.permutation(jittered)
    return np.clip(u, _U_LO, _U_HI)


def uncertain_leaves(model: UncertainModel,
                     leaf_names: Sequence[str]) -> list:
    """The uncertain events in leaf-column order, validated.

    Every event in ``model`` must actually be a leaf of the quantified
    tree; a stray name is a modelling error worth failing loudly on.
    """
    names = list(leaf_names)
    unknown = set(model) - set(names)
    if unknown:
        raise UQError(
            f"uncertain events {sorted(unknown)} are not leaves of the "
            f"quantified tree")
    return [name for name in names if name in model]


def fill_probability_matrix(model: UncertainModel,
                            leaf_names: Sequence[str],
                            uniforms: np.ndarray,
                            defaults: Optional[Mapping[str, float]]
                            = None) -> np.ndarray:
    """Turn a uniform design into a leaf-probability matrix.

    ``uniforms`` has one column per uncertain event (in the order
    :func:`uncertain_leaves` yields).  Uncertain columns go through the
    distribution's ``ppf_batch`` and are clipped into ``[0, 1]``;
    certain columns are held constant at their ``defaults`` entry.
    Shared by every design consumer (propagation, Sobol pick-freeze,
    robust objectives) so the fill/validate/clip semantics cannot
    diverge between them.
    """
    defaults = defaults or {}
    names = list(leaf_names)
    uncertain = uncertain_leaves(model, names)
    if uniforms.ndim != 2 or uniforms.shape[1] != len(uncertain):
        raise UQError(
            f"uniform design must have shape (n, {len(uncertain)}), "
            f"got {uniforms.shape}")
    matrix = np.empty((uniforms.shape[0], len(names)), dtype=np.float64)
    column_of: Dict[str, int] = {name: k
                                 for k, name in enumerate(uncertain)}
    for j, name in enumerate(names):
        if name in column_of:
            values = model[name].ppf_batch(uniforms[:, column_of[name]])
            matrix[:, j] = np.minimum(1.0, np.maximum(0.0, values))
        else:
            if name not in defaults:
                raise UQError(
                    f"leaf {name!r} has neither a distribution nor a "
                    f"default probability")
            value = float(defaults[name])
            if not 0.0 <= value <= 1.0:
                raise UQError(
                    f"default probability of {name!r} must be in "
                    f"[0, 1], got {value}")
            matrix[:, j] = value
    return matrix


def probability_matrix(model: UncertainModel,
                       leaf_names: Sequence[str],
                       n_samples: int, seed: int = 0,
                       sampler: str = "lhs",
                       defaults: Optional[Mapping[str, float]] = None,
                       ) -> np.ndarray:
    """The ``(n_samples, len(leaf_names))`` leaf-probability matrix.

    ``leaf_names`` is the evaluator's column order
    (:attr:`CompiledHazard.leaf_names <repro.compile.CompiledHazard>`).
    Columns named in ``model`` are sampled — uniforms from
    :func:`uniform_matrix` pushed through the distribution's
    ``ppf_batch`` and clipped into ``[0, 1]`` — while the remaining
    columns are held constant at their ``defaults`` entry.
    """
    if n_samples < 1:
        raise UQError(f"n_samples must be >= 1, got {n_samples}")
    # A valid model is non-empty and fully contained in the leaves, so
    # there is always at least one uncertain column to draw.
    uncertain = uncertain_leaves(model, leaf_names)
    uniforms = uniform_matrix(n_samples, len(uncertain), seed=seed,
                              sampler=sampler)
    return fill_probability_matrix(model, leaf_names, uniforms,
                                   defaults=defaults)
