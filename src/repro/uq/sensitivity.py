"""Global sensitivity of the top-event probability: Sobol and tornado.

Variance-based sensitivity answers the paper's Sect. V worry head-on:
*which* contested statistical assumption actually moves the conclusion?
The Saltelli pick-freeze design estimates first-order indices
(``S_i = Var(E[Y|X_i]) / Var(Y)``, the fraction of output variance the
event explains alone) and total-order indices (``T_i``, everything the
event is involved in, interactions included) from ``(d + 2) * n`` model
evaluations — all pushed through one compiled batch, so a full Sobol
analysis of a production-scale tree costs a few NumPy sweeps.

The tornado ranking is the cheap cousin: swing the top-event probability
between each event's low and high quantile with everything else at its
median — ``2 d + 1`` evaluations, one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import UQError
from repro.fta.constraints import ConstraintPolicy
from repro.fta.tree import FaultTree
from repro.uq.propagate import _checked_evaluator
from repro.uq.sampling import (
    SAMPLERS,
    fill_probability_matrix,
    uncertain_leaves,
    uniform_matrix,
)
from repro.uq.spec import UncertainModel


@dataclass(frozen=True)
class SobolIndices:
    """First- and total-order Sobol indices per uncertain event."""

    name: str
    first: Dict[str, float]
    total: Dict[str, float]
    n_samples: int
    seed: int
    variance: float

    @property
    def events(self) -> Tuple[str, ...]:
        return tuple(self.first)

    def ranking(self) -> List[Tuple[str, float, float]]:
        """``(event, S_i, T_i)`` rows sorted by total index, descending."""
        return sorted(
            ((event, self.first[event], self.total[event])
             for event in self.first),
            key=lambda row: row[2], reverse=True)

    def __repr__(self) -> str:
        top = self.ranking()[0] if self.first else ("-", 0.0, 0.0)
        return (f"SobolIndices({self.name}: {len(self.first)} events, "
                f"top {top[0]!r} S={top[1]:.3f} T={top[2]:.3f})")


def sobol_from_samples(f_a: np.ndarray, f_b: np.ndarray,
                       f_ab: Dict[str, np.ndarray]
                       ) -> Tuple[Dict[str, float], Dict[str, float],
                                  float]:
    """Saltelli/Jansen estimators from pick-freeze evaluations.

    ``f_a``/``f_b`` are the model on the two independent matrices;
    ``f_ab[i]`` the model on A with column ``i`` replaced from B.
    Returns ``(first, total, variance)`` — the index mappings (both
    clipped into ``[0, 1]``) plus the pooled output variance they were
    normalized by.  Exposed separately so analytic test functions (and
    models outside the fault-tree machinery, such as
    :func:`repro.core.sobol_first_order`) can reuse the estimators.

    The first-order sum centres ``f_b`` on the pooled mean: the raw
    Saltelli product ``f_b * (f_ab - f_a)`` is unbiased too, but its
    noise grows with the square of the output's mean, so a model whose
    output sits far from zero (a cost near 1,000 with a spread of 1)
    drowns its indices in it.  ``f_ab - f_a`` and the Jansen total-order
    term are shift-invariant already.
    """
    f_a = np.asarray(f_a, dtype=np.float64)
    f_b = np.asarray(f_b, dtype=np.float64)
    if f_a.shape != f_b.shape or f_a.ndim != 1 or f_a.size < 2:
        raise UQError(
            f"need matching 1-D sample vectors of length >= 2, got "
            f"{f_a.shape} and {f_b.shape}")
    pooled = np.concatenate([f_a, f_b])
    variance = float(np.var(pooled, ddof=1))
    f_b_centred = f_b - np.mean(pooled)
    first: Dict[str, float] = {}
    total: Dict[str, float] = {}
    for event, f_mixed in f_ab.items():
        f_mixed = np.asarray(f_mixed, dtype=np.float64)
        if f_mixed.shape != f_a.shape:
            raise UQError(
                f"pick-freeze vector for {event!r} has shape "
                f"{f_mixed.shape}, expected {f_a.shape}")
        if variance <= 0.0:
            first[event] = 0.0
            total[event] = 0.0
            continue
        # Saltelli 2010 first-order and Jansen total-order estimators.
        s_i = float(np.mean(f_b_centred * (f_mixed - f_a))) / variance
        t_i = float(np.mean((f_a - f_mixed) ** 2)) / (2.0 * variance)
        first[event] = min(1.0, max(0.0, s_i))
        total[event] = min(1.0, max(0.0, t_i))
    return first, total, variance


def sobol_indices(tree: FaultTree, model: UncertainModel,
                  n_samples: int = 1024, seed: int = 0,
                  sampler: str = "mc", method: str = "exact",
                  policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT
                  ) -> SobolIndices:
    """Sobol first/total indices of the top-event probability.

    The A and B matrices come from one seeded ``(n, 2d)`` design split
    in half (so the whole analysis is reproducible from the seed); all
    ``(d + 2) * n`` evaluations run as a single compiled batch.
    """
    if n_samples < 2:
        raise UQError(f"n_samples must be >= 2, got {n_samples}")
    if sampler not in SAMPLERS:
        raise UQError(
            f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    evaluator = _checked_evaluator(tree, method, policy)
    names = evaluator.leaf_names
    uncertain = uncertain_leaves(model, names)
    d = len(uncertain)
    design = uniform_matrix(n_samples, 2 * d, seed=seed, sampler=sampler)
    defaults = evaluator.defaults
    m_a = fill_probability_matrix(model, names, design[:, :d],
                                  defaults=defaults)
    m_b = fill_probability_matrix(model, names, design[:, d:],
                                  defaults=defaults)
    blocks = [m_a, m_b]
    for k in range(d):
        mixed = m_a.copy()
        column = names.index(uncertain[k])
        mixed[:, column] = m_b[:, column]
        blocks.append(mixed)
    stacked = np.concatenate(blocks, axis=0)
    values = evaluator.evaluate_matrix(stacked)
    f_a = values[:n_samples]
    f_b = values[n_samples:2 * n_samples]
    f_ab = {uncertain[k]:
            values[(2 + k) * n_samples:(3 + k) * n_samples]
            for k in range(d)}
    first, total, variance = sobol_from_samples(f_a, f_b, f_ab)
    return SobolIndices(name=tree.name, first=first, total=total,
                        n_samples=n_samples, seed=int(seed),
                        variance=variance)


@dataclass(frozen=True)
class TornadoEntry:
    """One event's swing on the tornado chart."""

    event: str
    low: float
    high: float
    baseline: float

    @property
    def swing(self) -> float:
        """Width of the top-event excursion driven by this event."""
        return abs(self.high - self.low)


def tornado(tree: FaultTree, model: UncertainModel,
            low_q: float = 0.05, high_q: float = 0.95,
            method: str = "exact",
            policy: ConstraintPolicy = ConstraintPolicy.INDEPENDENT
            ) -> List[TornadoEntry]:
    """One-at-a-time swing ranking of the uncertain events.

    Every event is pushed to its ``low_q`` and ``high_q`` quantile while
    the others sit at their medians; entries come back sorted by swing,
    largest first — the classic tornado chart, and a cheap preview of
    the Sobol total-order ranking (exact for additive trees).
    """
    if not 0.0 < low_q < high_q < 1.0:
        raise UQError(
            f"need 0 < low_q < high_q < 1, got {low_q}, {high_q}")
    evaluator = _checked_evaluator(tree, method, policy)
    names = evaluator.leaf_names
    uncertain = uncertain_leaves(model, names)
    defaults = evaluator.defaults

    def clipped(value: float) -> float:
        return min(1.0, max(0.0, value))

    base_row = []
    for name in names:
        if name in model:
            base_row.append(clipped(model[name].ppf(0.5)))
        elif name in defaults:
            base_row.append(float(defaults[name]))
        else:
            raise UQError(
                f"leaf {name!r} has neither a distribution nor a "
                f"default probability")
    rows = [list(base_row)]
    for event in uncertain:
        j = names.index(event)
        for q in (low_q, high_q):
            row = list(base_row)
            row[j] = clipped(model[event].ppf(q))
            rows.append(row)
    values = evaluator.evaluate_matrix(np.asarray(rows,
                                                  dtype=np.float64))
    baseline = float(values[0])
    entries = []
    for k, event in enumerate(uncertain):
        low = float(values[1 + 2 * k])
        high = float(values[2 + 2 * k])
        entries.append(TornadoEntry(event=event, low=low, high=high,
                                    baseline=baseline))
    return sorted(entries, key=lambda e: e.swing, reverse=True)
