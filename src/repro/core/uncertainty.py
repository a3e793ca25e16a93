"""Uncertainty propagation through safety models.

"It is our experience, that the results of this analysis depend a lot on
how well the statistical model reflects reality" (Sect. V).  This module
quantifies that dependence: declare distributions over the uncertain
*inputs* of a model (accumulated constants, arrival rates, sensor fault
probabilities), sample them, rebuild the model per sample, and report the
induced distribution of any output — a hazard probability, the expected
cost, or the location of the optimum itself.

The result answers the review question every quantitative safety case
faces: *if your input numbers are off by their plausible ranges, does
the conclusion survive?*

This is the model-level face of :mod:`repro.uq`: the same seeded design
(:func:`repro.uq.sampling.uniform_matrix`, mapped through each input's
``ppf_batch``), the same percentile and the same centred Sobol estimator
(:func:`repro.uq.sensitivity.sobol_from_samples`), applied to output
functions over named inputs instead of fault trees.  :mod:`repro.uq`
builds on :mod:`repro.core`, so it is imported inside the functions and
loading the core never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import ModelError
from repro.stats.distributions import Distribution

#: Builds a model-output value from one concrete input sample.
OutputFn = Callable[[Dict[str, float]], float]


@dataclass(frozen=True)
class UncertaintyResult:
    """Sampled distribution of one model output."""

    name: str
    samples: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        m = self.mean
        n = len(self.samples)
        if n < 2:
            return 0.0
        return (sum((x - m) ** 2 for x in self.samples) / (n - 1)) ** 0.5

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ModelError(f"percentile must be in [0, 100], got {q}")
        from repro.uq.propagate import percentile
        return percentile(self.samples, q)

    def interval(self, confidence: float = 0.90) -> Tuple[float, float]:
        """Central credible interval from the sample percentiles."""
        if not 0.0 < confidence < 1.0:
            raise ModelError(
                f"confidence must be in (0, 1), got {confidence}")
        tail = (1.0 - confidence) / 2.0 * 100.0
        return (self.percentile(tail), self.percentile(100.0 - tail))

    def __repr__(self) -> str:
        lo, hi = self.interval()
        return (f"UncertaintyResult({self.name}: mean={self.mean:.4g}, "
                f"90% interval [{lo:.4g}, {hi:.4g}], "
                f"n={len(self.samples)})")


def _check(inputs: Dict[str, Distribution], samples: int,
           minimum: int) -> None:
    if samples < minimum:
        raise ModelError(f"samples must be >= {minimum}, got {samples}")
    if not inputs:
        raise ModelError("no uncertain inputs declared")


def _rows(inputs: Dict[str, Distribution],
          uniforms: np.ndarray) -> List[Dict[str, float]]:
    """One named input sample per design row: column ``j`` through the
    quantile function of input ``j``."""
    columns = [dist.ppf_batch(uniforms[:, j]).tolist()
               for j, dist in enumerate(inputs.values())]
    return [dict(zip(inputs, row)) for row in zip(*columns)]


def latin_hypercube(inputs: Dict[str, Distribution], samples: int,
                    seed: int = 0) -> List[Dict[str, float]]:
    """Latin hypercube sample of the input distributions.

    Each input's quantile range is split into ``samples`` equal strata;
    one draw per stratum, shuffled independently per input — better
    space coverage than plain Monte Carlo at small sample counts.
    """
    _check(inputs, samples, 1)
    from repro.uq.sampling import uniform_matrix
    return _rows(inputs, uniform_matrix(samples, len(inputs), seed=seed,
                                        sampler="lhs"))


def propagate(inputs: Dict[str, Distribution], output: OutputFn,
              samples: int = 200, seed: int = 0,
              name: str = "output") -> UncertaintyResult:
    """Propagate input uncertainty through ``output``.

    ``output`` receives one concrete input sample (name -> value) and
    returns the model quantity of interest — typically it rebuilds a
    :class:`~repro.core.model.SafetyModel` from the sampled constants
    and evaluates a cost or hazard probability.
    """
    return propagate_many(inputs, {name: output}, samples, seed)[name]


def propagate_many(inputs: Dict[str, Distribution],
                   outputs: Dict[str, OutputFn], samples: int = 200,
                   seed: int = 0) -> Dict[str, UncertaintyResult]:
    """Propagate the *same* input samples through several outputs.

    Sharing the draws keeps the outputs comparable (common random
    numbers) and amortizes expensive model rebuilds when the output
    functions share work via closures.
    """
    draws = latin_hypercube(inputs, samples, seed)
    return {name: UncertaintyResult(
                name=name, samples=tuple(float(fn(draw)) for draw in draws))
            for name, fn in outputs.items()}


def sobol_first_order(inputs: Dict[str, Distribution], output: OutputFn,
                      samples: int = 1024,
                      seed: int = 0) -> Dict[str, float]:
    """First-order Sobol sensitivity indices (Saltelli estimator).

    ``S_i = Var(E[Y | X_i]) / Var(Y)`` measures how much of the output
    variance each uncertain input explains on its own — which of the
    contested statistical assumptions (Sect. V) actually moves the
    conclusion.  The A and B sample matrices are the two halves of one
    seeded ``(samples, 2 d)`` design, as in
    :func:`repro.uq.sobol_indices`; with the pick-freeze matrices
    ``A_B^i`` (Saltelli 2010) that costs ``samples * (d + 2)`` output
    evaluations.

    Indices are clipped into [0, 1]; with ``samples`` around 1000 expect
    absolute accuracy of a few percent on smooth models.
    """
    _check(inputs, samples, 2)
    from repro.uq.sampling import uniform_matrix
    from repro.uq.sensitivity import sobol_from_samples
    d = len(inputs)
    design = uniform_matrix(samples, 2 * d, seed=seed, sampler="mc")
    a_rows = _rows(inputs, design[:, :d])
    b_rows = _rows(inputs, design[:, d:])

    def evaluate(rows: List[Dict[str, float]]) -> np.ndarray:
        return np.array([float(output(row)) for row in rows])

    f_a = evaluate(a_rows)
    f_b = evaluate(b_rows)
    f_ab = {name: evaluate([{**a_row, name: b_row[name]}
                            for a_row, b_row in zip(a_rows, b_rows)])
            for name in inputs}
    first, _total, _variance = sobol_from_samples(f_a, f_b, f_ab)
    return first
