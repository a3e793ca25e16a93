"""Bayesian estimation of failure probabilities from operating data.

The paper's quantitative inputs (sensor false-detection probabilities,
accumulated constants) come from operating experience — counts of events
over counts of opportunities.  The conjugate Beta-Binomial machinery
turns such counts into posterior distributions:

* :class:`Beta` — the conjugate prior/posterior family,
* :func:`update_binomial` — posterior after ``k`` failures in ``n``
  demands,
* :func:`update_poisson_exposure` — posterior failure *rate* via the
  Gamma-Poisson conjugacy for "k events in T hours" data, returned as a
  :class:`GammaDist`,
* :func:`jeffreys_prior` — the standard objective prior Beta(1/2, 1/2).

Posterior means/credible intervals plug directly into fault tree leaf
probabilities, and whole posteriors into
:mod:`repro.core.uncertainty` for conclusion-robustness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import DistributionError
from repro.stats.distributions import (
    Distribution,
    _as_probability_array,
    _check_open_unit,
)


def _special():
    """:mod:`scipy.special`, imported on first use.

    Importing SciPy costs more than the rest of the library, and only
    these two distributions need it.  Constructing one imports it, so a
    parent process that builds a model hands it loaded to the pool
    workers it forks; the other uses cover instances made without
    ``__init__`` (unpickled ones).
    """
    from scipy import special
    return special


@dataclass(frozen=True)
class Beta(Distribution):
    """Beta distribution on [0, 1] with shape parameters ``a``, ``b``."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise DistributionError(
                f"shape parameters must be > 0, got a={self.a} b={self.b}")
        _special()

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return float(_special().betainc(self.a, self.b, x))

    def pdf(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            return 0.0
        gammaln = _special().gammaln
        log_norm = (gammaln(self.a + self.b)
                    - gammaln(self.a) - gammaln(self.b))
        if x == 0.0:
            if self.a < 1.0:
                return math.inf
            if self.a > 1.0:
                return 0.0
            return float(math.exp(log_norm)) * (1.0 - x) ** (self.b - 1.0)
        if x == 1.0:
            if self.b < 1.0:
                return math.inf
            if self.b > 1.0:
                return 0.0
        return float(math.exp(
            log_norm + (self.a - 1.0) * math.log(x)
            + (self.b - 1.0) * math.log1p(-x)))

    def ppf(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DistributionError(f"ppf argument must be in (0, 1), "
                                    f"got {p}")
        return float(_special().betaincinv(self.a, self.b, p))

    def ppf_batch(self, p) -> np.ndarray:
        # SciPy ufuncs evaluate the same C kernel per element whether
        # called on scalars or arrays, so this is both vectorized and
        # bit-identical to the scalar quantile.
        p = _check_open_unit(_as_probability_array(p))
        return np.asarray(_special().betaincinv(self.a, self.b, p),
                          dtype=np.float64)

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        total = self.a + self.b
        return self.a * self.b / (total * total * (total + 1.0))

    def credible_interval(self, confidence: float = 0.95
                          ) -> Tuple[float, float]:
        """Central credible interval of the probability."""
        if not 0.0 < confidence < 1.0:
            raise DistributionError(
                f"confidence must be in (0, 1), got {confidence}")
        tail = (1.0 - confidence) / 2.0
        return (self.ppf(tail), self.ppf(1.0 - tail))


@dataclass(frozen=True)
class GammaDist(Distribution):
    """Gamma distribution with shape ``k`` and rate ``rate`` (for rates)."""

    k: float
    rate: float

    def __post_init__(self):
        if self.k <= 0.0 or self.rate <= 0.0:
            raise DistributionError(
                f"shape and rate must be > 0, got k={self.k} "
                f"rate={self.rate}")
        _special()

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return float(_special().gammainc(self.k, self.rate * x))

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if self.k < 1.0:
                return math.inf
            return self.rate if self.k == 1.0 else 0.0
        log_pdf = (self.k * math.log(self.rate)
                   + (self.k - 1.0) * math.log(x) - self.rate * x
                   - float(_special().gammaln(self.k)))
        return math.exp(log_pdf)

    def ppf(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DistributionError(f"ppf argument must be in (0, 1), "
                                    f"got {p}")
        return float(_special().gammaincinv(self.k, p)) / self.rate

    def ppf_batch(self, p) -> np.ndarray:
        # Same SciPy kernel as the scalar path; the division is exact
        # element-wise IEEE arithmetic.
        p = _check_open_unit(_as_probability_array(p))
        return np.asarray(_special().gammaincinv(self.k, p),
                          dtype=np.float64) / self.rate

    @property
    def mean(self) -> float:
        return self.k / self.rate

    @property
    def variance(self) -> float:
        return self.k / (self.rate * self.rate)

    def credible_interval(self, confidence: float = 0.95
                          ) -> Tuple[float, float]:
        """Central credible interval of the rate."""
        if not 0.0 < confidence < 1.0:
            raise DistributionError(
                f"confidence must be in (0, 1), got {confidence}")
        tail = (1.0 - confidence) / 2.0
        return (self.ppf(tail), self.ppf(1.0 - tail))


def jeffreys_prior() -> Beta:
    """The objective Beta(1/2, 1/2) prior for a binomial probability."""
    return Beta(0.5, 0.5)


def uniform_prior() -> Beta:
    """The flat Beta(1, 1) prior."""
    return Beta(1.0, 1.0)


def update_binomial(prior: Beta, failures: int, demands: int) -> Beta:
    """Posterior after observing ``failures`` in ``demands`` trials."""
    if demands < 0 or failures < 0 or failures > demands:
        raise DistributionError(
            f"need 0 <= failures <= demands, got {failures}/{demands}")
    return Beta(prior.a + failures, prior.b + demands - failures)


def update_poisson_exposure(prior_shape: float, prior_rate: float,
                            events: int, exposure: float) -> GammaDist:
    """Gamma posterior of a Poisson rate after ``events`` in ``exposure``.

    ``prior_shape``/``prior_rate`` parameterize the Gamma prior; the
    Jeffreys choice is shape 0.5, rate -> 0 (use a small rate).
    """
    if events < 0:
        raise DistributionError(f"events must be >= 0, got {events}")
    if exposure <= 0.0:
        raise DistributionError(f"exposure must be > 0, got {exposure}")
    return GammaDist(prior_shape + events, prior_rate + exposure)
