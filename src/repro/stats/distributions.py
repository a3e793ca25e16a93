"""Probability distributions with a uniform cdf/pdf/ppf/sample interface.

The paper models OHV driving times as a normal distribution truncated to
non-negative values (Sect. IV-C): ``P_OHV(Time <= T)`` is the normalized
integral of the Gaussian density over ``[0, T]``.  :class:`TruncatedNormal`
implements exactly that normalization.  The other distributions are the
standard toolbox the paper refers to ("in statistics there exist quite a lot
of distributions which describe such dependencies").

Every distribution is immutable and hashable so parameterized probability
expressions built on top of them can be cached and compared safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DistributionError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(z: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * z * z) / _SQRT2PI


def _big_phi(z: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


#: Acklam's rational approximation of the inverse normal CDF: the
#: central numerator ``_A``/denominator ``_B`` in ``r = (p - 1/2)^2``,
#: the tail numerator ``_C``/denominator ``_D`` in
#: ``q = sqrt(-2 log p)``, and the tail/central breakpoint ``_P_LOW``.
_A = (-3.969683028665376e+01, 2.209460984245205e+02,
      -2.759285104469687e+02, 1.383577518672690e+02,
      -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02,
      -1.556989798598866e+02, 6.680131188771972e+01,
      -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01,
      -2.400758277161838e+00, -2.549732539343734e+00,
      4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01,
      2.445134137142996e+00, 3.754408661907416e+00)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def _acklam_central(q):
    """Acklam's central branch at ``q = p - 0.5`` (float or array)."""
    a, b = _A, _B
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) * q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0))


def _acklam_tail(q):
    """Acklam's lower-tail branch at ``q = sqrt(-2 log p)``."""
    c, d = _C, _D
    return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))


def _big_phi_inv(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation).

    Accurate to roughly 1e-9 over (0, 1), refined with one Newton step,
    which is ample for optimization and sampling purposes.
    """
    if not 0.0 < p < 1.0:
        raise DistributionError(f"ppf argument must be in (0, 1), got {p}")
    if p < _P_LOW:
        x = _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    elif p <= _P_HIGH:
        x = _acklam_central(p - 0.5)
    else:
        x = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    # One Newton refinement using the exact erf-based CDF.
    err = _big_phi(x) - p
    density = _phi(x)
    if density > 0.0:
        x -= err / density
    return x


def _as_probability_array(p) -> np.ndarray:
    """Coerce quantile arguments to a 1-D float64 array."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise DistributionError(
            f"batch quantiles expect a 1-D array, got shape {arr.shape}")
    return arr


def _check_open_unit(p: np.ndarray) -> np.ndarray:
    """Validate every probability lies in the open interval (0, 1)."""
    valid = (p > 0.0) & (p < 1.0)
    if p.size and not valid.all():
        # The complement of validity, not a direct comparison, so NaNs
        # (which fail every comparison) are reported too.
        bad = p[~valid][0]
        raise DistributionError(
            f"ppf argument must be in (0, 1), got {bad}")
    return p


def _check_closed_unit(p: np.ndarray) -> np.ndarray:
    """Validate every probability lies in the closed interval [0, 1]."""
    valid = (p >= 0.0) & (p <= 1.0)
    if p.size and not valid.all():
        bad = p[~valid][0]
        raise DistributionError(
            f"ppf argument must be in [0, 1], got {bad}")
    return p


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """The :mod:`math` function ``fn`` applied to every element.

    NumPy's SIMD ``exp``/``log``/``log1p`` differ from libm in the last
    ulp (``erf`` and ``ndtri`` are SciPy kernels of their own), and the
    batched quantiles must equal the scalar ones bit for bit, so the
    transcendental calls stay on libm, one per element.
    """
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64,
                       count=values.size)


def _big_phi_inv_batch(p: np.ndarray) -> np.ndarray:
    """:func:`_big_phi_inv` over an array, bit for bit.

    Masks pick Acklam's three branches; the polynomials, ``sqrt``, the
    CDF and density around ``erf``/``exp`` and the Newton update run as
    NumPy expressions in the scalar's operation order (IEEE ``+ - * /``
    and ``sqrt`` are correctly rounded, so element-wise NumPy gives the
    scalar's doubles).  Only ``log``, ``erf`` and ``exp`` go through
    :func:`_libm`.
    """
    p = _check_open_unit(p)
    x = np.empty_like(p)
    low = p < _P_LOW
    high = p > _P_HIGH
    central = ~(low | high)
    x[central] = _acklam_central(p[central] - 0.5)
    x[low] = _acklam_tail(np.sqrt(-2.0 * _libm(math.log, p[low])))
    x[high] = -_acklam_tail(
        np.sqrt(-2.0 * _libm(math.log, 1.0 - p[high])))
    # The Newton refinement of _big_phi_inv, with _big_phi and _phi
    # spelled out around their libm calls.
    err = 0.5 * (1.0 + _libm(math.erf, x / _SQRT2)) - p
    density = _libm(math.exp, -0.5 * x * x) / _SQRT2PI
    step = density > 0.0
    x[step] -= err[step] / density[step]
    return x


class Distribution:
    """Abstract base class for univariate distributions.

    Subclasses implement :meth:`cdf`, :meth:`pdf` and :meth:`ppf`;
    :meth:`sample` and the survival helpers are derived.
    """

    def cdf(self, x: float) -> float:
        """Return ``P(X <= x)``."""
        raise NotImplementedError

    def pdf(self, x: float) -> float:
        """Return the density at ``x`` (0 outside the support)."""
        raise NotImplementedError

    def ppf(self, p: float) -> float:
        """Return the quantile: smallest ``x`` with ``cdf(x) >= p``."""
        raise NotImplementedError

    def sf(self, x: float) -> float:
        """Survival function ``P(X > x) = 1 - cdf(x)``."""
        return 1.0 - self.cdf(x)

    @property
    def mean(self) -> float:
        """Expected value of the distribution."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Variance of the distribution."""
        raise NotImplementedError

    @property
    def std(self) -> float:
        """Standard deviation of the distribution."""
        return math.sqrt(self.variance)

    def sample(self, rng) -> float:
        """Draw one sample using inverse-transform sampling.

        ``rng`` is any object with a ``random()`` method returning a float
        in ``[0, 1)`` (e.g. :class:`random.Random`).
        """
        u = rng.random()
        # Guard against u == 0, which would put ppf outside its domain.
        if u <= 0.0:
            u = 5e-324
        return self.ppf(u)

    def sample_many(self, rng, n: int) -> list:
        """Draw ``n`` independent samples as a list of floats."""
        if n < 0:
            raise DistributionError(f"sample count must be >= 0, got {n}")
        return [self.sample(rng) for _ in range(n)]

    def ppf_batch(self, p) -> np.ndarray:
        """Quantiles of a whole probability vector as a float64 array.

        Element-wise **bit-identical** to calling :meth:`ppf` per value —
        the contract the UQ propagation paths rely on.  Subclasses whose
        quantile is exact IEEE arithmetic around libm calls (the normal
        family, through :func:`_big_phi_inv_batch`) or a SciPy ufunc
        evaluating the same kernel either way override this with an
        array path; this generic fallback evaluates the scalar quantile
        per element, which is correct for every subclass.
        """
        p = _as_probability_array(p)
        return np.fromiter((self.ppf(float(v)) for v in p),
                           dtype=np.float64, count=p.size)

    def sample_batch(self, rng, n: int) -> np.ndarray:
        """Draw ``n`` samples as a float64 array.

        Consumes exactly the same ``rng`` stream as :meth:`sample_many`
        (one ``rng.random()`` per draw, the same zero guard) and pushes
        the uniforms through :meth:`ppf_batch`, so the values are
        bit-identical to the scalar path.
        """
        if n < 0:
            raise DistributionError(f"sample count must be >= 0, got {n}")

        def draws():
            for _ in range(n):
                u = rng.random()
                yield 5e-324 if u <= 0.0 else u

        uniforms = np.fromiter(draws(), dtype=np.float64, count=n)
        return self.ppf_batch(uniforms)


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian distribution ``N(mu, sigma^2)``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DistributionError(f"sigma must be > 0, got {self.sigma}")

    def cdf(self, x: float) -> float:
        return _big_phi((x - self.mu) / self.sigma)

    def pdf(self, x: float) -> float:
        return _phi((x - self.mu) / self.sigma) / self.sigma

    def ppf(self, p: float) -> float:
        return self.mu + self.sigma * _big_phi_inv(p)

    def ppf_batch(self, p) -> np.ndarray:
        # mu + sigma * z vectorizes exactly (IEEE ops are element-wise),
        # around the inverse CDF's exact array kernel.
        p = _check_open_unit(_as_probability_array(p))
        return self.mu + self.sigma * _big_phi_inv_batch(p)

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class TruncatedNormal(Distribution):
    """Normal distribution restricted (and renormalized) to ``[lower, upper]``.

    This is the paper's driving-time model: ``Normal(mu=4, sigma=2)``
    truncated to non-negative times, whose CDF is

    ``P(Time <= T) = (Phi((T-mu)/sigma) - Phi((lo-mu)/sigma)) / Z``

    with ``Z`` the Gaussian mass inside ``[lower, upper]``.
    """

    mu: float
    sigma: float
    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DistributionError(f"sigma must be > 0, got {self.sigma}")
        if not self.lower < self.upper:
            raise DistributionError(
                f"empty truncation interval [{self.lower}, {self.upper}]")
        if self._mass() <= 0.0:
            raise DistributionError(
                "truncation interval carries no probability mass")

    def _alpha(self) -> float:
        return (self.lower - self.mu) / self.sigma

    def _beta(self) -> float:
        if math.isinf(self.upper):
            return math.inf
        return (self.upper - self.mu) / self.sigma

    def _mass(self) -> float:
        hi = 1.0 if math.isinf(self.upper) else _big_phi(self._beta())
        lo = 0.0 if math.isinf(self.lower) else _big_phi(self._alpha())
        if math.isinf(self.lower) and self.lower < 0:
            lo = 0.0
        return hi - lo

    def cdf(self, x: float) -> float:
        if x <= self.lower:
            return 0.0
        if x >= self.upper:
            return 1.0
        lo = _big_phi(self._alpha()) if not math.isinf(self.lower) else 0.0
        return (_big_phi((x - self.mu) / self.sigma) - lo) / self._mass()

    def pdf(self, x: float) -> float:
        if x < self.lower or x > self.upper:
            return 0.0
        return _phi((x - self.mu) / self.sigma) / (self.sigma * self._mass())

    def ppf(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DistributionError(f"ppf argument must be in (0, 1), got {p}")
        lo = _big_phi(self._alpha()) if not math.isinf(self.lower) else 0.0
        return self.mu + self.sigma * _big_phi_inv(lo + p * self._mass())

    def ppf_batch(self, p) -> np.ndarray:
        # lo + p * mass and mu + sigma * z are exact element-wise IEEE
        # arithmetic on the same scalar constants, around the inverse
        # CDF's exact array kernel (which rejects an lo + p * mass that
        # rounds to 0 or 1, as the scalar does).
        p = _check_open_unit(_as_probability_array(p))
        lo = _big_phi(self._alpha()) if not math.isinf(self.lower) else 0.0
        return self.mu + self.sigma * _big_phi_inv_batch(lo + p * self._mass())

    @property
    def mean(self) -> float:
        a, mass = self._alpha(), self._mass()
        phi_a = _phi(a) if not math.isinf(self.lower) else 0.0
        phi_b = 0.0 if math.isinf(self.upper) else _phi(self._beta())
        return self.mu + self.sigma * (phi_a - phi_b) / mass

    @property
    def variance(self) -> float:
        a, mass = self._alpha(), self._mass()
        phi_a = _phi(a) if not math.isinf(self.lower) else 0.0
        if math.isinf(self.upper):
            phi_b, b_term = 0.0, 0.0
        else:
            b = self._beta()
            phi_b, b_term = _phi(b), b * _phi(b)
        a_term = 0.0 if math.isinf(self.lower) else a * phi_a
        frac = (a_term - b_term) / mass
        delta = (phi_a - phi_b) / mass
        return self.sigma * self.sigma * (1.0 + frac - delta * delta)

    def mgf(self, t: float) -> float:
        """Moment generating function ``E[exp(t X)]``.

        Closed form for the truncated normal:
        ``exp(mu t + sigma^2 t^2 / 2) * (Phi(beta - sigma t) -
        Phi(alpha - sigma t)) / (Phi(beta) - Phi(alpha))``.
        Used e.g. for the probability that a Poisson event (rate
        ``lam``) hits a window whose random length is this
        distribution: ``1 - mgf(-lam)``.
        """
        a = self._alpha()
        lo = _big_phi(a - self.sigma * t) if not math.isinf(self.lower) \
            else 0.0
        hi = 1.0 if math.isinf(self.upper) \
            else _big_phi(self._beta() - self.sigma * t)
        factor = math.exp(self.mu * t + 0.5 * self.sigma ** 2 * t * t)
        return factor * (hi - lo) / self._mass()

    def capped_mgf(self, t: float, cap: float) -> float:
        """``E[exp(t * min(X, cap))]`` in closed form.

        Splits at the cap: ``E[e^{tX} 1{X <= cap}] + e^{t cap} P(X > cap)``.
        Used for windows that end at the earlier of a random transit time
        and a fixed timer runtime (the Elbtunnel "with LB4" design).
        """
        if cap <= self.lower:
            return math.exp(t * cap)
        if cap >= self.upper:
            return self.mgf(t)
        a = self._alpha()
        lo = _big_phi(a - self.sigma * t) if not math.isinf(self.lower) \
            else 0.0
        mid = _big_phi((cap - self.mu) / self.sigma - self.sigma * t)
        factor = math.exp(self.mu * t + 0.5 * self.sigma ** 2 * t * t)
        below = factor * (mid - lo) / self._mass()
        return below + math.exp(t * cap) * self.sf(cap)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with rate ``lam`` (mean ``1/lam``).

    The workhorse of reliability: the probability of at least one Poisson
    failure arrival within an exposure window ``t`` is ``cdf(t)``.
    """

    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise DistributionError(f"rate must be > 0, got {self.lam}")

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.lam * x)

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        return self.lam * math.exp(-self.lam * x)

    def ppf(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DistributionError(f"ppf argument must be in (0, 1), got {p}")
        return -math.log1p(-p) / self.lam

    def ppf_batch(self, p) -> np.ndarray:
        # Negation and division vectorize exactly; log1p stays on the
        # libm kernel (NumPy's SIMD log1p differs in the last ulp).
        p = _check_open_unit(_as_probability_array(p))
        return -_libm(math.log1p, -p) / self.lam

    @property
    def mean(self) -> float:
        return 1.0 / self.lam

    @property
    def variance(self) -> float:
        return 1.0 / (self.lam * self.lam)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull distribution with shape ``k`` and scale ``lam``.

    ``k < 1`` models infant mortality, ``k == 1`` reduces to the
    exponential, ``k > 1`` models wear-out — the standard bathtub pieces.
    """

    k: float
    lam: float

    def __post_init__(self):
        if self.k <= 0.0 or self.lam <= 0.0:
            raise DistributionError(
                f"shape and scale must be > 0, got k={self.k} lam={self.lam}")

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-((x / self.lam) ** self.k))

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if self.k < 1.0:
                return math.inf
            return self.k / self.lam if self.k == 1.0 else 0.0
        z = x / self.lam
        return (self.k / self.lam) * z ** (self.k - 1.0) * math.exp(-(z ** self.k))

    def ppf(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DistributionError(f"ppf argument must be in (0, 1), got {p}")
        return self.lam * (-math.log1p(-p)) ** (1.0 / self.k)

    @property
    def mean(self) -> float:
        return self.lam * math.gamma(1.0 + 1.0 / self.k)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.k)
        g2 = math.gamma(1.0 + 2.0 / self.k)
        return self.lam * self.lam * (g2 - g1 * g1)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal distribution: ``ln X ~ N(mu, sigma^2)``.

    Commonly used for repair times and uncertainty factors on failure
    rates (error-factor style data as in the NRC fault tree handbook).
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DistributionError(f"sigma must be > 0, got {self.sigma}")

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return _big_phi((math.log(x) - self.mu) / self.sigma)

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return _phi((math.log(x) - self.mu) / self.sigma) / (x * self.sigma)

    def ppf(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DistributionError(f"ppf argument must be in (0, 1), got {p}")
        return math.exp(self.mu + self.sigma * _big_phi_inv(p))

    def ppf_batch(self, p) -> np.ndarray:
        # The affine part vectorizes exactly; exp stays on the libm
        # kernel (NumPy's SIMD exp differs in the last ulp).
        p = _check_open_unit(_as_probability_array(p))
        return _libm(math.exp, self.mu + self.sigma * _big_phi_inv_batch(p))

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma * self.sigma)

    @property
    def variance(self) -> float:
        s2 = self.sigma * self.sigma
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Continuous uniform distribution on ``[a, b]``."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise DistributionError(f"need a < b, got [{self.a}, {self.b}]")

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def pdf(self, x: float) -> float:
        if self.a <= x <= self.b:
            return 1.0 / (self.b - self.a)
        return 0.0

    def ppf(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"ppf argument must be in [0, 1], got {p}")
        return self.a + p * (self.b - self.a)

    def ppf_batch(self, p) -> np.ndarray:
        # Pure affine arithmetic: exactly the scalar operations, fully
        # vectorized.
        p = _check_closed_unit(_as_probability_array(p))
        return self.a + p * (self.b - self.a)

    @property
    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def variance(self) -> float:
        w = self.b - self.a
        return w * w / 12.0


@dataclass(frozen=True)
class PointMass(Distribution):
    """Degenerate distribution concentrated at a single value.

    Useful to plug deterministic quantities (a fixed transit time, a
    constant probability) into machinery that expects a distribution.
    """

    value: float

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def pdf(self, x: float) -> float:
        return math.inf if x == self.value else 0.0

    def ppf(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise DistributionError(f"ppf argument must be in [0, 1], got {p}")
        return self.value

    def ppf_batch(self, p) -> np.ndarray:
        p = _check_closed_unit(_as_probability_array(p))
        return np.full(p.size, self.value, dtype=np.float64)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, rng) -> float:
        return self.value

    def sample_batch(self, rng, n: int) -> np.ndarray:
        # Like sample()/sample_many(), a point mass consumes no draws.
        if n < 0:
            raise DistributionError(f"sample count must be >= 0, got {n}")
        return np.full(n, self.value, dtype=np.float64)
