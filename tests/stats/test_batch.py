"""Property tests: batched quantiles are bit-identical to the scalar path.

``ppf_batch``/``sample_batch`` are not allowed to be merely close to the
scalar ``ppf``/``sample_many`` — the UQ subsystem's reproducibility
guarantees rest on exact element-wise identity, so every distribution is
pinned with ``==`` on the raw IEEE doubles.
"""

import random

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.stats import (
    Beta,
    Exponential,
    GammaDist,
    LogNormal,
    Normal,
    PointMass,
    TruncatedNormal,
    Uniform,
    Weibull,
)

ALL_DISTRIBUTIONS = [
    Normal(0.0, 1.0),
    Normal(-3.5, 0.25),
    TruncatedNormal(4.0, 2.0, lower=0.0),
    TruncatedNormal(1.0, 1.0, lower=-1.0, upper=2.5),
    Exponential(0.7),
    Exponential(1e-4),
    Weibull(0.8, 2.0),
    Weibull(2.5, 0.5),
    LogNormal(-9.0, 1.2),
    LogNormal(0.0, 0.3),
    Uniform(0.0, 1.0),
    Uniform(-5.0, 7.0),
    PointMass(0.25),
    Beta(0.5, 0.5),
    Beta(10.5, 2000.0),
    GammaDist(1.5, 100.0),
    GammaDist(0.5, 1e-3),
]

IDS = [f"{type(d).__name__}-{i}" for i, d in enumerate(ALL_DISTRIBUTIONS)]


#: Acklam's tail/central breakpoints of the inverse normal CDF.
BREAKPOINTS = np.array([0.02425, 1.0 - 0.02425])

#: Inputs where the ppf kernels switch branch or reach the domain's
#: ends: both breakpoints with their neighbouring doubles, the centre,
#: the UQ designs' clamp bounds, the smallest subnormal and the largest
#: double below 1.
EDGES = np.concatenate([
    BREAKPOINTS,
    np.nextafter(BREAKPOINTS, 0.0),
    np.nextafter(BREAKPOINTS, 1.0),
    [0.5, 1e-12, 1.0 - 1e-12, 5e-324, np.nextafter(1.0, 0.0)],
])

#: Deep-tail inputs whose quantile changes when the Newton step's density
#: uses NumPy's ``exp`` instead of libm's (7 of 2.2M random inputs on an
#: x86-64 machine with NumPy 2.4): they keep that call on libm.
EXP_WITNESSES = np.array([
    5.608207276356693e-69, 7.877697873346074e-126, 9.704892615962201e-133,
    3.975413724859911e-45, 3.207146736343614e-155, 4.3366596717516073e-103,
    4.049641546644922e-133,
])


def probability_grid(seed: int = 0, n: int = 4000) -> np.ndarray:
    """Uniforms covering the bulk, both extreme tails and the edges."""
    rng = np.random.default_rng(seed)
    bulk = rng.random(n)
    low_tail = 10.0 ** rng.uniform(-300.0, -2.0, 200)
    high_tail = 1.0 - 10.0 ** rng.uniform(-15.0, -2.0, 200)
    grid = np.concatenate([bulk, low_tail, high_tail])
    return np.concatenate([np.clip(grid, 1e-300, 1.0 - 1e-16), EDGES,
                           EXP_WITNESSES])


class TestPpfBatch:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_bit_identical_to_scalar(self, dist):
        p = probability_grid()
        batch = dist.ppf_batch(p)
        scalar = np.array([dist.ppf(float(v)) for v in p])
        assert batch.dtype == np.float64
        # Raw bits: array_equal would equate -0.0 with 0.0.
        assert np.array_equal(batch.view(np.uint64),
                              scalar.view(np.uint64))

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_empty_batch(self, dist):
        out = dist.ppf_batch(np.array([]))
        assert out.shape == (0,)

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_rejects_out_of_range(self, dist):
        with pytest.raises(DistributionError):
            dist.ppf_batch(np.array([0.5, 1.5]))
        with pytest.raises(DistributionError):
            dist.ppf_batch(np.array([-0.1]))

    def test_open_interval_distributions_reject_endpoints(self):
        for dist in (Normal(0.0, 1.0), Exponential(1.0),
                     Beta(2.0, 3.0)):
            with pytest.raises(DistributionError):
                dist.ppf_batch(np.array([0.0]))
            with pytest.raises(DistributionError):
                dist.ppf_batch(np.array([1.0]))

    def test_closed_interval_distributions_accept_endpoints(self):
        assert Uniform(2.0, 4.0).ppf_batch([0.0, 1.0]).tolist() == \
            [2.0, 4.0]
        assert PointMass(0.3).ppf_batch([0.0, 1.0]).tolist() == \
            [0.3, 0.3]

    def test_kernel_argument_outside_domain_raises(self):
        """lo + p * mass rounds 5e-324 to 0.0 here: the inverse normal
        kernel must report it as the scalar does, not leak a math
        domain error from log(0)."""
        dist = TruncatedNormal(0.0, 1.0, lower=-40.0, upper=0.0)
        with pytest.raises(DistributionError):
            dist.ppf(5e-324)
        with pytest.raises(DistributionError):
            dist.ppf_batch([0.3, 5e-324])

    def test_rejects_matrix_input(self):
        with pytest.raises(DistributionError):
            Normal(0.0, 1.0).ppf_batch(np.ones((2, 2)) * 0.5)

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_nan_raises_distribution_error(self, dist):
        """NaN fails every comparison; it must still be reported as a
        DistributionError like the scalar path, not an IndexError."""
        with pytest.raises(DistributionError, match="nan"):
            dist.ppf_batch(np.array([0.5, float("nan")]))


class TestSampleBatch:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_bit_identical_to_sample_many(self, dist):
        batch = dist.sample_batch(random.Random(42), 500)
        scalar = dist.sample_many(random.Random(42), 500)
        assert np.array_equal(batch, np.array(scalar))

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_consumes_the_same_stream(self, dist):
        """After a batch the generator sits where sample_many left it."""
        rng_batch, rng_scalar = random.Random(7), random.Random(7)
        dist.sample_batch(rng_batch, 100)
        dist.sample_many(rng_scalar, 100)
        assert rng_batch.random() == rng_scalar.random()

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=IDS)
    def test_zero_and_negative_counts(self, dist):
        assert dist.sample_batch(random.Random(0), 0).shape == (0,)
        with pytest.raises(DistributionError):
            dist.sample_batch(random.Random(0), -1)
