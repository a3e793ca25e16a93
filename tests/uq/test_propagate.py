"""Propagation: bit-identity to references, summary statistics."""

import math

import pytest

from repro.errors import UQError
from repro.fta.quantify import hazard_probability
from repro.stats import Uniform
from repro.uq import (
    PropagationResult,
    UncertainModel,
    from_error_factors,
    percentile,
    propagate,
    propagation_matrix,
)

from tests._oracles.uq import loop_propagate


@pytest.fixture
def model(bridge_tree):
    return from_error_factors(bridge_tree, 3.0)


class TestPercentile:
    def test_interpolates_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == 2.5
        assert percentile([7.0], 30.0) == 7.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(UQError):
            percentile([1.0], 101.0)
        with pytest.raises(UQError):
            percentile([], 50.0)


class TestPropagate:
    def test_bit_identical_to_scalar_reference(self, bridge_tree, model):
        for sampler in ("mc", "lhs"):
            fast = propagate(bridge_tree, model, n_samples=200, seed=3,
                             sampler=sampler)
            slow = loop_propagate(bridge_tree, model, n_samples=200,
                                  seed=3, sampler=sampler)
            assert fast == slow           # dataclass equality: all fields
            assert fast.samples == slow.samples

    def test_bit_identical_to_interpreted_walk(self, bridge_tree, model):
        """Each sample equals the interpreted quantification of its row."""
        from repro.compile import compile_tree
        result = propagate(bridge_tree, model, n_samples=25, seed=8)
        matrix = propagation_matrix(bridge_tree, model, 25, seed=8)
        leaf_names = compile_tree(bridge_tree, "exact").leaf_names
        for i, row in enumerate(matrix):
            point = {name: float(v) for name, v in zip(leaf_names, row)}
            assert hazard_probability(bridge_tree, point,
                                      method="exact") == \
                result.samples[i]

    def test_deterministic_per_seed(self, bridge_tree, model):
        a = propagate(bridge_tree, model, n_samples=100, seed=1)
        b = propagate(bridge_tree, model, n_samples=100, seed=1)
        c = propagate(bridge_tree, model, n_samples=100, seed=2)
        assert a.samples == b.samples
        assert a.samples != c.samples

    def test_cut_set_method(self, bridge_tree, model):
        result = propagate(bridge_tree, model, n_samples=50, seed=1,
                           method="rare_event")
        assert result.method == "rare_event"
        assert all(0.0 <= v <= 1.0 for v in result.samples)

    def test_uncompilable_method_rejected(self, bridge_tree, model):
        with pytest.raises(UQError, match="compilable"):
            propagate(bridge_tree, model, n_samples=10,
                      method="inclusion_exclusion")

    def test_point_mass_like_model_recovers_point_value(self, bridge_tree):
        tight = UncertainModel({"A": Uniform(0.3, 0.3 + 1e-15)})
        result = propagate(bridge_tree, tight, n_samples=20, seed=0)
        point = hazard_probability(bridge_tree, None, method="exact")
        assert result.mean == pytest.approx(point, rel=1e-9)


class TestPropagationResult:
    @pytest.fixture
    def result(self, bridge_tree, model):
        return propagate(bridge_tree, model, n_samples=400, seed=5)

    def test_summary_statistics_match_numpy(self, result):
        import numpy as np
        samples = np.array(result.samples)
        assert result.mean == pytest.approx(samples.mean(), rel=1e-12)
        assert result.std == pytest.approx(samples.std(ddof=1),
                                           rel=1e-12)
        assert result.percentile(50.0) == pytest.approx(
            float(np.percentile(samples, 50.0)), rel=1e-12)

    def test_interval_is_central(self, result):
        lo, hi = result.interval(0.90)
        assert lo == pytest.approx(result.percentile(5.0), rel=1e-9)
        assert hi == pytest.approx(result.percentile(95.0), rel=1e-9)
        assert lo < result.percentile(50.0) < hi
        with pytest.raises(UQError):
            result.interval(1.5)

    def test_exceedance(self, result):
        median = result.percentile(50.0)
        assert result.exceedance(median) == pytest.approx(0.5, abs=0.05)
        assert result.exceedance(-1.0) == 1.0
        assert result.exceedance(2.0) == 0.0
        curve = result.exceedance_curve()
        assert len(curve) == 21
        probs = [p for _t, p in curve]
        assert probs == sorted(probs, reverse=True)
        assert result.exceedance_curve([0.0]) == [(0.0, 1.0)]

    def test_summary_text(self, result):
        text = result.summary()
        assert "mean" in text and "90% band" in text and "lhs" in text

    def test_json_round_trip(self, result):
        import json
        encoded = json.loads(json.dumps(result.encode()))
        decoded = PropagationResult.decode(encoded)
        assert decoded == result

    def test_degenerate_result_edges(self):
        single = PropagationResult(name="x", samples=(0.5,), seed=0,
                                   sampler="mc", method="exact")
        assert single.std == 0.0
        assert single.percentile(10.0) == 0.5
        assert single.exceedance_curve() == [(0.5, 0.0)]
        assert not math.isnan(single.mean)
