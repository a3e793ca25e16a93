"""Sobol indices: closed-form pins on analytic functions, tree analyses."""

import numpy as np
import pytest

from repro.errors import UQError
from repro.fta import FaultTree
from repro.fta.dsl import AND, OR, hazard, primary
from repro.stats import Uniform
from repro.uq import (
    UncertainModel,
    sobol_from_samples,
    sobol_indices,
    tornado,
    uniform_matrix,
)


def additive_design(coefficients, n, seed=0):
    """Saltelli evaluations of ``Y = sum(a_i * X_i)``, ``X_i ~ U(0,1)``."""
    d = len(coefficients)
    design = uniform_matrix(n, 2 * d, seed=seed, sampler="mc")
    a_matrix, b_matrix = design[:, :d], design[:, d:]

    def f(matrix):
        return matrix @ np.asarray(coefficients)

    f_ab = {}
    for i in range(d):
        mixed = a_matrix.copy()
        mixed[:, i] = b_matrix[:, i]
        f_ab[f"x{i}"] = f(mixed)
    return f(a_matrix), f(b_matrix), f_ab


class TestSobolClosedForm:
    def test_additive_function_matches_analytic_indices(self):
        """The ISSUE-4 pin: closed-form Sobol values within 2 %.

        For ``Y = 4 X1 + 2 X2 + 1 X3`` with independent uniforms the
        variance decomposes exactly: ``S_i = T_i = a_i^2 / sum(a_j^2)``
        — (16, 4, 1) / 21.
        """
        coefficients = (4.0, 2.0, 1.0)
        f_a, f_b, f_ab = additive_design(coefficients, n=60_000, seed=1)
        first, total, variance = sobol_from_samples(f_a, f_b, f_ab)
        # Var(Y) = sum(a_i^2 / 12) for independent uniforms.
        assert variance == pytest.approx(21.0 / 12.0, rel=0.02)
        expected = {f"x{i}": c * c / 21.0
                    for i, c in enumerate(coefficients)}
        for name, value in expected.items():
            assert first[name] == pytest.approx(value, abs=0.02)
            assert total[name] == pytest.approx(value, abs=0.02)

    def test_constant_offset_leaves_first_order_indices(self):
        """``Y = 1000 + 2 X1 + X2``: S = (0.8, 0.2) as without the
        offset.  The raw Saltelli product ``f_b * (f_ab - f_a)`` scales
        its noise with the output's mean and clips both to 0 or 1 here;
        the estimator centres ``f_b`` first."""
        f_a, f_b, f_ab = additive_design((2.0, 1.0), n=4000, seed=0)
        first, _total, _variance = sobol_from_samples(
            f_a + 1000.0, f_b + 1000.0,
            {name: values + 1000.0 for name, values in f_ab.items()})
        assert first["x0"] == pytest.approx(0.8, abs=0.05)
        assert first["x1"] == pytest.approx(0.2, abs=0.05)

    def test_constant_output_gives_zero_indices(self):
        n = 100
        flat = np.full(n, 0.5)
        first, total, variance = sobol_from_samples(flat, flat,
                                                    {"x": flat.copy()})
        assert first == {"x": 0.0}
        assert total == {"x": 0.0}
        assert variance == 0.0

    def test_input_validation(self):
        with pytest.raises(UQError):
            sobol_from_samples(np.ones(3), np.ones(4), {})
        with pytest.raises(UQError):
            sobol_from_samples(np.ones(4), np.ones(4),
                               {"x": np.ones(3)})


class TestSobolOnTrees:
    @pytest.fixture
    def or_tree(self):
        return FaultTree(hazard("H", OR_gate=[primary("A", 0.01),
                                              primary("B", 0.01),
                                              primary("C", 0.01)]))

    def test_rare_event_or_tree_is_additive(self, or_tree):
        """rare_event on an OR tree is literally ``sum(p_i)``: the wide
        uniform dominates, and S ~ T with variances in closed form."""
        model = UncertainModel({"A": Uniform(0.0, 0.12),
                                "B": Uniform(0.0, 0.04),
                                "C": Uniform(0.0, 0.02)})
        indices = sobol_indices(or_tree, model, n_samples=40_000,
                                seed=2, method="rare_event")
        variances = {"A": 0.12 ** 2, "B": 0.04 ** 2, "C": 0.02 ** 2}
        total_var = sum(variances.values())
        for name, var in variances.items():
            expected = var / total_var
            assert indices.first[name] == pytest.approx(expected,
                                                        abs=0.02)
            assert indices.total[name] == pytest.approx(expected,
                                                        abs=0.02)
        assert indices.ranking()[0][0] == "A"

    def test_deterministic_per_seed(self, or_tree):
        model = UncertainModel({"A": Uniform(0.0, 0.1)})
        a = sobol_indices(or_tree, model, n_samples=256, seed=3)
        b = sobol_indices(or_tree, model, n_samples=256, seed=3)
        assert a.first == b.first and a.total == b.total

    def test_interaction_shows_in_total_index(self):
        """In an AND tree the inputs only act jointly: totals carry the
        interaction that first-order indices miss."""
        tree = FaultTree(hazard("H", AND_gate=[primary("A", 0.5),
                                               primary("B", 0.5)]))
        model = UncertainModel({"A": Uniform(0.0, 1.0),
                                "B": Uniform(0.0, 1.0)})
        indices = sobol_indices(tree, model, n_samples=40_000, seed=4)
        for name in ("A", "B"):
            assert indices.total[name] > indices.first[name]
            assert indices.total[name] == pytest.approx(4.0 / 7.0,
                                                        abs=0.03)
            assert indices.first[name] == pytest.approx(3.0 / 7.0,
                                                        abs=0.03)

    def test_rejects_unknown_events_and_tiny_budgets(self, or_tree):
        model = UncertainModel({"Z": Uniform(0.0, 0.1)})
        with pytest.raises(UQError):
            sobol_indices(or_tree, model, n_samples=64)
        good = UncertainModel({"A": Uniform(0.0, 0.1)})
        with pytest.raises(UQError):
            sobol_indices(or_tree, good, n_samples=1)
        with pytest.raises(UQError):
            sobol_indices(or_tree, good, n_samples=64, sampler="bad")


class TestTornado:
    @pytest.fixture
    def or_tree(self):
        return FaultTree(hazard("H", OR_gate=[primary("A", 0.01),
                                              primary("B", 0.01)]))

    def test_ranking_by_swing(self, or_tree):
        model = UncertainModel({"A": Uniform(0.0, 0.2),
                                "B": Uniform(0.009, 0.011)})
        entries = tornado(or_tree, model, method="rare_event")
        assert [e.event for e in entries] == ["A", "B"]
        assert entries[0].swing > entries[1].swing
        assert entries[0].low < entries[0].baseline < entries[0].high

    def test_swing_matches_quantiles_on_additive_tree(self, or_tree):
        model = UncertainModel({"A": Uniform(0.0, 0.2)})
        entries = tornado(or_tree, model, low_q=0.25, high_q=0.75,
                          method="rare_event")
        # rare_event OR is additive, so the swing is exactly the
        # inter-quantile width of A's distribution.
        assert entries[0].swing == pytest.approx(0.1, rel=1e-9)

    def test_rejects_bad_quantiles(self, or_tree):
        model = UncertainModel({"A": Uniform(0.0, 0.2)})
        with pytest.raises(UQError):
            tornado(or_tree, model, low_q=0.9, high_q=0.1)
