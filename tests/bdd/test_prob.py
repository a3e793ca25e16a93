"""Exact BDD probability evaluation against enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDManager, probability
from repro.bdd.prob import conditional_probability
from repro.errors import BDDError


def enumeration_probability(mgr, node, probs):
    """Reference: sum over the full truth table."""
    names = sorted(probs)
    total = 0.0
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        if mgr.evaluate(node, env):
            p = 1.0
            for name, bit in zip(names, bits):
                p *= probs[name] if bit else 1.0 - probs[name]
            total += p
    return total


class TestBasics:
    def test_terminals(self):
        mgr = BDDManager()
        assert probability(mgr, TRUE, {}) == 1.0
        assert probability(mgr, FALSE, {}) == 0.0

    def test_single_variable(self):
        mgr = BDDManager()
        x = mgr.var("x")
        assert probability(mgr, x, {"x": 0.3}) == pytest.approx(0.3)
        assert probability(mgr, mgr.negate(x),
                           {"x": 0.3}) == pytest.approx(0.7)

    def test_independent_and_or(self):
        mgr = BDDManager()
        x, y = mgr.var("x"), mgr.var("y")
        probs = {"x": 0.2, "y": 0.5}
        assert probability(mgr, mgr.apply_and(x, y),
                           probs) == pytest.approx(0.1)
        assert probability(mgr, mgr.apply_or(x, y),
                           probs) == pytest.approx(0.6)

    def test_shared_variable_no_double_count(self):
        """(x and y) or (x and z): naive arithmetic would double-count x."""
        mgr = BDDManager()
        x, y, z = mgr.var("x"), mgr.var("y"), mgr.var("z")
        f = mgr.apply_or(mgr.apply_and(x, y), mgr.apply_and(x, z))
        probs = {"x": 0.5, "y": 0.5, "z": 0.5}
        # P = P(x) * P(y or z) = 0.5 * 0.75
        assert probability(mgr, f, probs) == pytest.approx(0.375)

    def test_missing_probability_raises(self):
        mgr = BDDManager()
        x = mgr.var("x")
        with pytest.raises(BDDError):
            probability(mgr, x, {})

    def test_out_of_range_probability_raises(self):
        mgr = BDDManager()
        x = mgr.var("x")
        with pytest.raises(BDDError):
            probability(mgr, x, {"x": 1.5})

    def test_ignores_irrelevant_variables(self):
        mgr = BDDManager()
        x = mgr.var("x")
        mgr.var("y")
        assert probability(mgr, x, {"x": 0.25}) == pytest.approx(0.25)


class TestConditional:
    def test_conditioning_on_certain_event(self):
        mgr = BDDManager()
        x, y = mgr.var("x"), mgr.var("y")
        f = mgr.apply_or(x, y)
        probs = {"x": 0.1, "y": 0.2}
        assert conditional_probability(mgr, f, probs, "x", True) \
            == pytest.approx(1.0)
        assert conditional_probability(mgr, f, probs, "x", False) \
            == pytest.approx(0.2)

    def test_birnbaum_difference(self):
        mgr = BDDManager()
        x, y = mgr.var("x"), mgr.var("y")
        f = mgr.apply_and(x, y)
        probs = {"x": 0.1, "y": 0.3}
        birnbaum = (conditional_probability(mgr, f, probs, "x", True)
                    - conditional_probability(mgr, f, probs, "x", False))
        assert birnbaum == pytest.approx(0.3)


class TestAgainstEnumeration:
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_functions(self, prob_values, func_seed):
        import random
        rng = random.Random(func_seed)
        mgr = BDDManager()
        names = ["a", "b", "c", "d"]
        nodes = [mgr.var(n) for n in names]
        # Build a random function by combining variables.
        node = nodes[0]
        for other in nodes[1:]:
            op = rng.choice(["and", "or", "xor"])
            if rng.random() < 0.3:
                other = mgr.negate(other)
            if op == "and":
                node = mgr.apply_and(node, other)
            elif op == "or":
                node = mgr.apply_or(node, other)
            else:
                node = mgr.apply_xor(node, other)
        probs = dict(zip(names, prob_values))
        expected = enumeration_probability(mgr, node, probs)
        assert probability(mgr, node, probs) == pytest.approx(
            expected, abs=1e-12)
