"""Property tests: compiled evaluators ≡ interpreted quantification.

The ISSUE-2 acceptance property: across randomly generated fault trees —
shared events, XOR/NOT gates, INHIBIT conditions, house events — the
compiled ``exact`` / ``rare_event`` / ``mcub`` paths match
:func:`repro.fta.quantify.hazard_probability` to ≤ 1e-12 over random
batches (they are in fact designed to be bit-identical, which these
tests also pin down), and the compiled sampler reproduces the
interpreted Monte Carlo counts exactly.
"""

import random

import pytest

from repro.compile import (
    CompiledSampler,
    compile_tree,
    supports_compilation,
)
from repro.fta.constraints import ConstraintPolicy
from repro.fta.quantify import hazard_probability

from tests._oracles.montecarlo import walk_counts
from tests.compile.conftest import random_batch, random_tree

TOLERANCE = 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_coherent_trees_all_methods(seed):
    rng = random.Random(1000 + seed)
    tree = random_tree(rng, coherent=True)
    points = random_batch(rng, tree, size=5)
    for method in ("exact", "rare_event", "mcub"):
        for policy in list(ConstraintPolicy):
            assert supports_compilation(tree, method)
            evaluator = compile_tree(tree, method, policy, cache=False)
            values = evaluator.evaluate(points)
            for point, value in zip(points, values):
                reference = hazard_probability(tree, point, method,
                                               policy=policy)
                assert abs(value - reference) <= TOLERANCE, \
                    (seed, method, policy, value, reference)
                # The implementation promises more than the tolerance:
                # the compiled arithmetic replays the interpreted one.
                assert value == reference
                assert evaluator.scalar(point) == reference


@pytest.mark.parametrize("seed", range(8))
def test_noncoherent_trees_exact(seed):
    rng = random.Random(2000 + seed)
    tree = random_tree(rng, coherent=False)
    assert supports_compilation(tree, "exact")
    if tree.is_coherent:  # rng may not have drawn an XOR/NOT
        return
    assert not supports_compilation(tree, "rare_event")
    evaluator = compile_tree(tree, "exact", cache=False)
    for point in random_batch(rng, tree, size=5):
        reference = hazard_probability(tree, point, "exact")
        assert evaluator.scalar(point) == reference


@pytest.mark.parametrize("seed", range(6))
def test_sampler_counts_match_interpreted(seed):
    rng = random.Random(3000 + seed)
    tree = random_tree(rng, coherent=(seed % 2 == 0))
    probs = {name: rng.uniform(0.05, 0.6)
             for name in CompiledSampler(tree).leaf_names}
    vectorized = CompiledSampler(tree).counts(probs, samples=400,
                                              seed=seed)
    interpreted = walk_counts(tree, probs, samples=400, seed=seed)
    assert vectorized == interpreted


def test_batch_of_one_equals_scalar():
    rng = random.Random(77)
    tree = random_tree(rng, coherent=True)
    point = random_batch(rng, tree, size=1)[0]
    for method in ("exact", "rare_event", "mcub"):
        evaluator = compile_tree(tree, method, cache=False)
        assert evaluator.evaluate([point])[0] == evaluator.scalar(point)
