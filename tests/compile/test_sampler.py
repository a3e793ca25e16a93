"""CompiledSampler: vectorized / bit-packed Monte Carlo sampling."""

import random

import numpy as np
import pytest

from repro.compile import CompiledSampler, compile_sampler
from repro.elbtunnel.faulttrees import fig2_fault_tree
from repro.errors import SimulationError
from repro.fta.dsl import (
    INHIBIT,
    KOFN,
    NOT,
    OR,
    XOR,
    condition,
    hazard,
    house,
    primary,
)
from repro.fta.tree import FaultTree
from repro.sim.montecarlo import monte_carlo_counts


def kofn_tree():
    return FaultTree(hazard("H", gate=KOFN(
        "vote", 2, primary("A", 0.3), primary("B", 0.3),
        primary("C", 0.3)).gate))


def mixed_tree():
    cond = condition("ENV", 0.5)
    return FaultTree(hazard("H", OR_gate=[
        INHIBIT("I", primary("A", 0.2), cond),
        XOR("X", primary("B", 0.3), primary("C", 0.3)),
        NOT("N", OR("O", primary("D", 0.8), house("ON", True)))]))


class TestCompile:
    def test_kofn_disables_packing(self):
        assert not CompiledSampler(kofn_tree()).packable

    def test_bitwise_gates_pack(self):
        assert CompiledSampler(mixed_tree()).packable

    def test_compile_sampler_is_memoized_per_tree(self):
        tree = fig2_fault_tree()
        assert compile_sampler(tree) is compile_sampler(tree)
        assert compile_sampler(fig2_fault_tree()) \
            is not compile_sampler(tree)

    def test_repr(self):
        assert "packed" in repr(CompiledSampler(mixed_tree()))
        assert "boolean" in repr(CompiledSampler(kofn_tree()))


class TestEvaluate:
    def test_matches_structure_function(self):
        rng = random.Random(5)
        for tree in (kofn_tree(), mixed_tree()):
            sampler = CompiledSampler(tree)
            names = sampler.leaf_names
            draws = np.array([[rng.random() < 0.5 for _ in names]
                              for _ in range(64)])
            expected = [tree.evaluate(dict(zip(names, row)))
                        for row in draws]
            assert list(sampler.evaluate(draws)) == expected

    def test_bad_draw_shape(self):
        with pytest.raises(SimulationError):
            CompiledSampler(mixed_tree()).evaluate(np.zeros((4, 1),
                                                            dtype=bool))


class TestCounts:
    def test_bit_for_bit_compatible_with_interpreted_loop(self):
        for tree in (fig2_fault_tree(), kofn_tree(), mixed_tree()):
            probs = None
            if tree.name == "Collision":
                probs = {name: 0.1 for name in
                         CompiledSampler(tree).leaf_names}
            vectorized = CompiledSampler(tree).counts(
                probs, samples=2000, seed=13)
            interpreted = monte_carlo_counts(tree, probs, samples=2000,
                                             seed=13, vectorized=False)
            assert vectorized == interpreted

    def test_blocks_preserve_the_draw_stream(self, monkeypatch):
        import repro.compile.sampler as sampler_module
        tree = mixed_tree()
        whole = CompiledSampler(tree).counts(samples=700, seed=3)
        monkeypatch.setattr(sampler_module, "_BLOCK", 256)
        blocked = CompiledSampler(tree).counts(samples=700, seed=3)
        assert blocked == whole

    @pytest.mark.parametrize("make_tree", [mixed_tree, kofn_tree])
    def test_counts_identical_across_block_sizes(self, make_tree,
                                                 monkeypatch):
        import repro.compile.sampler as sampler_module
        sampler = CompiledSampler(make_tree())
        assert sampler.packable == (make_tree is mixed_tree)
        # Not a multiple of any block size below: every run ends on a
        # partial block.
        samples = 3 * sampler_module._BLOCK + 1001
        counts = set()
        for block in (1 << 16, sampler_module._BLOCK, 1000, 7):
            monkeypatch.setattr(sampler_module, "_BLOCK", block)
            counts.add(sampler.counts(samples=samples, seed=11))
        assert len(counts) == 1

    def test_packed_and_boolean_paths_agree(self):
        tree = mixed_tree()
        sampler = CompiledSampler(tree)
        assert sampler.packable
        packed = sampler.counts(samples=999, seed=21)
        sampler._has_kofn = True  # force the boolean fallback
        boolean = sampler.counts(samples=999, seed=21)
        assert packed == boolean

    def test_invalid_samples(self):
        with pytest.raises(SimulationError):
            CompiledSampler(mixed_tree()).counts(samples=0)

    def test_house_only_tree(self):
        tree = FaultTree(hazard("H", OR_gate=[house("ON", True)]))
        assert CompiledSampler(tree).counts(samples=50, seed=0) == (50, 50)
        tree_off = FaultTree(hazard("H", OR_gate=[house("OFF", False)]))
        assert CompiledSampler(tree_off).counts(samples=50, seed=0) \
            == (0, 50)
