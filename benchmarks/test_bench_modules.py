"""Ablation A6: modular vs. monolithic exact quantification.

Module detection lets each independent subtree be quantified on its own
small BDD; this bench measures the speedup on trees of growing width,
verifies exact agreement with monolithic quantification, and times the
linear-visit-date module detector on wide and chain-shaped trees.

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import os
import time

import pytest

from repro.fta import (
    FaultTree,
    find_modules,
    hazard_probability,
    modular_probability,
)
from repro.fta.dsl import AND, OR, hazard, primary
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

WIDTHS = [4, 16] if QUICK else [4, 16, 48]
CHAIN_DEPTH = 1000 if QUICK else 5000


def _best_of(fn, repeats=2):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def wide_modular_tree(blocks: int) -> FaultTree:
    """OR of `blocks` independent 2-of-2 blocks."""
    parts = [
        AND(f"block{i}", primary(f"a{i}", 0.01), primary(f"b{i}", 0.02))
        for i in range(blocks)
    ]
    return FaultTree(hazard("H", OR_gate=parts))


def chain_tree(depth: int) -> FaultTree:
    """A linear gate chain sharing one leaf — zero chain modules."""
    shared = primary("shared", 0.01)
    node = OR("g0", shared, primary("base", 0.02))
    for i in range(1, depth):
        node = OR(f"g{i}", shared, node)
    side = AND("side", primary("s1", 0.1), primary("s2", 0.2))
    return FaultTree(hazard("H", OR_gate=[node, side, shared]))


def test_modular_vs_monolithic(report):
    rows = []
    for blocks in WIDTHS:
        tree = wide_modular_tree(blocks)
        mono_s, mono = _best_of(
            lambda: hazard_probability(tree, method="exact"))
        mod_s, modular = _best_of(
            lambda: modular_probability(tree, method="exact"))
        assert modular == pytest.approx(mono, rel=1e-12)
        rows.append([str(blocks), f"{mono_s * 1e3:.2f}",
                     f"{mod_s * 1e3:.2f}", f"{modular:.3e}"])
    report(format_table(
        ["blocks", "monolithic ms", "modular ms", "P"], rows,
        title="A6: modular vs monolithic exact quantification"))


def test_module_detection_wide(report):
    blocks = 32
    tree = wide_modular_tree(blocks)
    elapsed, modules = _best_of(lambda: find_modules(tree))
    assert len(modules) == blocks
    report(f"module detection, {blocks} blocks: "
           f"{elapsed * 1e3:.2f} ms")


def test_module_detection_chain(report):
    """The visit-date detector stays linear on deep shared chains.

    The quadratic path-counting formulation took ~30 s on the full
    5,000-gate chain; anything over a second here is a regression.
    """
    tree = chain_tree(CHAIN_DEPTH)
    elapsed, modules = _best_of(lambda: find_modules(tree))
    assert [m.root for m in modules] == ["side"]
    assert elapsed < 1.0
    report(f"module detection, {CHAIN_DEPTH}-gate chain: "
           f"{elapsed * 1e3:.2f} ms")
