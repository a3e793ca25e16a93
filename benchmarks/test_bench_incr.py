"""Incremental what-if analysis: warm edits vs. cold recompilation.

The tentpole claim of the incremental layer: once a corridor-scale tree
has been compiled, re-quantifying after a single-event rate edit costs a
tape evaluation, not a BDD rebuild.  This bench measures the warm edit
path of :class:`repro.incremental.IncrementalSession` against the cold
compiled path (``CompiledTape`` rebuilt per edit) and asserts a >=20x
speedup on the full corridor (>=2x in quick mode), with every warm
value bit-identical to the monolithic exact quantification.  A second
bench pins the sifting win on an adversarial declaration order.

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import os
import time

from repro.bdd import BDDManager
from repro.compile import CompiledTape
from repro.elbtunnel import corridor_fault_tree
from repro.fta import FaultTree, hazard_probability, probability_map
from repro.fta.dsl import AND, hazard, primary
from repro.fta.quantify import to_bdd
from repro.incremental import IncrementalSession
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

SECTIONS = 16 if QUICK else 64
SPEEDUP_FLOOR = 2.0 if QUICK else 20.0

#: Distinct rates per edit AND per timing cycle, so neither the session
#: memo nor a cache can serve a stale value inside the measurement.
CYCLES = 3
EDITS_PER_CYCLE = 6
RATE_CYCLES = [
    [1e-4 * (cycle * EDITS_PER_CYCLE + step + 2)
     for step in range(EDITS_PER_CYCLE)]
    for cycle in range(CYCLES)
]


def test_warm_edit_beats_cold_recompile(report):
    tree = corridor_fault_tree(SECTIONS)
    event = "Signal not shown"

    # Warm path: one session, the compile amortised across all edits.
    session = IncrementalSession(tree)
    session.quantify()

    cold_s = float("inf")
    warm_s = float("inf")
    values = {}
    for rates in RATE_CYCLES:
        # Cold: every edit pays a fresh BDD compile + tape lowering.
        start = time.perf_counter()
        cold_values = []
        for rate in rates:
            tape = CompiledTape(tree)
            cold_values.append(
                tape.scalar(probability_map(tree, {event: rate})))
        cold_s = min(cold_s, time.perf_counter() - start)

        # Warm: the same edits through the live session.
        start = time.perf_counter()
        warm_values = []
        for rate in rates:
            warm_values.append(session.apply(
                [{"op": "set_rate", "event": event,
                  "probability": rate}]).value)
        warm_s = min(warm_s, time.perf_counter() - start)

        for rate, warm, cold in zip(rates, warm_values, cold_values):
            assert warm == cold
            values[rate] = warm

    # Bit-identical to the monolithic quantification, edit by edit: the
    # corridor's shared signalling leaf leaves no modules to fold, so
    # the incremental path degenerates to the single monolithic tape.
    assert session.modules == []
    for rate, warm in values.items():
        assert warm == hazard_probability(tree, {event: rate},
                                          method="exact")

    speedup = cold_s / warm_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm edit path only {speedup:.1f}x faster than cold "
        f"recompilation (floor {SPEEDUP_FLOOR}x)")
    stats = session.stats.as_dict()
    assert stats["module_compiles"] == 1
    report(format_table(
        ["sections", "edits", "cold s", "warm s", "speedup"],
        [[str(SECTIONS), str(EDITS_PER_CYCLE), f"{cold_s:.3f}",
          f"{warm_s:.4f}", f"{speedup:.1f}x"]],
        title="Incremental: warm single-event edits vs cold compile"))


def adversarial_tree(n):
    """(x1&..&xn) | OR_i (xi&yi): exponential under declaration order."""
    xs = [primary(f"x{i}", 0.01) for i in range(n)]
    ys = [primary(f"y{i}", 0.02) for i in range(n)]
    probe = AND("probe", *xs)
    pairs = [AND(f"pair{i}", xs[i], ys[i]) for i in range(n)]
    return FaultTree(hazard("H", OR_gate=[probe] + pairs))


def test_sifting_shrinks_adversarial_order(report):
    n = 8 if QUICK else 10
    tree = adversarial_tree(n)
    manager = BDDManager()
    root = to_bdd(tree, manager)
    start = time.perf_counter()
    result = manager.sift(root)
    sift_s = time.perf_counter() - start
    assert result.shrank
    assert result.size_after < result.size_before // 4
    report(f"sifting n={n}: {result.size_before} -> "
           f"{result.size_after} nodes "
           f"({result.swaps} swaps, {sift_s * 1e3:.1f} ms)")
