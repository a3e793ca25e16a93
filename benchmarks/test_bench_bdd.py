"""BDD kernel benchmarks: arena kernel vs. the seed's linked-node kernel.

The ISSUE-3 acceptance benchmark: the *cold analysis path* — fault tree
to BDD, minimal cut sets (both the BDD minsol route and MOCUS), exact
top-event probability — run end to end on the arena kernel
(:mod:`repro.bdd` / :mod:`repro.fta.cutsets`) and on the seed's
recursive object-graph kernel, kept executable verbatim in
``tests/bdd/_reference.py``.  This is the path every engine cache miss,
new scenario and fingerprint-invalidating model edit pays before the
PR-1/PR-2 warm paths can help.

Workloads:

* the largest Elbtunnel tree (:func:`corridor_fault_tree`) — the
  headline ``>= 5x`` acceptance measurement;
* the paper's Fig. 2 tree — small-tree overhead check (reported, no
  speedup gate: at seven leaves both kernels are interpreter-bound);
* a synthetic wide K-of-N voting tree — stresses apply and the
  quadratic absorption the bitmask rewrite removed;
* a synthetic 5,000-gate deep chain — arena-only: the seed kernel's
  recursion blows the stack, which is the point of the explicit-stack
  rewrite (reported without a seed time).

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import os
import time

from repro.bdd import BDDManager, minimal_cut_sets, probability
from repro.elbtunnel.faulttrees import corridor_fault_tree, fig2_fault_tree
from repro.fta import FaultTree, mocus, to_bdd
from repro.fta.cutsets import CutSetCollection
from repro.fta.dsl import AND, KOFN, hazard, primary
from repro.fta.events import Condition, PrimaryFailure
from repro.viz import format_table
from tests.bdd._reference import (
    RefManager,
    build_chain_tree,
    ref_minimal_cut_sets,
    ref_minimize,
    ref_mocus_cut_sets,
    ref_probability,
    ref_to_bdd,
)

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

def leaf_probabilities(tree):
    """Uniform leaf probabilities (values don't matter for timing)."""
    return {event.name: 0.01 for event in tree.iter_events()
            if isinstance(event, (PrimaryFailure, Condition))}


def arena_cold_path(tree, probs):
    """tree -> BDD -> MCS (both routes) -> exact probability, rewritten
    kernel."""
    manager = BDDManager()
    root = to_bdd(tree, manager)
    return (minimal_cut_sets(manager, root), list(mocus(tree)),
            probability(manager, root, probs))


def seed_cold_path(tree, probs):
    """The same pipeline on the seed kernel (linked nodes, frozensets)."""
    manager = RefManager()
    root = ref_to_bdd(tree, manager)
    cut_sets = ref_minimize(ref_mocus_cut_sets(tree))
    collection = sorted(cut_sets,
                        key=lambda cs: (cs.order, sorted(cs.failures),
                                        sorted(cs.conditions)))
    return (ref_minimal_cut_sets(manager, root), collection,
            ref_probability(manager, root, probs))


def timed_speedup(tree, iters):
    """Time both kernels on the identical cold path; verify agreement."""
    probs = leaf_probabilities(tree)
    seed = seed_cold_path(tree, probs)       # also serves as warm-up
    arena = arena_cold_path(tree, probs)
    assert seed[0] == arena[0]               # BDD-route MCS identical
    assert seed[1] == arena[1]               # MOCUS collection identical
    assert seed[2] == arena[2]               # probability bit-identical

    def best_of_two(pipeline):
        # Best-of-two absorbs one CPU-contention / GC pause on shared
        # CI runners without inflating the recorded times.
        samples = []
        for _ in range(2):
            start = time.perf_counter()
            for _ in range(iters):
                pipeline(tree, probs)
            samples.append(time.perf_counter() - start)
        return min(samples)

    seed_s = best_of_two(seed_cold_path)
    arena_s = best_of_two(arena_cold_path)
    speedup = seed_s / arena_s if arena_s > 0 else float("inf")
    return seed_s, arena_s, speedup, len(arena[1])


def test_elbtunnel_corridor_cold_path(report):
    """Acceptance: >= 5x on the largest Elbtunnel tree (the full run;
    the CI quick smoke uses a looser floor to absorb shared-runner
    timing noise — the report table shows the measured ratio either
    way)."""
    tree = corridor_fault_tree(sections=72)
    seed_s, arena_s, speedup, cuts = timed_speedup(
        tree, iters=5 if QUICK else 10)
    report(format_table(
        ["kernel", "time [s]", "cut sets"],
        [["seed (linked nodes, frozensets)", f"{seed_s:.4f}", cuts],
         ["arena (index arrays, bitmasks)", f"{arena_s:.4f}", cuts],
         ["speedup", f"{speedup:.1f}x", ""]],
        title="BDD — cold analysis path, largest Elbtunnel tree "
              "(corridor, 72 sections)"))
    floor = 3.5 if QUICK else 5.0
    assert speedup >= floor, \
        f"cold path only {speedup:.1f}x faster than the seed kernel"


def test_elbtunnel_fig2_cold_path(report):
    """The paper's own (seven-leaf) tree: reported, no speedup gate —
    at this size both kernels are bound by interpreter overhead."""
    tree = fig2_fault_tree()
    seed_s, arena_s, speedup, cuts = timed_speedup(
        tree, iters=50 if QUICK else 300)
    report(format_table(
        ["kernel", "time [s]", "cut sets"],
        [["seed", f"{seed_s:.4f}", cuts],
         ["arena", f"{arena_s:.4f}", cuts],
         ["speedup", f"{speedup:.2f}x", ""]],
        title="BDD — cold analysis path, Fig. 2 tree"))
    # No regression on the toy tree (loose: both sides are tens of
    # microseconds, so shared-runner noise dominates).
    assert speedup >= 0.33


def test_wide_voting_cold_path(report):
    """Synthetic wide tree: K-of-N voting over AND pairs."""
    width = 10 if QUICK else 14
    branches = [AND(f"br{i}", primary(f"a{i}", 0.01),
                    primary(f"b{i}", 0.02))
                for i in range(width)]
    tree = FaultTree(hazard("H", gate=KOFN("vote", 3, *branches).gate))
    seed_s, arena_s, speedup, cuts = timed_speedup(tree, iters=3)
    report(format_table(
        ["kernel", "time [s]", "cut sets"],
        [["seed", f"{seed_s:.4f}", cuts],
         ["arena", f"{arena_s:.4f}", cuts],
         ["speedup", f"{speedup:.1f}x", ""]],
        title=f"BDD — cold analysis path, 3-of-{width} voting tree"))
    floor = 1.5 if QUICK else 2.0  # quick mode shrinks the tree
    assert speedup >= floor, \
        f"wide-tree cold path only {speedup:.1f}x faster"


def test_deep_chain_arena_only(report):
    """5,000-gate chain: completes on the arena kernel; the seed
    kernel's recursive traversals cannot run it at all (RecursionError),
    so only the arena time is reported."""
    depth = 1_000 if QUICK else 5_000
    tree = build_chain_tree(depth)
    probs = leaf_probabilities(tree)

    start = time.perf_counter()
    cuts, collection, prob = arena_cold_path(tree, probs)
    arena_s = time.perf_counter() - start
    assert isinstance(collection, list) and prob >= 0.0
    assert {cs.failures for cs in collection} == set(cuts)
    report(format_table(
        ["kernel", "time [s]", "cut sets"],
        [["seed", "RecursionError", ""],
         ["arena", f"{arena_s:.4f}", len(cuts)]],
        title=f"BDD — cold analysis path, {depth}-gate chain"))


def test_collection_construction_not_reminimized():
    """Guard: mocus feeds its already-minimal cut sets through the
    collection fast path; rebuilding the collection from raw cut sets
    must agree with it."""
    tree = corridor_fault_tree(sections=8)
    fast = mocus(tree)
    rebuilt = CutSetCollection(fast.hazard_name, list(fast))
    assert list(rebuilt) == list(fast)