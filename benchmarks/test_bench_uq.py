"""UQ benchmarks: vectorized propagation vs. the scalar reference loop.

The ISSUE-4 acceptance benchmark: pushing a 10k-sample Latin-hypercube
design through the corridor tree as one compiled batch must be at least
20x faster than the scalar per-sample reference loop — and bit-identical
to it at the same seed (the loop is the oracle, not an approximation).

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import os
import time

from repro.compile import compile_tree
from repro.elbtunnel import corridor_fault_tree, corridor_uncertain_model
from repro.uq import propagation_matrix, sobol_indices
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

def test_vectorized_lhs_propagation_speedup(report):
    tree = corridor_fault_tree()
    model = corridor_uncertain_model()
    samples = 1_000 if QUICK else 10_000
    evaluator = compile_tree(tree, "exact")
    names = evaluator.leaf_names
    # Both paths consume the same seeded design matrix; sampling is not
    # part of the propagation being measured.
    matrix = propagation_matrix(tree, model, samples, seed=7,
                                sampler="lhs")

    start = time.perf_counter()
    reference = [evaluator.scalar(
        {name: float(row[j]) for j, name in enumerate(names)})
        for row in matrix]
    slow = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = evaluator.evaluate_matrix(matrix)
    fast = time.perf_counter() - start

    assert [float(v) for v in vectorized] == reference, \
        "vectorized propagation is not bit-identical to the scalar loop"
    speedup = slow / fast if fast > 0 else float("inf")
    report(format_table(
        ["run", "time [s]", "samples"],
        [["scalar reference loop (per sample)", f"{slow:.4f}", samples],
         ["vectorized (one compiled batch)", f"{fast:.4f}", samples],
         ["speedup", f"{speedup:.0f}x", ""]],
        title=f"UQ — LHS propagation through the corridor tree "
              f"({len(names)} uncertain leaves)"))
    assert speedup >= 20.0, \
        f"vectorized propagation only {speedup:.1f}x faster than the " \
        f"scalar reference loop"


def test_sobol_batch_cost(report):
    """A full Sobol analysis runs as one batch in reasonable time.

    ``(d + 2) * n`` exact quantifications of the corridor tree; the
    point is that global sensitivity at production scale is a batch
    call, not an overnight job.  Timing is reported, not asserted —
    the correctness of the indices is pinned in ``tests/uq``.
    """
    sections = 4 if QUICK else 16
    tree = corridor_fault_tree(sections=sections)
    model = corridor_uncertain_model(sections=sections)
    samples = 128 if QUICK else 512

    start = time.perf_counter()
    indices = sobol_indices(tree, model, n_samples=samples, seed=3)
    elapsed = time.perf_counter() - start

    evaluations = (len(model) + 2) * samples
    top = indices.ranking()[0]
    report(format_table(
        ["measure", "value"],
        [["uncertain events", len(model)],
         ["model evaluations", evaluations],
         ["elapsed [s]", f"{elapsed:.4f}"],
         ["top total-order event", top[0]]],
        title="UQ — Sobol sensitivity of the corridor tree"))
    assert 0.0 <= top[2] <= 1.0
