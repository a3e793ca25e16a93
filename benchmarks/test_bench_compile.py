"""Compiler benchmarks: compiled vs. interpreted quantification.

The :mod:`repro.compile` performance claims, measured on a Fig. 5-shaped
exact sweep (the ISSUE-2 acceptance benchmark), a cut-set sweep and the
vectorized Monte Carlo sampler:

* a compiled exact sweep is at least 10x faster than the per-point cold
  path (which rebuilds the BDD at every grid point), with identical
  values;
* the compiled cut-set sweep beats the interpreted per-point walk;
* the vectorized sampler beats the per-sample structure-function walk,
  bit-for-bit.

Set ``BENCH_COMPILE_JSON`` to a path to dump the measurements (the CI
benchmark-smoke job uploads it as ``BENCH_compile.json``); set
``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import json
import os
import time

from repro.core import identity
from repro.engine import SweepJob, SweepResult
from repro.fta import FaultTree, hazard_probability, mocus
from repro.fta.dsl import AND, KOFN, hazard, primary
from repro.sim.montecarlo import monte_carlo_counts
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Collected measurements, dumped to BENCH_COMPILE_JSON at session end.
_RESULTS = {}


def _record(name, **measures):
    _RESULTS[name] = measures
    path = os.environ.get("BENCH_COMPILE_JSON")
    if path:
        with open(path, "w") as handle:
            json.dump({"quick": QUICK, "benchmarks": _RESULTS}, handle,
                      indent=2, sort_keys=True)


def voting_tree(width: int = 12) -> "FaultTree":
    """A 3-of-``width`` vote over AND pairs — 2*width BDD variables.

    The same shape as the engine benchmark's tree: one exact
    quantification costs about a millisecond interpreted, so the
    per-point cost dominates fingerprinting and setup.
    """
    branches = [AND(f"br{i}",
                    primary(f"a{i}", 0.01), primary(f"b{i}", 0.02))
                for i in range(width)]
    return FaultTree(hazard("H", gate=KOFN("vote", 3, *branches).gate))


def sweep_job(method: str, points_per_axis: int) -> SweepJob:
    """A Fig. 5-shaped sweep over the voting tree."""
    values = [0.01 + 0.005 * i for i in range(points_per_axis)]
    return SweepJob.from_axes(
        voting_tree(), {"a0": identity("pa0"), "b0": identity("pb0")},
        {"pa0": values, "pb0": values}, method=method)


def per_point(job: SweepJob) -> SweepResult:
    """The interpreted reference: ``hazard_probability`` at every grid
    point of ``job``, over a tree of its own (no compile memo to reuse),
    with cut sets computed once for the cut-set methods."""
    tree = voting_tree()
    cut_sets = None if job.method == "exact" else mocus(tree)
    values = [hazard_probability(tree, {"a0": point["pa0"],
                                        "b0": point["pb0"]},
                                 method=job.method, cut_sets=cut_sets)
              for point in job.grid]
    return SweepResult(points=tuple(dict(p) for p in job.grid),
                       values=tuple(values))


def test_compiled_exact_sweep_speedup(report):
    compiled_job = sweep_job("exact", points_per_axis=5 if QUICK else 13)

    start = time.perf_counter()
    interpreted = per_point(compiled_job)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compiled_job.run_serial()
    fast = time.perf_counter() - start

    delta = max(abs(a - b) for a, b
                in zip(compiled.values, interpreted.values))
    assert delta <= 1e-12
    speedup = cold / fast if fast > 0 else float("inf")
    _record("exact_sweep", points=len(compiled),
            interpreted_s=cold, compiled_s=fast, speedup=speedup,
            max_abs_delta=delta)
    report(format_table(
        ["run", "time [s]", "points"],
        [["interpreted (exact BDD per point)", f"{cold:.4f}",
          len(interpreted)],
         ["compiled (one tape, one batch)", f"{fast:.4f}",
          len(compiled)],
         ["speedup", f"{speedup:.0f}x", ""]],
        title="Compile — Fig. 5-shaped exact sweep, "
              "compiled vs. per-point"))
    assert speedup >= 10.0, \
        f"compiled sweep only {speedup:.1f}x faster than per-point path"


def test_compiled_cutset_sweep_speedup(report):
    compiled_job = sweep_job("rare_event",
                             points_per_axis=15 if QUICK else 21)

    start = time.perf_counter()
    interpreted = per_point(compiled_job)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compiled_job.run_serial()
    fast = time.perf_counter() - start

    assert compiled == interpreted
    speedup = cold / fast if fast > 0 else float("inf")
    _record("cutset_sweep", points=len(compiled),
            interpreted_s=cold, compiled_s=fast, speedup=speedup)
    report(format_table(
        ["run", "time [s]", "points"],
        [["interpreted (per-point cut sets)", f"{cold:.4f}",
          len(interpreted)],
         ["compiled (column reductions)", f"{fast:.4f}", len(compiled)],
         ["speedup", f"{speedup:.1f}x", ""]],
        title="Compile — rare-event sweep, compiled vs. per-point"))
    # Cut-set interpretation is much cheaper than exact BDD rebuilds, so
    # the bar is lower; the point is that batching still wins.
    assert speedup >= 1.5, \
        f"compiled cut-set sweep only {speedup:.1f}x faster"


def test_vectorized_sampler_speedup(report):
    tree = voting_tree(width=6)
    samples = 4_000 if QUICK else 40_000

    start = time.perf_counter()
    interpreted = monte_carlo_counts(tree, samples=samples, seed=11,
                                     vectorized=False)
    slow = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = monte_carlo_counts(tree, samples=samples, seed=11)
    fast = time.perf_counter() - start

    assert vectorized == interpreted  # bit-for-bit, not approximately
    speedup = slow / fast if fast > 0 else float("inf")
    _record("sampler", samples=samples, interpreted_s=slow,
            compiled_s=fast, speedup=speedup,
            occurrences=vectorized[0])
    report(format_table(
        ["run", "time [s]", "occurrences"],
        [["interpreted (per-sample walk)", f"{slow:.4f}",
          interpreted[0]],
         ["vectorized (block evaluation)", f"{fast:.4f}",
          vectorized[0]],
         ["speedup", f"{speedup:.1f}x", ""]],
        title=f"Compile — Monte Carlo sampling of {samples} draws"))
    assert speedup >= 2.0, \
        f"vectorized sampler only {speedup:.1f}x faster"
