"""Vectorized quantification compiler: trees → reusable batch evaluators.

The safety-optimization loop evaluates the same fault trees thousands of
times — across parameter grids, optimizer iterations and Monte Carlo
checks.  :mod:`repro.engine` removes *redundant* work via caching; this
package removes the per-point interpretation cost: a tree is compiled
once into a flat program and whole parameter batches are evaluated as
NumPy array operations.

Three backends, one front door:

* :class:`CompiledTape` — the tree's BDD lowered into a flat
  arithmetic-circuit tape; exact quantification of ``(batch,)``
  leaf-probability columns (handles XOR/NOT, shared events, houses).
* :class:`CompiledCutSets` — the MOCUS output compiled to column-index
  product/sum reductions over a ``(batch, n_leaves)`` matrix
  (``rare_event``, ``mcub``; all constraint policies).
* :class:`CompiledSampler` — the structure function flattened into a
  gate program evaluated on Bernoulli draw blocks, bit-packed into
  ``uint8`` words for trees without K-of-N gates.

All compiled paths replay the interpreted arithmetic operation-for-
operation, so results are **bit-identical** to
:func:`repro.fta.quantify.hazard_probability` and, for the sampler, to
a per-sample walk of the structure function on the same
``random.Random(seed)`` stream — callers can switch freely between
paths without perturbing cached results or seeded runs.

Use :func:`compile_tree` (memoized per tree object) unless you need a
backend directly::

    from repro.compile import compile_tree

    evaluator = compile_tree(tree, method="exact")
    values = evaluator.evaluate(list_of_override_dicts)  # (batch,)
"""

from repro.compile.cutsets import CUT_SET_METHODS, CompiledCutSets
from repro.compile.evaluator import (
    COMPILED_METHODS,
    CompiledHazard,
    compile_tree,
    supports_compilation,
)
from repro.compile.sampler import CompiledSampler, compile_sampler
from repro.compile.tape import CompiledTape

__all__ = [
    "COMPILED_METHODS",
    "CUT_SET_METHODS",
    "CompiledCutSets",
    "CompiledHazard",
    "CompiledSampler",
    "CompiledTape",
    "compile_sampler",
    "compile_tree",
    "supports_compilation",
]
