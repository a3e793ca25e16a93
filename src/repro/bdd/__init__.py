"""Reduced ordered binary decision diagrams (ROBDDs).

Fault trees are monotone Boolean functions of their primary failures; BDDs
give a canonical representation from which the *exact* top-event probability
(no rare-event approximation, no independence-order truncation) and the
complete set of minimal cut sets can be computed.  The paper's standard
formula (Eq. 1) "neglects second and higher-order terms"; this engine is the
reference against which that approximation's error is measured
(benchmark A2).

The implementation is an index-based *arena* kernel:

* :class:`BDDManager` owns the node arena (parallel ``var/low/high``
  integer arrays), the variable order, and packed-integer unique and
  compute tables; :class:`Node` is a lightweight interned handle, so
  equality is still identity and diagrams are canonical for a fixed
  variable order,
* boolean operations go through an iterative Shannon-expansion ``apply``
  with integer opcodes (plus a true ternary ``ite``); every traversal
  uses an explicit stack, so deep diagrams never hit the recursion limit,
* :func:`~repro.bdd.prob.probability` evaluates the function's satisfaction
  probability in one bottom-up pass over the leveled arena,
* :func:`~repro.bdd.mcs.minimal_cut_sets` extracts prime implicants of the
  monotone function via Rauzy's minimal-solutions construction on integer
  bitmasks with popcount-grouped absorption,
* :func:`~repro.bdd.sift.sift` dynamically reorders variables (Rudell
  sifting over an adjacent-level-swap primitive) for diagrams that blow
  up under the static orders.
"""

from repro.bdd.manager import FALSE, TRUE, BDDManager, Node
from repro.bdd.mcs import minimal_cut_sets
from repro.bdd.prob import probability
from repro.bdd.sift import SiftResult, sift

__all__ = [
    "BDDManager",
    "Node",
    "TRUE",
    "FALSE",
    "probability",
    "minimal_cut_sets",
    "SiftResult",
    "sift",
]
