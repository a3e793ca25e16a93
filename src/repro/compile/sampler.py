"""Vectorized Monte Carlo sampling of a tree's structure function.

The interpreted sampler (:mod:`repro.sim.montecarlo`) walks the event
DAG once per sample with dictionary lookups at every gate.  Here the DAG
is flattened *once* into a gate program; a whole block of Bernoulli leaf
draws is then pushed through it as NumPy boolean arrays — or, for trees
without K-of-N gates, as bit-packed ``uint8`` words where each bitwise
AND/OR/XOR instruction processes eight samples at once.

Draws follow the ``random.Random(seed)`` stream in the per-sample
walk's order (sample-major, leaves in first-visit order), so a seed
gives the same occurrence count on either path.  They are not made by
``random.Random`` itself: its Mersenne Twister state is handed to
NumPy's :class:`~numpy.random.MT19937`, whose ``Generator.random``
builds the same 53-bit doubles from the same 624-word state — a whole
block of draws in one call instead of one Python call per draw.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QuantificationError, SimulationError
from repro.fta.events import (
    Condition,
    Event,
    HouseEvent,
    IntermediateEvent,
    PrimaryFailure,
)
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree

#: Samples per evaluation block: bounds peak memory at
#: ``block * n_leaves`` draws regardless of the total budget.  A block
#: is one float64 array, so at the corridor tree's 129 leaves a
#: 4,096-sample block is 4.2 MB.  Draws are sample-major from one
#: stream, so the block size moves no draw and no count.
_BLOCK = 1 << 12


def replay_stream(seed: int) -> np.random.Generator:
    """A NumPy generator that continues ``random.Random(seed)``.

    CPython's ``random()`` and NumPy's ``MT19937`` share the generator
    and its 53-bit double construction, so loading the stdlib state
    into the bit generator makes ``Generator.random`` return, draw for
    draw, the doubles ``random.Random(seed).random()`` would.
    """
    _version, internal, _gauss = random.Random(seed).getstate()
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(internal[:-1],
                                            dtype=np.uint32),
                            "pos": internal[-1]}}
    return np.random.Generator(bits)


class CompiledSampler:
    """A fault tree's structure function compiled for array evaluation.

    Leaves (primary failures and conditions) become input columns in
    first-visit order — the same order the interpreted sampler draws
    them — house events become constants, and every gate becomes one
    instruction over value slots.
    """

    def __init__(self, tree: FaultTree):
        self.tree_name = tree.name
        self.leaf_names: List[str] = [
            e.name for e in tree.iter_events()
            if isinstance(e, (PrimaryFailure, Condition))]
        column = {name: j for j, name in enumerate(self.leaf_names)}
        # Instructions: (gate type, k-or-None, input slots); slots are
        # leaf columns for the first len(leaf_names) ids, then one per
        # instruction output.  House constants get dedicated slots.
        self._program: List[Tuple[GateType, Optional[int],
                                  Tuple[int, ...]]] = []
        self._constants: Dict[int, bool] = {}
        slot_of: Dict[int, int] = {}
        next_slot = len(self.leaf_names)

        def lower(event: Event) -> int:
            nonlocal next_slot
            key = id(event)
            if key in slot_of:
                return slot_of[key]
            if isinstance(event, (PrimaryFailure, Condition)):
                slot = column[event.name]
            elif isinstance(event, HouseEvent):
                slot = next_slot
                next_slot += 1
                self._constants[slot] = bool(event.state)
            elif isinstance(event, IntermediateEvent):
                gate = event.gate
                inputs = [lower(child) for child in gate.inputs]
                if gate.gate_type is GateType.INHIBIT:
                    inputs.append(lower(gate.condition))
                slot = next_slot
                next_slot += 1
                self._program.append(
                    (gate.gate_type, getattr(gate, "k", None),
                     tuple(inputs), slot))
            else:  # pragma: no cover - event types are closed
                raise SimulationError(
                    f"cannot compile event of type {type(event).__name__}")
            slot_of[key] = slot
            return slot

        self._root_slot = lower(tree.top)
        self._slot_count = next_slot
        self._has_kofn = any(op[0] is GateType.KOFN
                             for op in self._program)
        # Leaf default probabilities (no tree reference: samplers are
        # cached in a weak-keyed dict, so holding the tree would pin the
        # key alive and leak one entry per sampled tree).
        self._defaults: Dict[str, float] = {
            e.name: e.probability for e in tree.iter_events()
            if isinstance(e, (PrimaryFailure, Condition))
            and e.probability is not None}

    @property
    def packable(self) -> bool:
        """True when the tree evaluates on bit-packed words (no K-of-N)."""
        return not self._has_kofn

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, draws: np.ndarray) -> np.ndarray:
        """Structure-function values for a block of leaf assignments.

        ``draws`` has shape ``(block, len(leaf_names))`` of booleans;
        returns a ``(block,)`` boolean array.
        """
        draws = np.asarray(draws, dtype=bool)
        if draws.ndim != 2 or draws.shape[1] != len(self.leaf_names):
            raise SimulationError(
                f"draw matrix must have shape "
                f"(block, {len(self.leaf_names)}), got {draws.shape}")
        return self._run_bool(draws)

    def _run_bool(self, draws: np.ndarray) -> np.ndarray:
        block = draws.shape[0]
        slots: List[Optional[np.ndarray]] = [None] * self._slot_count
        for j in range(len(self.leaf_names)):
            slots[j] = draws[:, j]
        for slot, state in self._constants.items():
            slots[slot] = np.full(block, state, dtype=bool)
        for gate_type, k, inputs, out in self._program:
            values = [slots[s] for s in inputs]
            if gate_type is GateType.AND:
                slots[out] = np.logical_and.reduce(values)
            elif gate_type is GateType.OR:
                slots[out] = np.logical_or.reduce(values)
            elif gate_type is GateType.KOFN:
                counts = np.zeros(block, dtype=np.int32)
                for v in values:
                    counts += v
                slots[out] = counts >= k
            elif gate_type is GateType.XOR:
                slots[out] = np.logical_xor.reduce(values)
            elif gate_type is GateType.NOT:
                slots[out] = ~values[0]
            elif gate_type is GateType.INHIBIT:
                slots[out] = values[0] & values[1]
            else:  # pragma: no cover - gate types are closed
                raise SimulationError(f"unknown gate type {gate_type!r}")
        result = slots[self._root_slot]
        if np.isscalar(result) or result.ndim == 0:  # pragma: no cover
            result = np.full(block, bool(result), dtype=bool)
        return result

    def _run_packed(self, draws: np.ndarray) -> int:
        """Occurrence count over bit-packed words (no K-of-N gates).

        Each leaf column is packed eight samples per ``uint8``; every
        gate is then one bitwise instruction over the packed words.
        Returns the popcount of the root restricted to the real samples.
        """
        block = draws.shape[0]
        packed = np.packbits(draws, axis=0)  # (ceil(block/8), n_leaves)
        words = packed.shape[0]
        slots: List[Optional[np.ndarray]] = [None] * self._slot_count
        for j in range(len(self.leaf_names)):
            slots[j] = packed[:, j]
        for slot, state in self._constants.items():
            slots[slot] = np.full(words, 0xFF if state else 0x00,
                                  dtype=np.uint8)
        for gate_type, _k, inputs, out in self._program:
            values = [slots[s] for s in inputs]
            if gate_type is GateType.AND:
                slots[out] = np.bitwise_and.reduce(values)
            elif gate_type is GateType.OR:
                slots[out] = np.bitwise_or.reduce(values)
            elif gate_type is GateType.XOR:
                slots[out] = np.bitwise_xor.reduce(values)
            elif gate_type is GateType.NOT:
                slots[out] = ~values[0]
            elif gate_type is GateType.INHIBIT:
                slots[out] = values[0] & values[1]
            else:  # pragma: no cover - KOFN is rejected by `packable`
                raise SimulationError(f"unknown gate type {gate_type!r}")
        root = slots[self._root_slot]
        # Trailing pad bits beyond `block` unpack as zeros via count=.
        return int(np.unpackbits(root, count=block).sum())

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def counts(self, probabilities: Optional[Dict[str, float]] = None,
               samples: int = 100_000, seed: int = 0) -> Tuple[int, int]:
        """Count hazard occurrences over ``samples`` Bernoulli draws.

        Leaf ``j`` of sample ``i`` occurs when draw ``i * n_leaves + j``
        of the ``random.Random(seed)`` stream (:func:`replay_stream`)
        falls below its probability — the per-sample walk's order, so
        the count is identical to that walk's for any tree, seed and
        budget.
        """
        if samples <= 0:
            raise SimulationError(f"samples must be > 0, got {samples}")
        probs = self._probabilities(probabilities)
        thresholds = np.array([probs[name] for name in self.leaf_names],
                              dtype=np.float64)
        rng = replay_stream(seed)
        n_leaves = len(self.leaf_names)
        occurrences = 0
        remaining = samples
        while remaining > 0:
            block = min(remaining, _BLOCK)
            draws = rng.random((block, n_leaves)) < thresholds
            if self.packable:
                occurrences += self._run_packed(draws)
            else:
                occurrences += int(self._run_bool(draws).sum())
            remaining -= block
        return occurrences, samples

    def _probabilities(self, overrides: Optional[Dict[str, float]]
                       ) -> Dict[str, float]:
        """Overrides merged over event defaults, every leaf covered.

        Mirrors :func:`repro.fta.quantify.probability_map` (same merge
        semantics, same error) without holding the tree.
        """
        overrides = overrides or {}
        result: Dict[str, float] = {}
        for name in self.leaf_names:
            if name in overrides:
                result[name] = overrides[name]
            elif name in self._defaults:
                result[name] = self._defaults[name]
            else:
                raise QuantificationError(
                    f"no probability available for {name!r}; provide "
                    "a default on the event or an override")
        return result

    def __repr__(self) -> str:
        return (f"CompiledSampler({self.tree_name!r}, "
                f"{len(self._program)} gates, "
                f"{len(self.leaf_names)} leaves, "
                f"{'packed' if self.packable else 'boolean'})")


#: Per-tree sampler cache (weak keys: samplers die with their tree).
_CACHE: "weakref.WeakKeyDictionary[FaultTree, CompiledSampler]" = \
    weakref.WeakKeyDictionary()


def compile_sampler(tree: FaultTree) -> CompiledSampler:
    """The memoized :class:`CompiledSampler` for a tree object.

    Trees are immutable after validation, so sharded Monte Carlo runs
    revisiting the same tree flatten it exactly once per process.
    """
    sampler = _CACHE.get(tree)
    if sampler is None:
        sampler = CompiledSampler(tree)
        _CACHE[tree] = sampler
    return sampler
