"""Seeded inputs: fault trees, leaf probabilities, grids and edit streams.

Every generator takes a ``numpy.random.Generator`` so a workload's whole
input stream is a pure function of the ``--seed`` it was given.  Trees
are plain ``tree_from_dict`` dicts; the program only ever sees them as
JSON or through its own parser.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Dict, List, Tuple

import numpy as np

from oracles import SECTIONS, SIGNAL, ohv, other, section_gate


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def corridor_leaves(sections: int = SECTIONS) -> List[str]:
    return [SIGNAL] + [ohv(s) for s in range(1, sections + 1)] \
        + [other(s) for s in range(1, sections + 1)]


def corridor_overrides(rng: np.random.Generator, count: int = 4
                       ) -> Dict[str, float]:
    """Fresh probabilities for the signal and ``count`` section leaves."""
    overrides = {SIGNAL: log_uniform(rng, 1e-5, 1e-3)}
    for s in rng.choice(np.arange(1, SECTIONS + 1), size=count,
                        replace=False):
        overrides[ohv(int(s))] = log_uniform(rng, 1e-4, 1e-2)
        overrides[other(int(s))] = log_uniform(rng, 1e-7, 1e-5)
    return overrides


def axis(rng: np.random.Generator, lo: float, hi: float, points: int
         ) -> List[float]:
    """A sorted grid axis of ``points`` distinct log-uniform values."""
    return sorted({log_uniform(rng, lo, hi) for _ in range(points)})


def module_tree(rng: np.random.Generator, name: str, modules: int,
                leaves_per_module: int) -> Dict[str, Any]:
    """A tree of independent modules with leaves shared inside each.

    The top OR joins ``modules`` module gates over disjoint leaf sets;
    each module gate joins three sub-gates over overlapping subsets of
    the module's own leaves, so a module can only be quantified whole.
    Every module also carries a house event.
    """
    events: Dict[str, Any] = {}
    module_names = []
    for m in range(modules):
        leaves = [f"{name} m{m} e{i}" for i in range(leaves_per_module)]
        for leaf in leaves:
            events[leaf] = {"kind": "primary",
                            "probability": log_uniform(rng, 1e-3, 0.3)}
        subs = []
        groups = np.array_split(rng.permutation(len(leaves)), 3)
        for g, group in enumerate(groups):
            # Each sub-gate takes its own group plus one leaf of another
            # group: every leaf is used and the sub-gates share leaves.
            rest = [i for i in range(len(leaves)) if i not in set(group)]
            picks = list(group) + [rest[int(rng.integers(len(rest)))]]
            inputs = [leaves[int(i)] for i in picks]
            if g == 0:
                house = f"{name} m{m} house"
                events[house] = {"kind": "house",
                                 "state": bool(rng.integers(2))}
                inputs.append(house)
            kind = str(rng.choice(["and", "or", "kofn"]))
            gate: Dict[str, Any] = {"type": kind, "inputs": inputs}
            if kind == "kofn":
                gate["k"] = 2
            sub = f"{name} m{m} g{g}"
            events[sub] = {"kind": "intermediate", "gate": gate}
            subs.append(sub)
        kind = str(rng.choice(["and", "or", "kofn"]))
        gate = {"type": kind, "inputs": subs}
        if kind == "kofn":
            gate["k"] = 2
        module = f"{name} m{m}"
        events[module] = {"kind": "intermediate", "gate": gate}
        module_names.append(module)
    top = f"{name} top"
    events[top] = {"kind": "hazard",
                   "gate": {"type": "or", "inputs": module_names}}
    return {"schema": 1, "name": name, "top": top, "events": events}


# ----------------------------------------------------------------------
# What-if edit streams
# ----------------------------------------------------------------------
def corridor_edits(rng: np.random.Generator, count: int,
                   structural_share: float) -> List[Dict[str, Any]]:
    """Rate edits on any corridor leaf, then gate flips.

    The structural edits flip a section gate between AND and OR and come
    last, so every rate edit runs on the declared structure (one tape
    shape, one latency mode); the oracle tracks the flips.
    """
    leaves = corridor_leaves()
    flips = int(round(count * structural_share))
    edits: List[Dict[str, Any]] = []
    for _ in range(count - flips):
        leaf = leaves[int(rng.integers(len(leaves)))]
        edits.append({"op": "set_rate", "event": leaf,
                      "probability": log_uniform(rng, 1e-6, 1e-2)})
    gates: Dict[int, str] = {}
    for _ in range(flips):
        s = int(rng.integers(1, SECTIONS + 1))
        gates[s] = "or" if gates.get(s, "and") == "and" else "and"
        edits.append({"op": "set_gate", "event": section_gate(s),
                      "type": gates[s]})
    return edits


def module_tree_edits(rng: np.random.Generator, tree: Dict[str, Any],
                      count: int, structural_share: float
                      ) -> List[Dict[str, Any]]:
    """Rate edits on leaves; structural ones retype a gate or flip a
    house event."""
    events = tree["events"]
    leaves = [n for n, e in events.items() if e["kind"] == "primary"]
    gates = [n for n, e in events.items() if e["kind"] == "intermediate"]
    houses = [n for n, e in events.items() if e["kind"] == "house"]
    states = {n: events[n]["state"] for n in houses}
    edits: List[Dict[str, Any]] = []
    for _ in range(count):
        if rng.random() >= structural_share:
            leaf = leaves[int(rng.integers(len(leaves)))]
            edits.append({"op": "set_rate", "event": leaf,
                          "probability": log_uniform(rng, 1e-3, 0.3)})
        elif houses and rng.random() < 0.4:
            house = houses[int(rng.integers(len(houses)))]
            states[house] = not states[house]
            edits.append({"op": "set_house", "event": house,
                          "state": states[house]})
        else:
            gate = gates[int(rng.integers(len(gates)))]
            kind = str(rng.choice(["and", "or", "kofn"]))
            edit: Dict[str, Any] = {"op": "set_gate", "event": gate,
                                    "type": kind}
            if kind == "kofn":
                edit["k"] = 2
            edits.append(edit)
    return edits


def apply_edit(tree: Dict[str, Any], overrides: Dict[str, float],
               edit: Dict[str, Any]) -> Tuple[Dict[str, Any],
                                               Dict[str, float]]:
    """The benchmark's own reading of one edit on a tree dict."""
    if edit["op"] == "set_rate":
        overrides = dict(overrides)
        overrides[edit["event"]] = edit["probability"]
        return tree, overrides
    tree = copy.deepcopy(tree)
    entry = tree["events"][edit["event"]]
    if edit["op"] == "set_house":
        entry["state"] = edit["state"]
    else:
        entry["gate"]["type"] = edit["type"]
        entry["gate"].pop("k", None)
        if edit["type"] == "kofn":
            entry["gate"]["k"] = edit["k"]
    return tree, overrides
