"""``design-loop``: what-if edit sessions and timer design studies.

At one worker, with no HTTP and no pool, each round runs three
``IncrementalSession`` what-if sessions (the backend of ``repro
whatif``) and one design study:

* a session of 60 edits on the 64-section corridor, which re-rate
  leaves and then flip section gates between AND and OR;
* two sessions of 20 edits on a seeded tree of independent modules,
  which re-rate leaves, retype gates or flip house events; the second
  runs with ``sift_threshold``;
* the paper's timer optimization on the exact fault-tree model (a zoom
  search, compared against the engineers' (30, 30)) followed by the
  robust 95th-percentile timer optimization (Nelder-Mead).

Each edit stream is mostly ``set_rate``; one operation is one edit or
one study.  Module tapes and values live in one in-memory cache shared
by every session of the run.  Each round's outputs are checked when it
ends and then dropped.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

import inputs
import oracles
from common import (
    SpeedGauge,
    Tracer,
    peak_rss_mb,
    report,
    scaled_seconds,
    timed_loop,
)

#: Edits per session.  Corridor rate edits (all on the declared
#: structure, ~0.1 ms here) outnumber the faster module-tree ones, so
#: the median operation falls inside one tight group of latencies.
CORRIDOR_EDITS = 60
MODULE_TREE_EDITS = 20
STRUCTURAL_SHARE = 0.12
MODULES = 12
LEAVES_PER_MODULE = 6
SIFT_THRESHOLD = 8
BASELINE = (30.0, 30.0)
REPLAYED_TREES = 40


def prepare(trace: bool) -> Dict[str, Any]:
    from repro.core import SafetyOptimizer
    from repro.elbtunnel import (
        build_fault_tree_model,
        corridor_fault_tree,
        robust_timer_problem,
    )
    from repro.engine import create_cache
    from repro.fta import tree_from_dict
    from repro.incremental import IncrementalSession, IncrementalStats
    from repro.opt import Problem, nelder_mead
    imported = time.monotonic()
    return {"imported": imported, "cache": create_cache(),
            "stats": IncrementalStats(),
            "tracer": Tracer() if trace else None,
            "SafetyOptimizer": SafetyOptimizer,
            "build_fault_tree_model": build_fault_tree_model,
            "corridor_fault_tree": corridor_fault_tree,
            "robust_timer_problem": robust_timer_problem,
            "tree_from_dict": tree_from_dict,
            "IncrementalSession": IncrementalSession,
            "Problem": Problem, "nelder_mead": nelder_mead}


def timed_objective(fn, tracer: Tracer):
    def call(*args):
        with tracer.span("opt.eval"):
            return fn(*args)
    return call


def run(state: Dict[str, Any], seed: int, seconds: float, trace: bool,
        scratch, gauge: SpeedGauge) -> Dict[str, Any]:
    tracer = state["tracer"]
    misses: List[str] = []
    latencies: List[float] = []
    epochs: List[int] = []
    kinds: List[str] = []
    evaluations: List[int] = []
    edited_trees: List[Any] = []

    def run_session(tree_dict, tree, edits, sift) -> Dict[str, Any]:
        session = state["IncrementalSession"](
            tree, cache=state["cache"], sift_threshold=sift,
            stats=state["stats"])
        record = {"tree": tree_dict, "initial": session.quantify(),
                  "edits": edits, "values": []}
        for edit in edits:
            start = time.perf_counter()
            outcome = session.apply([edit])
            latencies.append(time.perf_counter() - start)
            epochs.append(gauge.epoch)
            kind = "rate" if edit["op"] == "set_rate" else "structural"
            kinds.append(kind)
            record["values"].append(outcome.value)
            if kind == "structural" and tracer is not None \
                    and len(edited_trees) < REPLAYED_TREES:
                edited_trees.append(session.tree)
        return record

    def run_study(robust_seed: int) -> Dict[str, Any]:
        start = time.perf_counter()
        model = state["build_fault_tree_model"](method="exact")
        if tracer is not None:
            model.cost = timed_objective(model.cost, tracer)
        paper = state["SafetyOptimizer"](model).optimize(
            "zoom", baseline=BASELINE)
        problem = state["robust_timer_problem"](seed=robust_seed)
        optimized = problem if tracer is None else state["Problem"](
            timed_objective(problem, tracer), problem.box, name=problem.name)
        robust = state["nelder_mead"](optimized, x0=BASELINE)
        latencies.append(time.perf_counter() - start)
        epochs.append(gauge.epoch)
        kinds.append("study")
        return {"paper": paper, "robust": robust, "problem": problem}

    def one_round(index: int) -> Dict[str, Any]:
        rng = np.random.default_rng([seed, 31, index])
        corridor_edits = inputs.corridor_edits(rng, CORRIDOR_EDITS,
                                               STRUCTURAL_SHARE)
        sessions = [run_session(None, state["corridor_fault_tree"](),
                                corridor_edits, None)]
        for sift in (None, SIFT_THRESHOLD):
            tree_dict = inputs.module_tree(rng, f"r{index}",
                                           MODULES, LEAVES_PER_MODULE)
            edits = inputs.module_tree_edits(rng, tree_dict,
                                             MODULE_TREE_EDITS,
                                             STRUCTURAL_SHARE)
            sessions.append(run_session(
                tree_dict, state["tree_from_dict"](tree_dict), edits, sift))
        return {"sessions": sessions,
                "study": run_study(int(rng.integers(2**31)))}

    def check(record: Dict[str, Any]) -> None:
        misses.extend(check_round(record["sessions"], record["study"]))
        study = record["study"]
        evaluations.append(study["paper"].opt_result.evaluations
                           + study["robust"].evaluations)

    timings = timed_loop(seconds, one_round, gauge, gauge_every=0.5,
                         check=check)
    peak = peak_rss_mb()
    raw = latencies
    # Latencies at the reference speed (see common.SpeedGauge).
    latencies = [t * gauge.scale_at(e) for t, e in zip(raw, epochs)]
    rate = [t for t, k in zip(latencies, kinds) if k == "rate"]
    structural = [t for t, k in zip(latencies, kinds) if k == "structural"]
    study_s = [t for t, k in zip(latencies, kinds) if k == "study"]
    report({"edits": len(rate) + len(structural), "studies": len(study_s),
            "rate_edit_p50_ms": 1000 * np.median(rate),
            "structural_edit_p50_ms": 1000 * np.median(structural),
            "optimize_s": sum(study_s) / len(study_s),
            "unscaled_ops_per_s": len(raw) / sum(t for t, _e in timings),
            "unscaled_op_p50_ms": 1000 * np.median(raw)})
    result = {"misses": misses, "attempted": len(latencies), "failed": 0,
              "e2e": {"peak_rss_mb": peak,
                      "ops_per_s": len(latencies)
                      / scaled_seconds(timings, gauge),
                      "op_p50_ms": 1000 * float(np.median(latencies))}}
    if tracer is not None:
        rounds = len(timings)
        counters = state["stats"].as_dict()
        layers = replay_layers(edited_trees, tracer)
        raw_rate = [t for t, k in zip(raw, kinds) if k == "rate"]
        raw_structural = [t for t, k in zip(raw, kinds)
                          if k == "structural"]
        layers.update({
            "incremental.rate_apply_ms":
                1000 * sum(raw_rate) / len(raw_rate),
            "incremental.structural_apply_ms":
                1000 * sum(raw_structural) / len(raw_structural),
            "incremental.value_hits": counters["value_hits"] / rounds,
            "incremental.value_misses": counters["value_misses"] / rounds,
            "incremental.module_compiles":
                counters["module_compiles"] / rounds,
            "incremental.tape_hits": counters["tape_hits"] / rounds,
            # Each value miss is one tape evaluation: one row.
            "compile.rows": counters["value_misses"] / rounds,
            "opt.studies": rounds,
            "opt.evaluations": sum(evaluations) / rounds,
            "opt.eval_ms": tracer.mean_ms("opt.eval"),
        })
        result["layers"] = layers
        result["tracer"] = tracer
    return result


def check_round(sessions, study) -> List[str]:
    """One round's what-if values and design study against the oracles."""
    misses: List[str] = []
    memo: Dict[Any, float] = {}
    for record in sessions:
        tree, overrides, gates = record["tree"], {}, {}
        if tree is None:
            expect = [oracles.corridor_exact()]
        else:
            expect = [oracles.tree_probability(tree, memo=memo)]
        for edit in record["edits"]:
            if tree is None:
                if edit["op"] == "set_rate":
                    overrides[edit["event"]] = edit["probability"]
                else:
                    section = int(edit["event"].rsplit(" ", 1)[1])
                    gates[section] = edit["type"]
                expect.append(oracles.corridor_exact(overrides, gates))
            else:
                tree, overrides = inputs.apply_edit(tree, overrides, edit)
                expect.append(oracles.tree_probability(tree, overrides,
                                                       memo=memo))
        label = "whatif corridor" if record["tree"] is None \
            else "whatif modules"
        misses += oracles.check_values(
            label, [record["initial"]] + record["values"], expect)
    paper = study["paper"]
    changes = {name: c.relative_change
               for name, c in paper.hazard_comparisons().items()}
    misses += oracles.check_timer_study(
        paper.optimum, changes["H_Alr"], changes["H_Col"])
    misses += oracles.check_robust_study(
        study["robust"].fun, study["problem"](BASELINE))
    return misses


def replay_layers(trees, tracer: Tracer) -> Dict[str, float]:
    """Module detection, BDD build, sifting and tape lowering, timed on
    the trees the structural edits produced (replays of the layers the
    session runs inside ``apply``)."""
    from repro.bdd import BDDManager
    from repro.compile import CompiledTape
    from repro.fta import select_modules, to_bdd
    nodes = []
    for tree in trees:
        with tracer.span("fta.modules"):
            select_modules(tree)
        with tracer.span("bdd.build"):
            manager = BDDManager()
            root = to_bdd(tree, manager)
        nodes.append(manager.size(root))
        with tracer.span("bdd.sift"):
            sifted = manager.sift(root)
        with tracer.span("compile.tape"):
            tape = CompiledTape.from_bdd(sifted.manager, sifted.root,
                                         tree.name)
        probabilities = {name: 0.01 for name in tape.leaf_names}
        with tracer.span("compile.eval"):
            tape.scalar(probabilities)
    return {"fta.modules_ms": tracer.mean_ms("fta.modules"),
            "bdd.build_ms": tracer.mean_ms("bdd.build"),
            "bdd.nodes": sum(nodes) / len(nodes) if nodes else 0.0,
            "bdd.sift_ms": tracer.mean_ms("bdd.sift"),
            "compile.tape_ms": tracer.mean_ms("compile.tape"),
            "compile.eval_ms": tracer.mean_ms("compile.eval")}
