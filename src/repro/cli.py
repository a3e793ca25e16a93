"""Command-line interface: ``python -m repro <command>``.

The paper names "intuitive tool support" as a key feature for industrial
application (Sect. V); this CLI exposes the library's main workflows
without writing Python:

* ``study``     — the full Elbtunnel reproduction summary
* ``optimize``  — optimize the Elbtunnel timers with a chosen method
* ``fig5``      — render the Fig. 5 cost surface
* ``fig6``      — render the Fig. 6 false-alarm curves
* ``cutsets``   — minimal cut sets of a built-in or JSON fault tree
* ``report``    — full quantitative FTA report of a JSON fault tree
* ``simulate``  — run the traffic simulation for a design variant
* ``batch``     — run a JSON list of evaluation jobs through the
  :mod:`repro.engine` (parallel workers, content-addressed cache)
* ``serve``     — the same jobs as a long-running HTTP service with a
  shared engine, request coalescing and streamed results
  (:mod:`repro.serve`)
* ``uq``        — epistemic uncertainty and Sobol sensitivity of a
  tree's top-event probability (:mod:`repro.uq`)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safety optimization: fault tree analysis combined "
                    "with mathematical optimization (DSN 2004 "
                    "reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study",
                           help="full Elbtunnel reproduction summary")
    study.add_argument("--simulate", action="store_true",
                       help="cross-check the Fig. 6 checkpoints with "
                            "batched DES replications")
    study.add_argument("--replications", type=int, default=4,
                       help="replications per variant for --simulate "
                            "(default: 4)")
    study.add_argument("--days", type=float, default=60.0,
                       help="simulated days per replication for "
                            "--simulate (default: 60)")
    study.add_argument("--workers", type=int, default=1,
                       help="worker processes for the simulation shards")

    optimize = sub.add_parser("optimize",
                              help="optimize the Elbtunnel timers")
    optimize.add_argument("--method", default="zoom",
                          help="optimization method (default: zoom)")

    fig5 = sub.add_parser("fig5", help="render the Fig. 5 cost surface")
    fig5.add_argument("--points", type=int, default=13,
                      help="grid resolution per axis")

    fig6 = sub.add_parser("fig6",
                          help="render the Fig. 6 false-alarm curves")
    fig6.add_argument("--points", type=int, default=21,
                      help="samples per curve")
    fig6.add_argument("--simulate", action="store_true",
                      help="append a batched-DES cross-check of the "
                           "checkpoints")
    fig6.add_argument("--replications", type=int, default=4,
                      help="replications per variant for --simulate "
                           "(default: 4)")
    fig6.add_argument("--days", type=float, default=60.0,
                      help="simulated days per replication for "
                           "--simulate (default: 60)")
    fig6.add_argument("--workers", type=int, default=1,
                      help="worker processes for the simulation shards")

    cutsets = sub.add_parser("cutsets",
                             help="minimal cut sets of a fault tree")
    cutsets.add_argument("--tree",
                         choices=["fig2", "collision", "false-alarm"],
                         default="fig2",
                         help="built-in Elbtunnel tree (default: fig2)")
    cutsets.add_argument("--file", help="JSON fault tree file instead")

    report = sub.add_parser("report",
                            help="quantitative FTA report of a JSON tree")
    report.add_argument("file", help="JSON fault tree file")
    report.add_argument("--top", type=int, default=10,
                        help="cut sets / events to show")
    report.add_argument("--uncertain", action="store_true",
                        help="append an epistemic-uncertainty section "
                             "(lognormal error factors around the leaf "
                             "defaults)")
    report.add_argument("--ef", type=float, default=3.0,
                        help="error factor for --uncertain (default: 3)")

    simulate = sub.add_parser("simulate",
                              help="run the Elbtunnel traffic simulation")
    simulate.add_argument("--variant",
                          choices=["without_LB4", "with_LB4",
                                   "lb_at_odfinal"],
                          default="without_LB4")
    simulate.add_argument("--days", type=float, default=90.0,
                          help="simulated duration in days")
    simulate.add_argument("--timer2", type=float, default=15.6,
                          help="runtime of timer 2 in minutes")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--replications", type=int, default=1,
                          help="independent replications run as one "
                               "batch (default: 1)")
    simulate.add_argument("--workers", type=int, default=1,
                          help="worker processes for the replication "
                               "shards")
    simulate.add_argument("--json", action="store_true", dest="as_json",
                          help="emit machine-readable JSON instead of "
                               "text")

    batch = sub.add_parser(
        "batch",
        help="run a JSON list of engine jobs (quantify/sweep/montecarlo)")
    batch.add_argument("file", help="JSON job list file")
    batch.add_argument("--workers", type=int, default=1,
                       help="worker processes for shardable jobs")
    batch.add_argument("--cache",
                       help="sqlite result-cache file persisted across "
                            "runs (default: in-memory only)")
    batch.add_argument("--cache-ttl", type=float,
                       help="seconds before cached entries expire "
                            "(needs --cache)")
    batch.add_argument("--cache-max-bytes", type=int,
                       help="payload byte budget before LRU eviction "
                            "(needs --cache)")
    batch.add_argument("--warm-manifest",
                       help="warm the cache from a manifest of hot "
                            "fingerprints before running")
    batch.add_argument("--write-manifest",
                       help="after the run, write the hottest cache "
                            "fingerprints to this manifest file")
    batch.add_argument("--fault-plan",
                       help="JSON fault-injection plan (see "
                            "docs/resilience.md) applied to the pool "
                            "and cache for chaos testing")
    batch.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON instead of text")

    whatif = sub.add_parser(
        "whatif",
        help="incremental what-if: apply JSON edits to a fault tree "
             "and stream re-quantified results")
    whatif.add_argument("edits",
                        help="JSON file with a list of edit operations "
                             "('-' reads stdin); each edit is e.g. "
                             '{"op": "set_rate", "event": ..., '
                             '"probability": ...}')
    whatif.add_argument("--tree",
                        choices=["fig2", "collision", "false-alarm",
                                 "corridor"],
                        default="corridor",
                        help="built-in fault tree (default: corridor)")
    whatif.add_argument("--file",
                        help="load the fault tree from a JSON file "
                             "instead of a built-in")
    whatif.add_argument("--sift-threshold", type=int,
                        help="dynamically reorder (sift) any module BDD "
                             "larger than this many nodes")
    whatif.add_argument("--cache",
                        help="persist per-module tapes/values to this "
                             "sqlite cache file across runs")
    whatif.add_argument("--cache-ttl", type=float,
                        help="seconds before cached entries expire "
                             "(needs --cache)")
    whatif.add_argument("--cache-max-bytes", type=int,
                        help="payload byte budget before LRU eviction "
                             "(needs --cache)")
    whatif.add_argument("--json", action="store_true", dest="as_json",
                        help="stream machine-readable NDJSON instead "
                             "of text")

    serve = sub.add_parser(
        "serve",
        help="serve engine jobs over HTTP (streamed NDJSON results)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port, 0 for an ephemeral one "
                            "(default: 8080)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes for shardable jobs")
    serve.add_argument("--cache",
                       help="sqlite result-cache file shared across "
                            "restarts (default: in-memory only)")
    serve.add_argument("--cache-capacity", type=int, default=4096,
                       help="entry capacity of the shared result cache "
                            "(default: 4096)")
    serve.add_argument("--cache-ttl", type=float,
                       help="seconds before cached entries expire "
                            "(needs --cache)")
    serve.add_argument("--cache-max-bytes", type=int,
                       help="payload byte budget before LRU eviction "
                            "(needs --cache)")
    serve.add_argument("--warm-manifest",
                       help="warm the cache from a manifest of hot "
                            "fingerprints before taking traffic")
    serve.add_argument("--max-concurrency", type=int, default=8,
                       help="engine computations allowed at once "
                            "(default: 8)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="concurrent requests admitted before "
                            "answering 429 (default: 32)")
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="seconds a queued job may wait before it "
                            "fails (default: 60)")
    serve.add_argument("--fault-plan",
                       help="JSON fault-injection plan (see "
                            "docs/resilience.md) applied to the pool, "
                            "cache and event streams for chaos testing")

    uq = sub.add_parser(
        "uq",
        help="epistemic uncertainty of a tree's top-event probability")
    uq.add_argument("--tree",
                    choices=["collision", "false-alarm", "corridor"],
                    default="collision",
                    help="built-in Elbtunnel tree with its bundled "
                         "uncertain-rate model (default: collision)")
    uq.add_argument("--file",
                    help="JSON fault tree file instead (distributions "
                         "derived as lognormal error factors around the "
                         "leaf defaults)")
    uq.add_argument("--samples", type=int, default=2000,
                    help="sample count (default: 2000)")
    uq.add_argument("--sampler", choices=["lhs", "mc"], default="lhs",
                    help="sampling design (default: lhs)")
    uq.add_argument("--seed", type=int, default=0)
    uq.add_argument("--method", default="exact",
                    help="quantification method (default: exact)")
    uq.add_argument("--percentiles", default="5,50,95",
                    help="comma-separated percentiles to report")
    uq.add_argument("--ef", type=float, default=3.0,
                    help="error factor for --file trees (default: 3)")
    uq.add_argument("--sobol", action="store_true",
                    help="add Sobol first/total sensitivity indices")
    uq.add_argument("--workers", type=int, default=1,
                    help="worker processes for the propagation shards")
    uq.add_argument("--json", action="store_true", dest="as_json",
                    help="emit machine-readable JSON instead of text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        handler = _HANDLERS[args.command]
        handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_study(args) -> None:
    from repro.elbtunnel import full_study
    replications = args.replications if args.simulate else 0
    print(full_study(simulation_replications=replications,
                     simulation_days=args.days,
                     workers=args.workers).summary())


def _cmd_optimize(args) -> None:
    from repro.elbtunnel import optimum_study
    print(optimum_study(method=args.method).summary())


def _cmd_fig5(args) -> None:
    from repro.elbtunnel import fig5_surface
    from repro.viz import format_surface
    surface = fig5_surface(points=args.points)
    print(format_surface(surface.t1_values, surface.t2_values,
                         surface.cost,
                         title="Fig. 5 — f_cost(T1 rows, T2 columns)"))


def _cmd_fig6(args) -> None:
    from repro.elbtunnel import fig6_series, fig6_simulation_check
    from repro.viz import format_series, line_chart
    series = fig6_series(points=args.points)
    print(line_chart(series, y_min=0.0, y_max=1.0,
                     title="Fig. 6 — P(false alarm | correct OHV) "
                           "vs. T2 [min]"))
    print()
    print(format_series(series, title="Values"))
    if args.simulate:
        check = fig6_simulation_check(replications=args.replications,
                                      days=args.days,
                                      workers=args.workers)
        print()
        print(check.summary())


def _load_tree(args):
    from repro.elbtunnel import (
        collision_fault_tree,
        false_alarm_fault_tree,
        fig2_fault_tree,
    )
    from repro.fta import tree_from_json
    if getattr(args, "file", None):
        with open(args.file) as handle:
            return tree_from_json(handle.read())
    builders = {"fig2": fig2_fault_tree,
                "collision": collision_fault_tree,
                "false-alarm": false_alarm_fault_tree}
    return builders[args.tree]()


def _cmd_cutsets(args) -> None:
    from repro.fta import mocus
    from repro.viz import format_table
    tree = _load_tree(args)
    cut_sets = mocus(tree)
    print(format_table(
        ["minimal cut set", "order"],
        [[str(cs), cs.order] for cs in cut_sets],
        title=f"Minimal cut sets of {tree.name!r} "
              f"({len(cut_sets.single_points_of_failure)} single points "
              "of failure)"))


def _cmd_report(args) -> None:
    from repro.fta import tree_from_json
    from repro.fta.reporting import analyze
    with open(args.file) as handle:
        tree = tree_from_json(handle.read())
    print(analyze(tree).to_text(top=args.top))
    if args.uncertain:
        from repro.uq import from_error_factors, propagate
        model = from_error_factors(tree, error_factor=args.ef)
        result = propagate(tree, model, n_samples=2000,
                           method="rare_event"
                           if tree.is_coherent else "exact")
        print()
        print(result.summary())


def _cmd_simulate(args) -> None:
    import json
    from repro.elbtunnel import (
        COUNTER_FIELDS,
        DesignVariant,
        SimulationConfig,
        TrafficConfig,
    )
    from repro.elbtunnel.study import CORRIDOR_OHV_RATE
    from repro.engine import Engine, SimulationJob
    config = SimulationConfig(
        duration=60.0 * 24 * args.days, timer1=30.0, timer2=args.timer2,
        variant=DesignVariant(args.variant),
        traffic=TrafficConfig(ohv_rate=CORRIDOR_OHV_RATE, p_correct=1.0,
                              hv_odfinal_rate=0.13),
        seed=args.seed)
    job = SimulationJob(config, replications=args.replications)
    batch = Engine(workers=args.workers).run(job)
    pooled = batch.pooled()
    result = pooled.result
    lo, hi = pooled.alarm_ci

    if args.as_json:
        payload = {
            "job": job.describe(),
            "variant": args.variant,
            "days": args.days,
            "replications": batch.replications,
            "seeds": list(batch.seeds),
            "counters": [dict(zip(COUNTER_FIELDS, row))
                         for row in batch.counters.rows()],
            "pooled": {
                "counters": dict(zip(COUNTER_FIELDS,
                                     result.counters())),
                "correct_ohv_alarm_fraction":
                    pooled.correct_ohv_alarm_fraction,
                "ci": [lo, hi],
                "confidence": pooled.confidence,
                "between_variance": pooled.between_variance,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return

    print(f"variant          : {args.variant}")
    print(f"simulated        : {args.days:g} days x "
          f"{batch.replications} replications, "
          f"{result.ohvs_total} OHVs, {result.hv_crossings} HV crossings")
    print(f"false alarms     : {result.false_alarms}")
    print(f"collisions       : {result.collisions}")
    print(f"P(alarm|OHV)     : {result.correct_ohv_alarm_fraction:.4f} "
          f"[{lo:.4f}, {hi:.4f}]")
    if batch.replications > 1:
        print(f"between-run var  : {pooled.between_variance:.3g}")
        fractions = batch.alarm_fractions()
        for replication in range(batch.replications):
            row = batch.result(replication)
            print(f"  rep {replication:<3}: "
                  f"P = {fractions[replication]:.4f}, "
                  f"{row.false_alarms} false alarms, "
                  f"{row.collisions} collisions")


def _cmd_batch(args) -> None:
    import json
    from repro.engine import (
        Engine,
        MonteCarloJob,
        QuantifyJob,
        SweepJob,
        jobs_from_payload,
        result_envelope,
    )
    from repro.errors import EngineError
    with open(args.file) as handle:
        try:
            spec = json.load(handle)
        except json.JSONDecodeError as exc:
            raise EngineError(f"invalid job file: {exc}") from None
    jobs = jobs_from_payload(spec)
    fault_plan = None
    if args.fault_plan:
        from repro.resilience import load_fault_plan
        fault_plan = load_fault_plan(args.fault_plan)
    engine = Engine(workers=args.workers, cache_path=args.cache,
                    cache_ttl=args.cache_ttl,
                    cache_max_bytes=args.cache_max_bytes,
                    warm_manifest=args.warm_manifest,
                    fault_plan=fault_plan)
    for job in jobs:
        engine.submit(job)
    # The same path the server takes per request: run_shared records
    # fingerprint/cache/wall-time provenance for the result envelope.
    outcomes = engine.run_all_shared()
    results = [outcome.result for outcome in outcomes]
    if args.cache:
        engine.save_cache()
    if args.write_manifest:
        from repro.engine import write_manifest
        write_manifest(args.write_manifest, engine.cache.hot_keys())

    if args.as_json:
        payload = [result_envelope(job, outcome, job_id=f"job-{i}",
                                   index=i - 1)
                   for i, (job, outcome)
                   in enumerate(zip(jobs, outcomes), 1)]
        print(json.dumps({"results": payload,
                          "stats": {"backend": engine.cache.name,
                                    **engine.stats().cache}}, indent=2,
                         sort_keys=True))
        return
    print(f"batch: {len(results)} jobs from {args.file}")
    for index, (job, result) in enumerate(zip(jobs, results), 1):
        if isinstance(job, QuantifyJob):
            line = f"P = {result:.6g}"
        elif isinstance(job, SweepJob):
            point, value = result.best()
            at = ", ".join(f"{k}={v:g}" for k, v in sorted(point.items()))
            line = (f"{len(result)} points, "
                    f"min {value:.6g} at ({at}), "
                    f"max {max(result.values):.6g}")
        elif isinstance(job, MonteCarloJob):
            line = (f"p = {result.probability:.6g} "
                    f"[{result.ci_low:.6g}, {result.ci_high:.6g}] "
                    f"@{result.confidence:.0%}, n={result.samples}")
        else:  # pragma: no cover - job kinds are closed above
            line = repr(result)
        print(f"[{index}] {job.describe()}: {line}")
    print(f"engine: {engine.stats().summary()}")


def _describe_edit(edit) -> str:
    op = edit.get("op") if isinstance(edit, dict) else None
    if op == "set_rate":
        return f"set_rate {edit.get('event')}={edit.get('probability'):g}"
    if op == "set_house":
        return f"set_house {edit.get('event')}={edit.get('state')}"
    if op == "set_gate":
        suffix = f", k={edit['k']}" if "k" in edit else ""
        return (f"set_gate {edit.get('event')}"
                f"->{edit.get('type')}{suffix}")
    return repr(edit)


def _cmd_whatif(args) -> None:
    import json
    from repro.engine.cache import create_cache
    from repro.errors import IncrementalError
    from repro.incremental import IncrementalSession

    if args.edits == "-":
        raw = sys.stdin.read()
    else:
        with open(args.edits) as handle:
            raw = handle.read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise IncrementalError(f"invalid edits file: {exc}") from None
    if isinstance(payload, dict):
        edits = payload.get("edits")
        probabilities = payload.get("probabilities")
    else:
        edits, probabilities = payload, None
    if not isinstance(edits, list):
        raise IncrementalError(
            "the edits file must hold a JSON list of edits "
            "(or an object with an 'edits' list)")

    if getattr(args, "file", None):
        from repro.fta import tree_from_json
        with open(args.file) as handle:
            tree = tree_from_json(handle.read())
    else:
        from repro.elbtunnel import (
            collision_fault_tree,
            corridor_fault_tree,
            false_alarm_fault_tree,
            fig2_fault_tree,
        )
        builders = {"fig2": fig2_fault_tree,
                    "collision": collision_fault_tree,
                    "false-alarm": false_alarm_fault_tree,
                    "corridor": corridor_fault_tree}
        tree = builders[args.tree]()

    cache = None
    if args.cache:
        cache = create_cache(path=args.cache, ttl=args.cache_ttl,
                             max_bytes=args.cache_max_bytes)
    session = IncrementalSession(tree, probabilities, cache=cache,
                                 sift_threshold=args.sift_threshold)
    baseline = session.quantify()
    # Stream one line per step so an interactive caller (or a pipe) sees
    # each re-quantification as it lands, not after the whole script.
    if args.as_json:
        print(json.dumps({"event": "baseline", "tree": tree.name,
                          "modules": session.modules,
                          "value": baseline}), flush=True)
        for index, edit in enumerate(edits, 1):
            report = session.apply([edit])
            print(json.dumps({"event": "edit", "index": index,
                              **report.as_dict()}), flush=True)
        print(json.dumps({"event": "done",
                          "stats": session.stats.as_dict()}), flush=True)
    else:
        print(f"whatif {tree.name!r}: baseline P = {baseline:.6g} "
              f"({len(session.modules)} modules)", flush=True)
        for index, edit in enumerate(edits, 1):
            report = session.apply([edit])
            dirty = ", ".join(report.dirty)
            print(f"[{index}] {_describe_edit(edit)}: "
                  f"P = {report.value:.6g} (dirty: {dirty}; "
                  f"{report.wall_time_s * 1000.0:.2f} ms)", flush=True)
        stats = session.stats.as_dict()
        print(f"stats: {stats['module_compiles']} compiles, "
              f"{stats['tape_hits']} tape hits, "
              f"{stats['value_hits']} value hits, "
              f"{stats['value_misses']} evaluations")
    if cache is not None:
        cache.save()


def _cmd_serve(args) -> None:
    from repro.serve import ServerConfig, serve
    fault_plan = None
    if args.fault_plan:
        from repro.resilience import load_fault_plan
        fault_plan = load_fault_plan(args.fault_plan)
    config = ServerConfig(host=args.host, port=args.port,
                          workers=args.workers,
                          cache_path=args.cache,
                          cache_capacity=args.cache_capacity,
                          cache_ttl=args.cache_ttl,
                          cache_max_bytes=args.cache_max_bytes,
                          warm_manifest=args.warm_manifest,
                          max_concurrency=args.max_concurrency,
                          queue_limit=args.queue_limit,
                          request_timeout=args.timeout,
                          fault_plan=fault_plan)
    serve(config)


def _parse_percentiles(text: str):
    from repro.errors import UQError
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UQError(
            f"percentiles must be comma-separated numbers, "
            f"got {text!r}") from None
    if not values or not all(0.0 <= q <= 100.0 for q in values):
        raise UQError(
            f"percentiles must lie in [0, 100], got {text!r}")
    return values


def _cmd_uq(args) -> None:
    import json
    from repro.elbtunnel import standalone_tree, standalone_uncertain_model
    from repro.engine import Engine, UncertaintyJob
    from repro.fta import tree_from_json
    from repro.uq import from_error_factors, sobol_indices
    from repro.viz import histogram, line_chart, tornado_table
    qs = _parse_percentiles(args.percentiles)
    if args.file:
        with open(args.file) as handle:
            tree = tree_from_json(handle.read())
        model = from_error_factors(tree, error_factor=args.ef)
    else:
        tree = standalone_tree(args.tree)
        model = standalone_uncertain_model(args.tree)
    engine = Engine(workers=args.workers)
    job = UncertaintyJob(tree, model, samples=args.samples,
                         seed=args.seed, sampler=args.sampler,
                         method=args.method)
    result = engine.run(job)
    sobol = None
    if args.sobol:
        sobol = sobol_indices(tree, model,
                              n_samples=max(2, args.samples // 2),
                              seed=args.seed, sampler=args.sampler,
                              method=args.method)

    if args.as_json:
        payload = {
            "job": job.describe(),
            "mean": result.mean,
            "std": result.std,
            "percentiles": {f"{q:g}": result.percentile(q) for q in qs},
            "interval90": list(result.interval(0.90)),
            "samples": result.n_samples,
            "sampler": result.sampler,
            "seed": result.seed,
            "method": result.method,
        }
        if sobol is not None:
            payload["sobol"] = {"first": sobol.first,
                                "total": sobol.total}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(result.summary())
    for q in qs:
        print(f"  p{q:g}".ljust(11) + f": {result.percentile(q):.6g}")
    print()
    print(histogram(list(result.samples), bins=12,
                    title="Top-event probability distribution"))
    curve = result.exceedance_curve()
    if len(curve) > 1:
        lo, hi = result.interval(0.90)
        band = [(t, 0.0, 1.0) for t, _p in curve if lo <= t <= hi]
        print()
        print(line_chart(
            {"P(risk > t)": curve},
            bands={"90% credible region": band} if band else None,
            y_min=0.0, y_max=1.0, width=56, height=12,
            title="Exceedance curve — probability the true risk "
                  "exceeds t"))
    if sobol is not None:
        print()
        print(tornado_table(
            sobol.first, sobol.total,
            title=f"Sobol sensitivity ({sobol.n_samples} samples)"))


_HANDLERS = {
    "study": _cmd_study,
    "optimize": _cmd_optimize,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "cutsets": _cmd_cutsets,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "batch": _cmd_batch,
    "whatif": _cmd_whatif,
    "serve": _cmd_serve,
    "uq": _cmd_uq,
}


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
