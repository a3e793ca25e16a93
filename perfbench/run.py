#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same inputs with spans around the calls into each
layer and prints the per-layer metrics instead (and writes the spans to
``.perfbench/traces/``).  Every run checks the program's outputs against
``oracles.py``; a miss makes ``"correct": false``.

``setup_s`` is the median over :data:`common.SETUP_STARTS` cold starts
of the program, some before the workload and the rest after it (see
:data:`common.STARTS_BEFORE`).  ``batch-pool`` and ``design-loop`` run
the program in child processes of this one: children that only set the
program up and exit, around one that runs the workload.  ``serve-mix``
starts ``repro serve`` processes and is the client of one of them.

Every process runs pinned to one CPU (:func:`common.pin_to_one_cpu`),
except ``batch-pool``'s workload process and its pool workers, which
use every CPU.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict

import numpy as np

from common import (
    OUT,
    ROOT,
    SETUP_SAMPLES,
    SETUP_STARTS,
    STARTS_BEFORE,
    SpeedGauge,
    emit,
    misses_report,
    on_all_cpus,
    pin_to_one_cpu,
    scratch_dir,
    use_program,
)

WORKLOADS = ("serve-mix", "batch-pool", "design-loop")
#: Workloads whose program spreads over every CPU (the process pool).
ON_ALL_CPUS = ("batch-pool",)


def metric_units(section: str):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-start", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_command(argv, *extra: str):
    """The command of a program child process, stamped with its start."""
    return [sys.executable, __file__, *argv,
            "--child-start", repr(time.monotonic()), *extra]


def setup_start(argv) -> Dict[str, float]:
    """One cold start of a child that sets the program up and exits,
    scaled by speed samples taken on the same CPU just before the child
    starts and just after it exits."""
    gauge = SpeedGauge()
    gauge.sample(SETUP_SAMPLES)
    out = subprocess.run(child_command(argv, "--setup-only"),
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    gauge.sample(SETUP_SAMPLES)
    start = json.loads(out.strip().splitlines()[-1])
    start["setup_s"] *= gauge.scale_of(gauge.samples)
    return start


def medians(starts) -> Dict[str, float]:
    return {name: float(np.median([start[name] for start in starts]))
            for name in starts[0]}


def run_children(args, argv) -> int:
    """Cold starts around one child that runs the workload; the result
    line is printed here, with the set-up medians added."""
    starts = [setup_start(argv) for _ in range(STARTS_BEFORE)]
    with on_all_cpus() if args.workload in ON_ALL_CPUS else nullcontext():
        child = subprocess.Popen(child_command(argv), stdout=subprocess.PIPE,
                                 text=True)
    stdout, _ = child.communicate()
    if child.returncode != 0:
        return child.returncode
    summary = json.loads(stdout.strip().splitlines()[-1])
    starts += [setup_start(argv)
               for _ in range(SETUP_STARTS - STARTS_BEFORE)]
    finish(args, summary, medians(starts))
    return 0


def startup_replay() -> Dict[str, float]:
    """Import and construction time of ``repro serve``, the medians over
    :data:`SETUP_STARTS` fresh processes (replays of the server's
    start-up, split in two)."""
    code = (
        "import sys, time, json\n"
        "t0 = float(sys.argv[1]); sys.path.insert(0, sys.argv[2])\n"
        "from repro.serve import RiskServer, ServerConfig\n"
        "t1 = time.monotonic()\n"
        "server = RiskServer(ServerConfig(port=0))\n"
        "t2 = time.monotonic()\n"
        "server.start().shutdown()\n"
        "print(json.dumps({'setup.import_s': t1 - t0,\n"
        "                  'setup.construct_s': t2 - t1}))\n")
    starts = []
    for _ in range(SETUP_STARTS):
        out = subprocess.run([sys.executable, "-c", code,
                              repr(time.monotonic()), str(ROOT / "src")],
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout
        starts.append(json.loads(out.strip().splitlines()[-1]))
    return medians(starts)


def summarize(args, result: Dict[str, Any]) -> Dict[str, Any]:
    """Report the check misses, write the spans, and keep what the
    result line needs."""
    misses_report(result["misses"])
    tracer = result.get("tracer")
    if tracer is not None:
        tracer.write(OUT / "traces" / f"{args.workload}-{args.seed}.json")
    return {"correct": not result["misses"],
            "attempted": result["attempted"], "failed": result["failed"],
            "e2e": result["e2e"], "layers": result.get("layers", {})}


def finish(args, summary: Dict[str, Any], setup: Dict[str, float]) -> None:
    if args.trace:
        units = metric_units("per_layer")
        metrics = {name: 0.0 for name in units}
        metrics.update(summary["layers"])
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["setup.construct_s"] = setup["setup.construct_s"]
        for name in ("ops_per_s", "op_p50_ms"):
            metrics[f"traced.{name}"] = summary["e2e"][name]
    else:
        units = metric_units("end_to_end")
        metrics = dict(summary["e2e"], setup_s=setup["setup_s"])
    emit(summary["correct"], summary["attempted"], summary["failed"],
         metrics, units)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    use_program()
    label = args.workload.replace("-", "_")
    if args.child_start is None:
        pin_to_one_cpu()
    if args.workload == "serve-mix":
        import serve_mix
        with scratch_dir(label) as scratch:
            result = serve_mix.run(args.seed, args.seconds, bool(args.trace),
                                   scratch, SpeedGauge())
        setup = {"setup_s": result["setup_s"]}
        if args.trace:
            setup.update(startup_replay())
        finish(args, summarize(args, result), setup)
        return 0
    if args.child_start is None:
        return run_children(args, argv)

    module = __import__(label)
    state = module.prepare(bool(args.trace))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({
            "setup_s": ready - args.child_start,
            "setup.import_s": state["imported"] - args.child_start,
            "setup.construct_s": ready - state["imported"]}))
        return 0
    with scratch_dir(label) as scratch:
        result = module.run(state, args.seed, args.seconds, bool(args.trace),
                            scratch, SpeedGauge())
    print(json.dumps(summarize(args, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
