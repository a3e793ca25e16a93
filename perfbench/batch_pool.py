"""``batch-pool``: the engine's process pool on the stochastic jobs.

In one process with ``Engine(workers=2)``, each round runs, with fresh
seeds and grids so that nothing hits the cache:

* a two-axis exact corridor sweep and a 4-shard corridor Monte Carlo,
  both built from batch JSON specs as ``repro batch`` builds them (the
  Monte Carlo leaf probabilities are raised so that the estimate sees
  thousands of occurrences);
* a 10k-sample LHS ``UncertaintyJob`` on the corridor model, the path of
  ``repro uq --tree corridor --workers 2``;
* ``fig6_simulation_check`` over the three design variants, the path of
  ``repro study --simulate``.

One operation is one round.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

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

SWEEP_POINTS = 20            # per axis
MC_SAMPLES = 40_000
MC_SHARDS = 4
UQ_SAMPLES = 10_000
UQ_REFERENCE_SAMPLES = 100_000
SIM_REPLICATIONS = 32
SIM_DAYS = 30.0
SIM_T2 = 15.6
LHS_CHECK_SAMPLES = 64
#: Longest wait for the pool's workers to go idle before a speed sample.
SETTLE_LIMIT_S = 5.0
#: A worker whose CPU time does not grow over this interval is idle.
IDLE_POLL_S = 0.03


def prepare(trace: bool) -> Dict[str, Any]:
    from repro.elbtunnel import (
        fig6_simulation_check,
        standalone_tree,
        standalone_uncertain_model,
    )
    from repro.engine import Engine, UncertaintyJob, WorkerPool
    from repro.engine import jobs_from_payload
    imported = time.monotonic()

    class RecordingEngine(Engine):
        """Keeps every job and result it returns, for the checks."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.finished: List[Any] = []

        def run(self, job):
            result = super().run(job)
            self.finished.append((job, result))
            return result

        def drain(self) -> List[Any]:
            """The jobs and results since the last drain."""
            finished, self.finished = self.finished, []
            return finished

    engine = RecordingEngine(workers=2)
    state = {"imported": imported, "engine": engine,
             "tree": standalone_tree("corridor"),
             "model": standalone_uncertain_model("corridor"),
             "UncertaintyJob": UncertaintyJob,
             "jobs_from_payload": jobs_from_payload,
             "fig6_simulation_check": fig6_simulation_check}
    if trace:
        state["tracer"] = Tracer()
        engine.pool = tracing_pool(WorkerPool, state["tracer"])
    return state


def tracing_pool(base, tracer: Tracer):
    class TracingPool(base):
        """Times each ``map`` and sizes its pickled payloads."""

        def __init__(self):
            super().__init__(2)
            self.first_payloads: List[Any] = []

        def map(self, fn, payloads, timeout=None):
            payloads = list(payloads)
            tracer.count("pool.maps")
            tracer.count("pool.payloads", len(payloads))
            tracer.count("pool.payload_bytes", sum(
                len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL))
                for p in payloads))
            self.first_payloads.append((fn, payloads[0]))
            with tracer.span("pool.map"):
                return super().map(fn, payloads, timeout)

    return TracingPool()


def cpu_ticks(pid: int) -> Optional[int]:
    """User plus system CPU time of a process in clock ticks, or None
    once it has exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else int(fields[11]) + int(fields[12])


def wait_for_idle_workers() -> None:
    """Wait until every pool worker has exited or uses no CPU, so that
    speed samples are not taken while workers tear down or still work;
    workers a pool keeps alive between maps do not hold it up."""
    deadline = time.monotonic() + SETTLE_LIMIT_S
    before = None
    while time.monotonic() < deadline:
        ticks = {child.pid: cpu_ticks(child.pid)
                 for child in multiprocessing.active_children()}
        busy = {pid: t for pid, t in ticks.items() if t is not None}
        if not busy or busy == before:
            return
        before = busy
        time.sleep(IDLE_POLL_S)


def raised_corridor(rng: np.random.Generator) -> Dict[str, float]:
    probs = {oracles.SIGNAL: float(rng.uniform(0.1, 0.3))}
    for s in range(1, oracles.SECTIONS + 1):
        probs[oracles.ohv(s)] = float(rng.uniform(0.002, 0.02))
        probs[oracles.other(s)] = float(rng.uniform(1e-4, 1e-3))
    return probs


def round_specs(seed: int, index: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 21, index])
    section = int(rng.integers(1, oracles.SECTIONS + 1))
    sweep = {"type": "sweep", "tree": "corridor", "method": "exact",
             "probabilities": inputs.corridor_overrides(rng, 2),
             "axes": {oracles.SIGNAL: inputs.axis(rng, 1e-5, 1e-2,
                                                  SWEEP_POINTS),
                      oracles.ohv(section): inputs.axis(rng, 1e-4, 1e-1,
                                                        SWEEP_POINTS)}}
    mc = {"type": "montecarlo", "tree": "corridor", "samples": MC_SAMPLES,
          "shards": MC_SHARDS, "seed": int(rng.integers(2**31)),
          "probabilities": raised_corridor(rng)}
    return {"batch": {"jobs": [sweep, mc]},
            "uq_seed": int(rng.integers(2**31)),
            "sim_seed": int(rng.integers(2**31))}


def run(state: Dict[str, Any], seed: int, seconds: float, trace: bool,
        scratch, gauge: SpeedGauge) -> Dict[str, Any]:
    engine = state["engine"]
    tracer = state.get("tracer")
    uq_reference = oracles.uq_reference(UQ_REFERENCE_SAMPLES, seed)
    alarm_forms = oracles.alarm_closed_forms(SIM_T2)
    misses: List[str] = []
    phases: List[Any] = []
    # Work counts taken from the program's results, per run.
    work = {"rows": 0, "mc_samples": 0, "vehicles": 0}
    first: Dict[str, Any] = {}

    def one_round(index: int) -> Dict[str, Any]:
        specs = round_specs(seed, index)
        start = time.perf_counter()
        with tracer.span("specs.parse") if tracer else nullcontext():
            jobs = state["jobs_from_payload"](specs["batch"])
        sweep = engine.run(jobs[0])
        sweep_done = time.perf_counter()
        mc = engine.run(jobs[1])
        mc_done = time.perf_counter()
        uq = engine.run(state["UncertaintyJob"](
            state["tree"], state["model"], samples=UQ_SAMPLES,
            seed=specs["uq_seed"], sampler="lhs", method="exact"))
        uq_done = time.perf_counter()
        state["fig6_simulation_check"](
            timer2=SIM_T2, replications=SIM_REPLICATIONS, days=SIM_DAYS,
            seed=specs["sim_seed"], engine=engine)
        return {"specs": specs, "sweep": sweep, "mc": mc, "uq": uq,
                "phases": (sweep_done - start, mc_done - sweep_done,
                           uq_done - mc_done, time.perf_counter() - uq_done)}

    def check(record: Dict[str, Any]) -> None:
        # Nothing in this workload hits the engine's cache, and each
        # round stands for one fresh `repro batch`/`uq`/`study` run, so
        # the cache is emptied between rounds: the process's memory then
        # does not grow with the rounds a run completes.
        engine.cache.clear()
        simulated = [(job, batch) for job, batch in engine.drain()
                     if job.kind == "simulate"]
        misses.extend(check_round(record, simulated, uq_reference,
                                  alarm_forms))
        phases.append(record["phases"])
        work["rows"] += len(record["uq"].samples) \
            + len(record["sweep"].values)
        work["mc_samples"] += record["mc"].samples
        work["vehicles"] += sum(row.ohvs_total + row.hv_crossings
                                for _job, batch in simulated
                                for row in batch.results)
        if not first and simulated:
            first.update(specs=record["specs"], sim_job=simulated[0][0])

    timings = timed_loop(seconds, one_round, gauge, samples_per_round=3,
                         settle=wait_for_idle_workers, check=check)
    peak = peak_rss_mb()
    misses += check_lhs_design(state, seed)
    scales = [gauge.scale_at(epoch) for _took, epoch in timings]
    # Per-phase seconds at the reference speed, summed over rounds.
    sweep_s, mc_s, uq_s, sim_s = (sum(p[k] * scale
                                      for p, scale in zip(phases, scales))
                                  for k in range(4))
    n = len(timings)
    report({"rounds": n,
            "sweep_points_per_s": n * SWEEP_POINTS ** 2 / sweep_s,
            "mc_samples_per_s": n * MC_SAMPLES / mc_s,
            "uq_samples_per_s": n * UQ_SAMPLES / uq_s,
            "sim_days_per_s": n * 3 * SIM_REPLICATIONS * SIM_DAYS / sim_s,
            "unscaled_ops_per_s": n / sum(took for took, _e in timings),
            "unscaled_op_p50_ms": 1000 * np.median(
                [took for took, _e in timings])})
    result = {"misses": misses, "attempted": n, "failed": 0,
              "e2e": {"peak_rss_mb": peak,
                      "ops_per_s": n / scaled_seconds(timings, gauge),
                      "op_p50_ms": 1000 * float(np.median(
                          [took * scale for (took, _e), scale
                           in zip(timings, scales)]))}}
    if tracer is not None:
        result["layers"] = traced_layers(state, first, work, n, tracer)
        result["tracer"] = tracer
    return result


def check_round(record, simulated, uq_reference, alarm_forms) -> List[str]:
    """Every output of one round against the oracles."""
    sweep_spec, mc_spec = record["specs"]["batch"]["jobs"]
    sweep, mc, uq = record["sweep"], record["mc"], record["uq"]
    misses = oracles.check_sweep(
        "sweep exact", sweep_spec["axes"], sweep_spec["probabilities"],
        sweep.points, sweep.values, oracles.corridor_exact)
    misses += oracles.check_monte_carlo(
        mc.occurrences, mc.samples, MC_SAMPLES,
        oracles.corridor_exact(mc_spec["probabilities"]))
    misses += oracles.check_uq(uq.samples, UQ_SAMPLES,
                               uq.percentiles((5, 25, 50, 75, 95)),
                               reference=uq_reference)
    # DES: the round's three simulation jobs, against closed forms.
    if len(simulated) != 3:
        misses.append(f"des: {len(simulated)} simulation jobs in a round, "
                      f"3 expected")
    for job, batch in simulated:
        variant = job.config.variant.value
        misses += oracles.check_des(variant,
                                    [vars(row) for row in batch.results],
                                    alarm_forms[variant])
    return misses


def check_lhs_design(state, seed) -> List[str]:
    """Latin hypercube strata on a small design of the same model."""
    from repro.compile import compile_tree
    from repro.uq import propagation_matrix
    names = compile_tree(state["tree"], "exact").leaf_names
    design = propagation_matrix(state["tree"], state["model"],
                                LHS_CHECK_SAMPLES, seed=seed,
                                sampler="lhs", method="exact")
    return oracles.check_lhs_columns(design, names)


def traced_layers(state, first, work, rounds: int,
                  tracer: Tracer) -> Dict[str, float]:
    """Replays on the first round's inputs, plus the pool's records.

    Work counts come from what the program returned: ``compile.rows``
    from the UQ samples and sweep values of every round, ``mc.draws``
    from the Monte Carlo sample counts times the sampler's leaves,
    ``uq.ppf_values`` from the shape of ``uniform_matrix``'s output.
    """
    from repro.compile import CompiledSampler, compile_tree
    from repro.elbtunnel.batch import replicate_counters
    from repro.uq.sampling import fill_probability_matrix, uniform_matrix

    pool = state["engine"].pool
    shard_ms = []
    for fn, payload in pool.first_payloads:
        with tracer.span("pool.shard_compute"):      # replay
            fn(payload)
        shard_ms.append(tracer.self_times()["pool.shard_compute"][-1])
    maps = tracer.self_times().get("pool.map", [])
    overheads = [m - s for m, s in zip(maps, shard_ms)]

    tree, model = state["tree"], state["model"]
    with tracer.span("compile.tape"):
        evaluator = compile_tree(tree, "exact", cache=False)
    names = evaluator.leaf_names
    uncertain = [name for name in names if name in model]
    with tracer.span("uq.uniforms"):
        uniforms = uniform_matrix(UQ_SAMPLES, len(uncertain),
                                  seed=first["specs"]["uq_seed"],
                                  sampler="lhs")
    with tracer.span("uq.ppf"):
        matrix = fill_probability_matrix(model, names, uniforms,
                                         defaults=evaluator.defaults)
    with tracer.span("compile.eval"):
        evaluator.evaluate_matrix(matrix)
    mc_spec = first["specs"]["batch"]["jobs"][1]
    sampler = CompiledSampler(tree)
    with tracer.span("compile.sampler"):
        sampler.counts(mc_spec["probabilities"],
                       samples=MC_SAMPLES // MC_SHARDS, seed=1)
    sim_job = first["sim_job"]
    seeds = sim_job.seed_plan()[: max(1, SIM_REPLICATIONS // 8)]
    with tracer.span("sim.kernel"):
        replicate_counters(sim_job.config, seeds)
    return {
        "specs.parse_ms": tracer.mean_ms("specs.parse"),
        "compile.tape_ms": tracer.mean_ms("compile.tape"),
        "compile.eval_ms": tracer.mean_ms("compile.eval"),
        "compile.rows": work["rows"] / rounds,
        "compile.sampler_ms": tracer.mean_ms("compile.sampler"),
        "mc.draws": work["mc_samples"] * len(sampler.leaf_names) / rounds,
        "uq.uniforms_ms": tracer.mean_ms("uq.uniforms"),
        "uq.ppf_ms": tracer.mean_ms("uq.ppf"),
        "uq.ppf_values": uniforms.size,
        "pool.maps": tracer.counts.get("pool.maps", 0) / rounds,
        "pool.payloads": tracer.counts.get("pool.payloads", 0) / rounds,
        "pool.payload_bytes": tracer.counts.get("pool.payload_bytes", 0)
        / rounds,
        "pool.map_ms": tracer.mean_ms("pool.map"),
        "pool.shard_compute_ms": 1000 * sum(shard_ms) / len(shard_ms),
        "pool.overhead_ms": 1000 * sum(overheads) / len(overheads),
        "sim.kernel_ms": tracer.mean_ms("sim.kernel"),
        "sim.vehicles": work["vehicles"] / rounds,
    }
