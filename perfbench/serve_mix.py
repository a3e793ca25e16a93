"""``serve-mix``: a closed-loop client against a ``repro serve`` process.

One client (this process) sends requests over one keep-alive HTTP/1.1
connection to a ``repro serve --workers 1`` subprocess with a sqlite
cache.  Each round of 40 requests holds every spec of a 16-entry warm
set twice (cache hits once the set is loaded) and 8 cold specs with
fresh leaf probabilities or fresh trees (cache misses, so BDD/MOCUS work
and cache writes), in a seeded order.
"""

from __future__ import annotations

import http.client
import json
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np

import inputs
import oracles
from common import (
    SETUP_SAMPLES,
    SETUP_STARTS,
    STARTS_BEFORE,
    SpeedGauge,
    Tracer,
    process_peak_rss_mb,
    program_env,
    report,
    scaled_seconds,
    timed_loop,
)

HOST = "127.0.0.1"
WARM_REPEATS = 2
COLD_CORRIDOR = 6
COLD_TREES = 2
#: Far above the cold inserts of any run, so warm entries never evict.
CACHE_CAPACITY = 65536

COLLISION_TREE = {
    "schema": 1, "name": "collision", "top": "Collision",
    "events": {
        "OT1": {"kind": "primary"},
        "OT2": {"kind": "primary"},
        "OHV_critical": {"kind": "condition"},
        "Other collision causes": {"kind": "primary"},
        "Timer overrun": {"kind": "intermediate",
                          "gate": {"type": "or", "inputs": ["OT1", "OT2"]}},
        "Unprotected OHV passage": {
            "kind": "intermediate",
            "gate": {"type": "inhibit", "inputs": ["Timer overrun"],
                     "condition": "OHV_critical"}},
        "Collision": {"kind": "hazard", "gate": {
            "type": "or",
            "inputs": ["Unprotected OHV passage", "Other collision causes"]}},
    }}


# ----------------------------------------------------------------------
# Request specs and their reference results
# ----------------------------------------------------------------------
def corridor_quantify(overrides, method: str) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"type": "quantify", "tree": "corridor"}
    if overrides:
        spec["probabilities"] = overrides
    if method != "rare_event":
        spec["method"] = method
    return spec


def inline_tree_spec(rng: np.random.Generator, name: str) -> Dict[str, Any]:
    tree = inputs.module_tree(rng, name, modules=3, leaves_per_module=5)
    return {"type": "quantify", "tree": tree, "method": "exact"}


def warm_set(rng: np.random.Generator) -> List[Dict[str, Any]]:
    specs = [corridor_quantify(None, "rare_event"),
             corridor_quantify(None, "exact")]
    for _ in range(3):
        overrides = inputs.corridor_overrides(rng)
        specs.append(corridor_quantify(overrides, "rare_event"))
        specs.append(corridor_quantify(overrides, "exact"))
    for _ in range(2):
        specs.append({"type": "quantify", "tree": "collision",
                      "method": "exact", "probabilities": {
                          "OT1": inputs.log_uniform(rng, 1e-3, 0.1),
                          "OT2": inputs.log_uniform(rng, 1e-3, 0.1),
                          "OHV_critical": inputs.log_uniform(rng, 1e-3, 0.02),
                          "Other collision causes":
                              inputs.log_uniform(rng, 1e-8, 1e-6)}})
    for method in ("exact", "exact", "rare_event"):
        section = int(rng.integers(1, oracles.SECTIONS + 1))
        specs.append({"type": "sweep", "tree": "corridor", "method": method,
                      "probabilities": inputs.corridor_overrides(rng, 2),
                      "axes": {oracles.SIGNAL: inputs.axis(rng, 1e-5, 1e-2, 6),
                               oracles.ohv(section):
                                   inputs.axis(rng, 1e-4, 1e-1, 6)}})
    for i in range(3):
        specs.append(inline_tree_spec(rng, f"warm{i}"))
    return specs


def cold_specs(rng: np.random.Generator, round_index: int
               ) -> List[Dict[str, Any]]:
    specs = [corridor_quantify(inputs.corridor_overrides(rng),
                               "exact" if i % 2 else "rare_event")
             for i in range(COLD_CORRIDOR)]
    specs += [inline_tree_spec(rng, f"cold{round_index}.{i}")
              for i in range(COLD_TREES)]
    return specs


def check_response(spec: Dict[str, Any], result: Any) -> List[str]:
    """Check one result against the closed form or the enumeration."""
    method = spec.get("method", "rare_event")
    probs = spec.get("probabilities") or {}
    tree = spec["tree"] if isinstance(spec["tree"], str) else "inline"
    label = f"{spec['type']} {tree} {method}"
    if spec["tree"] == "corridor":
        closed = oracles.corridor_exact if method == "exact" \
            else oracles.corridor_rare_event
        if spec["type"] == "sweep":
            return oracles.check_sweep(label, spec["axes"], probs,
                                       result["points"], result["values"],
                                       closed)
        reference = closed(probs)
    elif spec["tree"] == "collision":
        reference = oracles.tree_probability(COLLISION_TREE, probs)
    else:
        reference = oracles.tree_probability(spec["tree"], probs)
    return oracles.check_values(label, [result], [reference])


# ----------------------------------------------------------------------
# Server process and client connection
# ----------------------------------------------------------------------
def free_port() -> int:
    # `repro serve --port 0` does not report the port it binds, so the
    # client picks one and passes it (a race another process could win;
    # start_server retries on a fresh port when the server exits early).
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def start_server(cache_path: str, log_path: str
                 ) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns (process, port, set-up seconds)."""
    for _attempt in range(3):
        port = free_port()
        start = time.monotonic()
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", HOST,
                 "--port", str(port), "--workers", "1", "--cache",
                 cache_path, "--cache-capacity", str(CACHE_CAPACITY)],
                env=program_env(), stdout=log, stderr=log,
                stdin=subprocess.DEVNULL)
        while proc.poll() is None:
            try:
                conn = http.client.HTTPConnection(HOST, port, timeout=5)
                conn.request("GET", "/health")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return proc, port, time.monotonic() - start
            except OSError:
                pass
            if time.monotonic() - start > 90:
                stop_server(proc, port)
                raise RuntimeError("repro serve did not answer /health")
            time.sleep(0.002)
    raise RuntimeError("repro serve exited before answering /health")


def stop_server(proc: subprocess.Popen, port: int) -> None:
    if proc.poll() is None:
        try:
            conn = http.client.HTTPConnection(HOST, port, timeout=10)
            conn.request("POST", "/shutdown")
            conn.getresponse().read()
            conn.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Client:
    """One keep-alive connection posting job specs to ``/jobs``."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(HOST, port, timeout=120)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, body: bytes) -> Tuple[float, bytes, int]:
        start = time.perf_counter()
        self.conn.request("POST", "/jobs", body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return time.perf_counter() - start, data, response.status

    def close(self) -> None:
        self.conn.close()


def parse_stream(data: bytes) -> Tuple[Any, Dict[str, Any], List[str]]:
    """The result envelope and done event of a one-job NDJSON stream."""
    envelope = None
    errors: List[str] = []
    done: Dict[str, Any] = {}
    for line in data.splitlines():
        event = json.loads(line)
        if event["event"] == "result":
            envelope = event
        elif event["event"] == "error":
            errors.append(event.get("error", "error"))
        elif event["event"] == "done":
            done = event
    if envelope is None or done.get("failed", 1) != 0:
        errors.append("stream ended without a clean result")
    return envelope, done, errors


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def cold_start(scratch, index: int) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve`` on a fresh cache of its own; the set-up
    time is scaled by speed samples taken on the server's CPU (this
    process shares it) just before the start and just after."""
    gauge = SpeedGauge()
    gauge.sample(SETUP_SAMPLES)
    proc, port, took = start_server(str(scratch / f"serve-cache-{index}.db"),
                                    str(scratch / "serve.log"))
    gauge.sample(SETUP_SAMPLES)
    return proc, port, took * gauge.scale_of(gauge.samples)


def run(seed: int, seconds: float, trace: bool, scratch,
        gauge: SpeedGauge) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, 11])
    warm = warm_set(rng)
    warm_bodies = [json.dumps(spec).encode() for spec in warm]
    # Set-up times of cold starts: before the workload (whose server is
    # the last of them) and after it (see common.SETUP_STARTS).
    setups = []
    for index in range(STARTS_BEFORE):
        if index:
            stop_server(proc, port)
        proc, port, took = cold_start(scratch, index)
        setups.append(took)
    records: List[Tuple[int, bool, float, bytes, int, int]] = []
    specs: List[Dict[str, Any]] = list(warm)
    failures: List[str] = []
    try:
        client = Client(port)
        # Load the warm set (and pay lazy imports on a throwaway cold
        # request) before timing starts.
        for body in warm_bodies + [json.dumps(spec).encode() for spec in
                                   cold_specs(np.random.default_rng(
                                       [seed, 12]), -1)]:
            _, data, status = client.post(body)
            if status != 200 or parse_stream(data)[2]:
                failures.append(f"warm-up request failed: {data[:200]!r}")

        def one_round(index: int) -> None:
            cold = cold_specs(rng, index)
            batch = [(i, True) for i in range(len(warm))] * WARM_REPEATS
            for spec in cold:
                specs.append(spec)
                batch.append((len(specs) - 1, False))
            for k in rng.permutation(len(batch)):
                spec_index, is_warm = batch[int(k)]
                body = warm_bodies[spec_index] if is_warm \
                    else json.dumps(specs[spec_index]).encode()
                latency, data, status = client.post(body)
                records.append((spec_index, is_warm, latency, data, status,
                                gauge.epoch))

        rounds = timed_loop(seconds, one_round, gauge, gauge_every=0.5)
        client.close()
        peak_rss = process_peak_rss_mb(proc.pid)
    finally:
        stop_server(proc, port)
    for index in range(STARTS_BEFORE, SETUP_STARTS):
        proc, port, took = cold_start(scratch, index)
        stop_server(proc, port)
        setups.append(took)

    # ------------------------------------------------------------------
    # Checks against the oracles
    # ------------------------------------------------------------------
    misses: List[str] = list(failures)
    failed = 0
    checked: Dict[str, List[str]] = {}    # response body -> its misses
    parsed = []
    for spec_index, is_warm, latency, data, status, _epoch in records:
        if status != 200:
            failed += 1
            misses.append(f"HTTP {status}: {data[:200]!r}")
            continue
        envelope, _done, errors = parse_stream(data)
        if errors:
            failed += 1
            misses.extend(errors)
            continue
        parsed.append((spec_index, is_warm, latency, envelope, len(data)))
        spec = specs[spec_index]
        if envelope["cache_hit"] != is_warm:
            misses.append(f"cache_hit={envelope['cache_hit']} on a "
                          f"{'warm' if is_warm else 'cold'} request")
        # Identical warm results are checked once.
        key = json.dumps([spec_index, envelope["result"]])
        if key not in checked:
            checked[key] = check_response(spec, envelope["result"])
        misses.extend(checked[key])

    # Latencies at the reference speed (see common.SpeedGauge).
    latencies = [r[2] * gauge.scale_at(r[5]) for r in records]
    warm_lat = [t for t, r in zip(latencies, records) if r[1]]
    cold_lat = [t for t, r in zip(latencies, records) if not r[1]]
    ops_per_s = len(records) / scaled_seconds(rounds, gauge)
    report({"requests": len(records),
            "requests_per_s": ops_per_s,
            "warm_p50_ms": 1000 * np.percentile(warm_lat, 50),
            "warm_p99_ms": 1000 * np.percentile(warm_lat, 99),
            "cold_p50_ms": 1000 * np.percentile(cold_lat, 50),
            "cold_p99_ms": 1000 * np.percentile(cold_lat, 99),
            "speed_scale": np.median(
                [gauge.scale_at(e) for e in range(len(gauge.samples))]),
            "unscaled_ops_per_s": len(records) / sum(t for t, _e in rounds),
            "unscaled_op_p50_ms": 1000 * np.median([r[2] for r in records])})
    result = {
        "misses": misses, "attempted": len(records), "failed": failed,
        "setup_s": float(np.median(setups)),
        "e2e": {"peak_rss_mb": peak_rss, "ops_per_s": ops_per_s,
                "op_p50_ms": 1000 * float(np.median(latencies))},
    }
    if trace:
        result.update(traced_layers(parsed, specs, warm, scratch))
    return result


# ----------------------------------------------------------------------
# Traced run: the same request stream, layer by layer
# ----------------------------------------------------------------------
def traced_layers(parsed, specs, warm, scratch) -> Dict[str, float]:
    """Per-layer figures for the recorded request stream.

    Transport figures come from the HTTP run itself (client round trip,
    the envelope's server-side ``wall_time_s``).  The server's internal
    steps are replayed in-process, through the calls its handler makes,
    over a timing wrapper around a sqlite store loaded with the warm set.
    """
    from repro.bdd import BDDManager
    from repro.engine import Engine, SqliteCache, jobs_from_payload
    from repro.engine import result_envelope
    from repro.engine.cache import MISS, CacheBackend
    from repro.fta import mocus, to_bdd

    tracer = Tracer()
    round_trips = [p[2] for p in parsed]
    engine_s = [p[3]["wall_time_s"] for p in parsed]
    layers = {
        "serve.round_trip_ms": 1000 * sum(round_trips) / len(parsed),
        "serve.engine_ms": 1000 * sum(engine_s) / len(parsed),
        "serve.response_bytes": sum(p[4] for p in parsed) / len(parsed),
    }
    layers["serve.overhead_ms"] = layers["serve.round_trip_ms"] \
        - layers["serve.engine_ms"]

    class TracedCache(CacheBackend):
        """Times every lookup and insert of the wrapped store."""

        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name
            self.capacity = inner.capacity
            self.path = inner.path
            self.stats = inner.stats
            self.last = MISS

        def get(self, key):
            with tracer.span("cache.get"):
                self.last = self.inner.get(key)
            return self.last

        def put(self, key, value, persist=True):
            with tracer.span("cache.put"):
                self.inner.put(key, value, persist)

        def peek(self, key):
            return self.inner.peek(key)

        def __len__(self):
            return len(self.inner)

        def close(self):
            self.inner.close()

    cache = TracedCache(SqliteCache(str(scratch / "replay-cache.db"),
                                    capacity=CACHE_CAPACITY))
    engine = Engine(workers=1, cache=cache)
    for spec in warm:
        engine.run_shared(jobs_from_payload(spec, allow_files=False)[0])
    lookups = hits = 0
    for spec_index, is_warm, _latency, _envelope, _size in parsed:
        body = json.dumps(specs[spec_index]).encode()
        with tracer.span("request"):
            with tracer.span("specs.parse"):
                job = jobs_from_payload(json.loads(body.decode()),
                                        allow_files=False)[0]
            with tracer.span("fingerprint"):
                job.fingerprint()
            with tracer.span("engine.run_shared"):
                outcome = engine.run_shared(job)
            lookups += 1
            if outcome.cache_hit:
                hits += 1
                raw = cache.last
                with tracer.span("cache.decode"):     # replay
                    job.decode_result(raw)
            with tracer.span("encode"):
                envelope = result_envelope(job, outcome, job_id="j-0",
                                           index=0)
                json.dumps({"event": "result", **envelope}, sort_keys=True)
        if not outcome.cache_hit and job.kind == "quantify":
            # Replays of the layers that run inside hazard_probability.
            if job.method == "exact":
                with tracer.span("bdd.build"):
                    manager = BDDManager()
                    root = to_bdd(job.tree, manager)
                tracer.count("bdd.nodes", manager.size(root))
                tracer.count("bdd.builds")
            else:
                with tracer.span("fta.mocus"):
                    mocus(job.tree)
    cache.close()
    layers.update({
        "specs.parse_ms": tracer.mean_ms("specs.parse"),
        "fingerprint.ms": tracer.mean_ms("fingerprint"),
        "cache.get_ms": tracer.mean_ms("cache.get"),
        "cache.decode_ms": tracer.mean_ms("cache.decode"),
        "cache.put_ms": tracer.mean_ms("cache.put"),
        "cache.hit_ratio": hits / lookups,
        "encode.ms": tracer.mean_ms("encode"),
        "fta.mocus_ms": tracer.mean_ms("fta.mocus"),
        "bdd.build_ms": tracer.mean_ms("bdd.build"),
        "bdd.nodes": tracer.counts.get("bdd.nodes", 0)
        / max(1, tracer.counts.get("bdd.builds", 0)),
    })
    return {"layers": layers, "tracer": tracer}
