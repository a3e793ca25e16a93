"""Service benchmarks: warm-cache throughput and request coalescing.

The service layer's two performance claims, measured over real HTTP on
a loopback socket:

* a warm-cache quantification of the Fig. 5 operating point sustains at
  least 100 requests/second end to end (parse, fingerprint, cache hit,
  stream the NDJSON envelope);
* K concurrent submissions of one identical heavy job trigger exactly
  one engine computation — the other K-1 coalesce onto the leader and
  receive byte-equal results.

Set ``BENCH_QUICK=1`` to shrink the workloads for smoke runs.
"""

import json
import os
import threading
import time

from repro.serve import RiskServer, ServeClient, ServerConfig
from repro.viz import format_table

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: The Fig. 5 operating point: the collision tree quantified exactly at
#: the paper's optimal detection thresholds (OT1/OT2 at their tuned
#: failure probabilities).
FIG5_QUANTIFY = {
    "type": "quantify",
    "tree": "collision",
    "method": "exact",
    "probabilities": {"OT1": 0.01, "OT2": 0.01,
                      "Other collision causes": 0.001},
}


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))))
    return ordered[index]


def test_warm_cache_throughput(report):
    requests = 100 if QUICK else 400
    clients = 4
    server = RiskServer(ServerConfig(
        port=0, workers=1, max_concurrency=8,
        queue_limit=clients * 4)).start()
    try:
        # One cold request computes and fills the cache; everything
        # after is the steady multi-tenant state the service optimises.
        with ServeClient(server.host, server.port) as warmup:
            cold = warmup.results([FIG5_QUANTIFY])[0]
            assert cold["cache_hit"] is False

        latencies = [[] for _ in range(clients)]
        per_client = requests // clients

        def tenant(index):
            # One keep-alive connection per tenant, as a real client
            # would hold.
            with ServeClient(server.host, server.port) as client:
                for _ in range(per_client):
                    start = time.perf_counter()
                    envelope = client.results([FIG5_QUANTIFY])[0]
                    latencies[index].append(
                        time.perf_counter() - start)
                    assert envelope["result"] == cold["result"]

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        flat = [sample for series in latencies for sample in series]
        total = len(flat)
        rps = total / elapsed
        p50 = _percentile(flat, 50)
        p99 = _percentile(flat, 99)
        stats = ServeClient(server.host, server.port).stats()
        assert stats["engine"]["executed"] == 1  # every request warm
    finally:
        server.shutdown(drain=True, timeout=10.0)

    report(format_table(
        ["metric", "value"],
        [["requests (4 tenants, warm cache)", total],
         ["wall time [s]", f"{elapsed:.3f}"],
         ["throughput [req/s]", f"{rps:.0f}"],
         ["latency p50 [ms]", f"{p50 * 1e3:.2f}"],
         ["latency p99 [ms]", f"{p99 * 1e3:.2f}"]],
        title="Serve — warm-cache Fig. 5 quantification over HTTP"))
    assert rps >= 100.0, \
        f"warm-cache service only sustained {rps:.0f} req/s"


def test_concurrent_identical_submissions_coalesce(report):
    k = 6
    samples = 50_000 if QUICK else 400_000
    spec = {"type": "montecarlo", "tree": "corridor",
            "samples": samples, "seed": 9}
    server = RiskServer(ServerConfig(
        port=0, workers=1, max_concurrency=8,
        queue_limit=k * 2)).start()
    try:
        envelopes = []
        lock = threading.Lock()

        def tenant(index):
            with ServeClient(server.host, server.port,
                             timeout=120.0) as client:
                envelope = client.results([spec])[0]
            with lock:
                envelopes.append(envelope)

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(k)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        executed = server.engine.executed
        coalesced = sum(1 for e in envelopes if e["coalesced"])
        cache_hits = sum(1 for e in envelopes if e["cache_hit"])
        distinct = {json.dumps(e["result"], sort_keys=True)
                    for e in envelopes}
    finally:
        server.shutdown(drain=True, timeout=10.0)

    assert len(envelopes) == k
    assert executed == 1, \
        f"{executed} computations for {k} identical submissions"
    assert coalesced + cache_hits == k - 1
    assert len(distinct) == 1  # byte-equal results for every tenant

    report(format_table(
        ["metric", "value"],
        [["identical submissions", k],
         ["engine computations", executed],
         ["coalesced onto leader", coalesced],
         ["served from cache", cache_hits],
         ["wall time [s]", f"{elapsed:.3f}"]],
        title=f"Serve — request coalescing "
              f"({samples} Monte Carlo samples)"))
