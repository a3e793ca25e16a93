"""End-to-end service tests over real HTTP on an ephemeral port."""

import json
import os
import queue
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import Engine, SqliteCache, job_from_spec
from repro.errors import ServeError
from repro.serve import RiskServer, ServeClient, ServerConfig
from tests.engine._bad_specs import BAD_SPECS
from tests.engine._connections import needs_proc_fds, store_connections

QUANTIFY = {"type": "quantify", "tree": "corridor", "method": "exact"}
MONTECARLO = {"type": "montecarlo", "tree": "corridor",
              "samples": 100_000, "seed": 11}


@pytest.fixture
def server():
    instance = RiskServer(ServerConfig(
        port=0, workers=1, max_concurrency=2, queue_limit=4,
        request_timeout=30.0)).start()
    yield instance
    instance.shutdown(drain=True, timeout=10.0)


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port, timeout=30.0) as c:
        yield c


class TestEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0
        assert payload["active_requests"] == 0

    def test_submit_streams_events_in_order(self, client):
        events = client.submit([QUANTIFY])
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted", "started", "result", "done"]
        accepted, _started, result, done = events
        assert accepted["id"] == result["id"]
        assert accepted["fingerprint"] == result["fingerprint"]
        assert result["cache_hit"] is False
        assert result["coalesced"] is False
        assert done["jobs"] == 1 and done["failed"] == 0
        # The streamed value matches a direct engine evaluation.
        expected = Engine(workers=1).run(job_from_spec(QUANTIFY))
        assert result["result"] == expected

    def test_multi_job_submission_keeps_order(self, client):
        events = client.submit([QUANTIFY, MONTECARLO])
        results = [e for e in events if e["event"] == "result"]
        assert [r["index"] for r in results] == [0, 1]
        assert [r["type"] for r in results] == ["quantify",
                                                "montecarlo"]

    def test_second_submission_is_a_cache_hit(self, client):
        first = client.results([QUANTIFY])[0]
        second = client.results([QUANTIFY])[0]
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["result"] == first["result"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_job_status_endpoint(self, client):
        result = client.results([QUANTIFY])[0]
        record = client.job(result["id"])
        assert record["status"] == "done"
        assert record["fingerprint"] == result["fingerprint"]
        assert record["result"] == result["result"]
        assert record["wall_time_s"] == result["wall_time_s"]

    def test_jobs_listing(self, client):
        ids = [client.results([QUANTIFY])[0]["id"],
               client.results([MONTECARLO])[0]["id"]]
        listed = client.jobs()
        assert [record["id"] for record in listed[:2]] == ids[::-1]
        assert all("result" not in record for record in listed)

    def test_stats_endpoint(self, client):
        client.results([QUANTIFY])
        client.results([QUANTIFY])
        stats = client.stats()
        assert stats["jobs"]["done"] == 2
        assert stats["engine"]["executed"] == 1
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["size"] >= 1
        assert stats["server"]["accepted"] == 2
        assert 0.0 <= stats["coalescing"]["coalesce_rate"] <= 1.0
        assert stats["incremental"]["sessions"] == 0

    def test_incremental_spec_updates_stats(self, client):
        spec = {"type": "incremental", "tree": "corridor",
                "edits": [{"op": "set_rate",
                           "event": "Signal not shown",
                           "probability": 2e-4}]}
        result = client.results([spec])[0]["result"]
        assert result["steps"][0]["value"] != result["baseline"]
        stats = client.stats()
        assert stats["incremental"]["sessions"] == 1
        assert stats["incremental"]["module_compiles"] >= 1

    def test_per_job_failure_keeps_stream_alive(self, client):
        # fig2 has no leaf defaults: quantifying it without
        # probabilities fails, but the next job still runs.
        events = client.submit([{"type": "quantify", "tree": "fig2"},
                                QUANTIFY])
        kinds = [event["event"] for event in events]
        assert kinds.count("error") == 1
        assert kinds.count("result") == 1
        done = events[-1]
        assert done["jobs"] == 2 and done["failed"] == 1
        failed_id = [e for e in events if e["event"] == "error"][0]["id"]
        assert client.job(failed_id)["status"] == "failed"


class TestErrors:
    def test_invalid_json_body_is_400(self, client):
        response = client._request("POST", "/jobs", b"{not json")
        assert response.status == 400
        assert "invalid JSON" in json.loads(response.read())["error"]

    def test_bad_job_spec_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit([{"type": "wat"}])
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("spec, message", BAD_SPECS)
    def test_malformed_field_is_final_400(self, server, spec, message):
        with ServeClient(server.host, server.port, timeout=10.0) as c:
            with pytest.raises(ServeError) as excinfo:
                c.results([spec])
            assert excinfo.value.status == 400
            assert message in str(excinfo.value)
            # A rejected request is an answer, not an outage.
            assert c.retries == 0
            assert c.health()["status"] == "ok"
        assert server.accepted == 0

    def test_unexpected_build_failure_is_400(self, client, monkeypatch):
        import repro.serve.server as server_module

        def explode(payload, allow_files):
            raise ValueError("escaped the typed checks")
        monkeypatch.setattr(server_module, "jobs_from_payload", explode)
        response = client._request("POST", "/jobs",
                                   json.dumps(QUANTIFY).encode())
        assert response.status == 400
        assert json.loads(response.read())["error"] == \
            "escaped the typed checks"

    def test_empty_payload_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit([])
        assert excinfo.value.status == 400

    def test_tree_file_references_are_rejected(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit([{"type": "quantify",
                            "tree": {"file": "/etc/passwd"}}])
        assert excinfo.value.status == 400
        assert "not allowed" in str(excinfo.value)

    def test_unknown_paths_are_404(self, client):
        assert client._request("GET", "/nope").status == 404
        response = client._request("POST", "/nope", b"{}")
        assert response.status == 404

    def test_unknown_job_id_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("j-999999")
        assert excinfo.value.status == 404


class TestBackPressure:
    def test_saturated_queue_answers_429(self, server, client):
        # Deterministically occupy every admission slot, then submit.
        for _ in range(server.config.queue_limit):
            assert server.try_admit()
        try:
            with pytest.raises(ServeError) as excinfo:
                client.submit([QUANTIFY])
            assert excinfo.value.status == 429
            assert server.rejected >= 1
        finally:
            for _ in range(server.config.queue_limit):
                server.release()
        # Slots released: the same submission now succeeds.
        assert client.results([QUANTIFY])[0]["result"] > 0.0

    def test_queued_job_times_out_with_error_event(self):
        instance = RiskServer(ServerConfig(
            port=0, workers=1, max_concurrency=1, queue_limit=4,
            request_timeout=0.1)).start()
        try:
            # Exhaust the only compute slot so the job queues forever.
            assert instance._slots.acquire(timeout=1.0)
            with ServeClient(instance.host, instance.port,
                             timeout=10.0) as c:
                events = c.submit([QUANTIFY])
                errors = [e for e in events if e["event"] == "error"]
                assert len(errors) == 1
                assert "compute slot" in errors[0]["error"]
                assert c.job(errors[0]["id"])["status"] == "failed"
                # Cache hits bypass the compute gate even when it is
                # exhausted: warm a fingerprint through a second server
                # sharing the engine? Simpler: release and recompute.
            instance._slots.release()
            with ServeClient(instance.host, instance.port,
                             timeout=10.0) as c:
                warm = c.results([QUANTIFY])[0]
                assert warm["cache_hit"] is False  # first computation
                hit = c.results([QUANTIFY])[0]
                assert hit["cache_hit"] is True
        finally:
            instance.shutdown(drain=True, timeout=5.0)

    def test_config_validation(self):
        with pytest.raises(ServeError):
            ServerConfig(max_concurrency=0).validate()
        with pytest.raises(ServeError):
            ServerConfig(queue_limit=0).validate()
        with pytest.raises(ServeError):
            ServerConfig(request_timeout=0.0).validate()


class TestCoalescingOverHTTP:
    def test_concurrent_identical_submissions_compute_once(self):
        server = RiskServer(ServerConfig(
            port=0, workers=1, max_concurrency=8, queue_limit=16,
            request_timeout=60.0)).start()
        spec = {"type": "montecarlo", "tree": "corridor",
                "samples": 400_000, "seed": 5}
        results = []
        lock = threading.Lock()

        def submit():
            with ServeClient(server.host, server.port,
                             timeout=60.0) as c:
                envelope = c.results([spec])[0]
            with lock:
                results.append(envelope)

        try:
            threads = [threading.Thread(target=submit)
                       for _ in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert len(results) == 5
            assert server.engine.executed == 1
            computed = sum(1 for r in results
                           if not r["cache_hit"] and not r["coalesced"])
            assert computed == 1
            # Every client got the byte-identical payload.
            assert len({json.dumps(r["result"], sort_keys=True)
                        for r in results}) == 1
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestShutdown:
    def wait_down(self, instance, deadline=10.0):
        end = time.time() + deadline
        while time.time() < end:
            try:
                with ServeClient(instance.host, instance.port,
                                 timeout=1.0) as probe:
                    probe.health()
            except ServeError:
                return True
            time.sleep(0.05)
        return False

    def test_shutdown_endpoint_drains_and_stops(self):
        instance = RiskServer(ServerConfig(port=0)).start()
        with ServeClient(instance.host, instance.port,
                         timeout=10.0) as c:
            c.results([QUANTIFY])
            ack = c.shutdown_server()
        assert ack["status"] == "shutting down"
        assert self.wait_down(instance)

    @needs_proc_fds
    def test_client_connections_do_not_leak_store_connections(
            self, tmp_path):
        path = str(tmp_path / "s.db")
        instance = RiskServer(ServerConfig(port=0, workers=1,
                                           cache_path=path)).start()
        try:
            # Each client connection is served by its own thread.
            for _ in range(200):
                with ServeClient(instance.host, instance.port,
                                 timeout=30.0) as c:
                    assert c.results([QUANTIFY])[0]["result"] > 0.0
            assert store_connections(path) <= 4
        finally:
            instance.shutdown(drain=True, timeout=10.0)
        assert store_connections(path) == 0

    def test_shutdown_closes_the_store(self, tmp_path):
        path = str(tmp_path / "s.db")
        instance = RiskServer(ServerConfig(port=0, workers=1,
                                           cache_path=path)).start()
        with ServeClient(instance.host, instance.port, timeout=30.0) as c:
            c.results([QUANTIFY])
            c.results([QUANTIFY])
        instance.shutdown(drain=True, timeout=10.0)
        assert os.path.exists(path)
        assert not os.path.exists(path + "-wal")
        assert not os.path.exists(path + "-shm")

    def test_draining_server_rejects_new_work(self):
        instance = RiskServer(ServerConfig(port=0)).start()
        try:
            with instance._state:
                instance._draining = True
            with ServeClient(instance.host, instance.port,
                             timeout=10.0) as c:
                assert c.health()["status"] == "draining"
                with pytest.raises(ServeError) as excinfo:
                    c.submit([QUANTIFY])
                assert excinfo.value.status == 429
        finally:
            instance.shutdown(drain=False)

    def test_cache_persists_across_server_lifetimes(self, tmp_path):
        cache_path = str(tmp_path / "serve-cache.db")
        first = RiskServer(ServerConfig(port=0,
                                        cache_path=cache_path)).start()
        with ServeClient(first.host, first.port, timeout=10.0) as c:
            cold = c.results([QUANTIFY])[0]
            assert cold["cache_hit"] is False
        first.shutdown(drain=True, timeout=10.0)

        second = RiskServer(ServerConfig(port=0,
                                         cache_path=cache_path)).start()
        try:
            with ServeClient(second.host, second.port,
                             timeout=10.0) as c:
                warm = c.results([QUANTIFY])[0]
                assert warm["cache_hit"] is True
                assert warm["result"] == cold["result"]
        finally:
            second.shutdown(drain=True, timeout=10.0)

    def test_sqlite_cache_backend_in_stats(self, tmp_path):
        config = ServerConfig(port=0,
                              cache_path=str(tmp_path / "serve.db"))
        instance = RiskServer(config).start()
        try:
            with ServeClient(instance.host, instance.port,
                             timeout=10.0) as c:
                cold = c.results([QUANTIFY])[0]
                assert cold["cache_hit"] is False
                cache = c.stats()["cache"]
                assert cache["backend"] == "sqlite"
                assert cache["misses"] >= 1
                assert cache["evictions"] == 0
        finally:
            instance.shutdown(drain=True, timeout=10.0)

        # The sqlite store survives the server lifetime: a fresh
        # server answers the same job from disk.
        second = RiskServer(config).start()
        try:
            with ServeClient(second.host, second.port,
                             timeout=10.0) as c:
                assert c.results([QUANTIFY])[0]["cache_hit"] is True
        finally:
            second.shutdown(drain=True, timeout=10.0)

    def test_start_twice_is_an_error(self, server):
        with pytest.raises(ServeError, match="already started"):
            server.start()


def _read_line(stream, timeout):
    """The next line of ``stream``, or ``None`` after ``timeout`` s."""
    lines: "queue.Queue[str]" = queue.Queue()
    threading.Thread(target=lambda: lines.put(stream.readline()),
                     daemon=True).start()
    try:
        return lines.get(timeout=timeout)
    except queue.Empty:
        return None


class TestLifecycle:
    def test_shutdown_of_a_never_started_server(self, tmp_path):
        path = str(tmp_path / "c.db")
        instance = RiskServer(ServerConfig(port=0, cache_path=path))
        instance.engine.run(job_from_spec(QUANTIFY))
        finished = threading.Event()

        def stop():
            instance.shutdown()
            finished.set()
        threading.Thread(target=stop, daemon=True).start()
        assert finished.wait(5.0), "shutdown blocked on a server " \
            "that never served"
        # The socket is closed and the cache still persisted.
        assert instance._httpd.socket.fileno() == -1
        reopened = SqliteCache(path)
        assert len(reopened) == 1
        reopened.close()
        # A serve loop asked for after shutdown returns at once.
        served = threading.Thread(target=instance.serve_forever,
                                  daemon=True)
        served.start()
        served.join(5.0)
        assert not served.is_alive()
        with pytest.raises(ServeError, match="shut down"):
            instance.start()

    def test_cli_reports_the_bound_port(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),
                         os.path.join(root, "src")) if p])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=root, text=True)
        try:
            line = _read_line(proc.stdout, timeout=30.0)
            assert line is not None, "no 'serving on' line within 30 s"
            match = re.fullmatch(r"serving on http://([\d.]+):(\d+)\n",
                                 line)
            assert match, line
            host, port = match.group(1), int(match.group(2))
            assert port != 0
            with ServeClient(host, port, timeout=10.0) as client:
                assert client.health()["status"] == "ok"
                client.shutdown_server()
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
