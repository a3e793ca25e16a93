"""The multi-tenant risk-analysis HTTP service.

A :class:`RiskServer` wraps one shared :class:`~repro.engine.Engine`
(thread-safe cache, request coalescing) in a stdlib
``ThreadingHTTPServer``.  Clients POST the ``repro batch`` JSON job
format to ``/jobs`` and read back a *stream* of newline-delimited JSON
events (chunked transfer encoding): one ``accepted`` and one ``started``
event per job as it moves through the queue, a ``result`` envelope the
moment each job finishes, and a final ``done`` summary — a slow sweep
does not delay the results of the quantify jobs submitted next to it.

Back-pressure is two-layered: at most ``queue_limit`` requests are
admitted concurrently (a saturated server answers ``429`` immediately
with a ``Retry-After`` hint), and at most ``max_concurrency`` engine
computations run at once — admitted jobs queue on the compute
semaphore and fail individually with a ``timeout`` error event when
``request_timeout`` elapses.  Cache hits and coalesced waits bypass the
compute gate entirely, which is what makes the warm path fast enough
for interactive what-if analysis.

Shutdown is graceful: the listening socket closes first, in-flight
requests drain (bounded by a timeout), then the result cache is
persisted to disk when a cache path is configured.
"""

from __future__ import annotations

import json
import logging
import signal
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.engine import Engine, jobs_from_payload, result_envelope
from repro.errors import ReproError, ServeError
from repro.resilience import FaultPlan
from repro.serve.registry import JobRegistry

log = logging.getLogger("repro.serve")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`RiskServer`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`RiskServer.port` — the pattern tests and benchmarks use).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    cache_path: Optional[str] = None
    cache_capacity: int = 4096
    cache_ttl: Optional[float] = None
    cache_max_bytes: Optional[int] = None
    warm_manifest: Optional[str] = None
    max_concurrency: int = 8
    queue_limit: int = 32
    request_timeout: float = 60.0
    history: int = 512
    #: Optional fault-injection plan threaded into the engine (and so
    #: the pool + cache) plus the ``serve.stream`` site — chaos tests
    #: and ``repro serve --fault-plan`` only; ``None`` in production.
    fault_plan: Optional[FaultPlan] = None

    def validate(self) -> "ServerConfig":
        if self.max_concurrency < 1:
            raise ServeError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.request_timeout <= 0:
            raise ServeError(
                f"request_timeout must be > 0, got {self.request_timeout}")
        return self


class RiskServer:
    """One long-running risk-analysis service around a shared engine.

    Parameters
    ----------
    config:
        Server tunables; defaults bind ``127.0.0.1:8080``.
    engine:
        A pre-built engine to serve from (shares its cache with other
        owners); by default the server builds its own from the config's
        ``workers``/``cache_path``/``cache_capacity``.
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 engine: Optional[Engine] = None):
        self.config = (config or ServerConfig()).validate()
        self.engine = engine if engine is not None else Engine(
            workers=self.config.workers,
            cache_path=self.config.cache_path,
            cache_capacity=self.config.cache_capacity,
            cache_ttl=self.config.cache_ttl,
            cache_max_bytes=self.config.cache_max_bytes,
            warm_manifest=self.config.warm_manifest,
            fault_plan=self.config.fault_plan)
        #: The plan driving the ``serve.stream`` site (a pre-built
        #: engine contributes its own plan when the config has none).
        self.fault_plan = self.config.fault_plan \
            if self.config.fault_plan is not None \
            else getattr(self.engine, "fault_plan", None)
        self.registry = JobRegistry(history=self.config.history)
        self.started_at = time.time()
        self.accepted = 0
        self.rejected = 0
        self._active = 0
        self._draining = False
        self._shut_down = False
        #: Whether a serve loop was entered (through :meth:`start` or
        #: :meth:`serve_forever`); a server that never served must not
        #: wait for its loop to stop.
        self._serving = False
        self._state = threading.Condition()
        self._slots = threading.Semaphore(self.config.max_concurrency)
        self._thread: Optional[threading.Thread] = None
        self._httpd = _HTTPServer((self.config.host, self.config.port),
                                  _Handler)
        self._httpd.risk_server = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved when the config asked for 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RiskServer":
        """Serve in a daemon thread; returns self (for chaining)."""
        if self._thread is not None:
            raise ServeError("server already started")
        with self._state:
            if self._shut_down:
                raise ServeError("server already shut down")
            self._serving = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-serve",
                                        daemon=True)
        self._thread.start()
        log.info("serving on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (returns
        at once when shutdown already ran)."""
        with self._state:
            if self._shut_down:
                return
            self._serving = True
        log.info("serving on %s", self.url)
        self._httpd.serve_forever()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = 30.0) -> None:
        """Stop the server; with ``drain`` wait for in-flight requests.

        New submissions are rejected (429) the moment shutdown begins;
        already-admitted requests run to completion (bounded by
        ``timeout`` seconds), then the listening socket closes and the
        result cache is persisted when a path is configured.
        """
        with self._state:
            if self._shut_down:
                return
            self._draining = True
        if drain:
            deadline = None if timeout is None \
                else time.monotonic() + timeout
            with self._state:
                while self._active:
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        log.warning(
                            "shutdown timed out with %d active "
                            "request(s)", self._active)
                        break
                    self._state.wait(remaining)
        with self._state:
            if self._shut_down:
                # A concurrent shutdown (SIGTERM racing POST /shutdown)
                # finished the teardown while this call drained.
                return
            self._shut_down = True
            serving = self._serving
        # Persist before releasing serve_forever: when shutdown runs on
        # a daemon thread (POST /shutdown), the process may exit the
        # moment serve_forever returns.
        if self.config.cache_path:
            self.engine.save_cache()
        if serving:
            # Waits for the serve loop to stop; a loop that was never
            # entered would never signal it.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into the draining :meth:`shutdown`.

        Without this a ``repro serve`` process dies mid-request on
        SIGTERM (orchestrators send exactly that), losing in-flight
        responses and the cache save.  The handler returns immediately
        — draining runs on a helper thread, because a signal handler
        that blocks can deadlock the very requests it is waiting on.
        Only the main thread may install handlers; calls from other
        threads (e.g. embedded test servers) are a logged no-op.
        """
        if threading.current_thread() is not threading.main_thread():
            log.debug("not on the main thread; signal handlers "
                      "not installed")
            return

        def _on_signal(signum: int, frame: Any) -> None:
            log.info("received %s: draining and shutting down",
                     signal.Signals(signum).name)
            threading.Thread(target=self.shutdown,
                             name="repro-serve-signal-shutdown",
                             daemon=True).start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _on_signal)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def try_admit(self) -> bool:
        """Claim one request slot; False when saturated or draining."""
        with self._state:
            if self._draining or self._active >= self.config.queue_limit:
                self.rejected += 1
                return False
            self._active += 1
            self.accepted += 1
            return True

    def release(self) -> None:
        """Return one request slot (wakes a draining shutdown)."""
        with self._state:
            self._active = max(0, self._active - 1)
            self._state.notify_all()

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def process_jobs(self, jobs, emit,
                     deadline: Optional[float] = None) -> None:
        """Run one admitted submission, emitting NDJSON event dicts.

        ``jobs`` is the validated job list
        (:func:`~repro.engine.specs.jobs_from_payload`); ``emit`` is
        called with one JSON-safe dict per event, and exceptions it
        raises (client disconnects, injected stream faults) abort the
        remaining jobs.  ``deadline`` is an optional monotonic instant
        (the client's ``X-Repro-Timeout`` budget) propagated into every
        compute-slot and coalescing wait — a request never holds
        resources past the point its client stopped caring.
        """
        records = [self.registry.create(job) for job in jobs]
        failed = 0
        for index, (job, record) in enumerate(zip(jobs, records)):
            emit({"event": "accepted", "id": record.id, "index": index,
                  "type": job.kind, "job": record.description,
                  "fingerprint": record.fingerprint})
            queued = time.perf_counter()
            self.registry.mark_running(record.id)
            emit({"event": "started", "id": record.id})
            timeout = self.config.request_timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                timeout = min(timeout, remaining)
            if timeout <= 0:
                failed += 1
                message = "request deadline exceeded before start"
                self.registry.mark_failed(record.id, message)
                emit({"event": "error", "id": record.id,
                      "error": message, "queued_s": 0.0})
                continue
            try:
                outcome = self.engine.run_shared(
                    job, timeout=timeout, slots=self._slots)
            except ReproError as exc:
                # Job-level failures (validation, timeouts) fail one
                # job and the stream continues.  Infrastructure faults
                # (InjectedFault is an OSError, not a ReproError)
                # deliberately fall through to the transport layer.
                failed += 1
                self.registry.mark_failed(record.id, str(exc))
                emit({"event": "error", "id": record.id,
                      "error": str(exc),
                      "queued_s": time.perf_counter() - queued})
                continue
            envelope = result_envelope(job, outcome, job_id=record.id,
                                       index=index)
            self.registry.mark_done(record.id, outcome,
                                    envelope["result"])
            emit({"event": "result", **envelope})
        stats = self.engine.stats()
        emit({"event": "done", "jobs": len(jobs), "failed": failed,
              "engine": {"executed": stats.executed,
                         "coalesced": stats.coalesced,
                         "degraded": stats.degraded,
                         "retries": stats.retries,
                         "recovered": stats.recovered,
                         "cache": stats.cache}})

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        """The ``GET /health`` body."""
        with self._state:
            status = "draining" if self._draining else "ok"
            active = self._active
        return {"status": status,
                "uptime_s": time.time() - self.started_at,
                "active_requests": active,
                "inflight": self.engine.inflight}

    def stats_payload(self) -> Dict[str, Any]:
        """The ``GET /stats`` body."""
        stats = self.engine.stats()
        shared = stats.executed + stats.coalesced
        with self._state:
            server = {"url": self.url,
                      "uptime_s": time.time() - self.started_at,
                      "active_requests": self._active,
                      "queue_limit": self.config.queue_limit,
                      "max_concurrency": self.config.max_concurrency,
                      "draining": self._draining,
                      "accepted": self.accepted,
                      "rejected": self.rejected}
        return {
            "server": server,
            "jobs": self.registry.counts(),
            "engine": {"workers": stats.workers,
                       "executed": stats.executed,
                       "coalesced": stats.coalesced,
                       "inflight": stats.inflight},
            "coalescing": {
                "executed": stats.executed,
                "coalesced": stats.coalesced,
                "coalesce_rate": (stats.coalesced / shared
                                  if shared else 0.0)},
            "cache": self.engine.cache.info(),
            # Module-cache and sifting counters from incremental
            # (what-if) jobs served by this engine.
            "incremental": stats.incremental,
            # Degradations, retries and recoveries — all 0 on a
            # healthy run (see docs/resilience.md).
            "resilience": {
                "degraded": stats.degraded,
                "retries": stats.retries,
                "recovered": stats.recovered,
                "faults_injected": stats.faults_injected,
                "cache_degraded_mode": self.engine.cache.degraded_mode,
            },
        }


class _HTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying a reference to its RiskServer."""

    daemon_threads = True
    # Draining is handled by RiskServer.shutdown, not by join-on-close.
    block_on_close = False
    risk_server: RiskServer

    def handle_error(self, request, client_address):
        # Clients hanging up mid-stream (and handler threads racing a
        # socket close during shutdown) are routine, not stack traces.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError,
                            OSError)):
            log.debug("connection error from %s: %s",
                      client_address, exc)
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Route table: the HTTP surface of one :class:`RiskServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    timeout = 120
    # Headers and each streamed chunk are separate writes; with Nagle
    # on, the second write stalls a delayed-ACK interval (~40 ms) and
    # caps warm-cache throughput at ~25 requests/second per client.
    disable_nagle_algorithm = True

    @property
    def risk(self) -> RiskServer:
        return self.server.risk_server  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("%s - %s", self.address_string(), format % args)

    # ------------------------------------------------------------------
    # Plain JSON responses
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, Any],
                   extra_headers: Tuple[Tuple[str, str], ...] = ()
                   ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         **extra: Any) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        if status == 429:
            headers = (("Retry-After", "1"),)
        self._send_json(status, {"error": message, **extra}, headers)

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/health":
            self._send_json(200, self.risk.health_payload())
        elif path == "/stats":
            self._send_json(200, self.risk.stats_payload())
        elif path == "/jobs":
            records = self.risk.registry.list()
            self._send_json(200, {"jobs": [
                record.as_dict(include_result=False)
                for record in records]})
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            try:
                record = self.risk.registry.get(job_id)
            except ServeError as exc:
                self._send_error_json(404, str(exc))
                return
            self._send_json(200, record.as_dict())
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    # ------------------------------------------------------------------
    # POST routes
    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            self._post_jobs()
        elif path == "/shutdown":
            self._send_json(202, {"status": "shutting down"})
            # Drain from a helper thread: this handler must finish (and
            # its response flush) without waiting on itself.
            threading.Thread(target=self.risk.shutdown,
                             name="repro-serve-shutdown",
                             daemon=True).start()
            self.close_connection = True
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def _post_jobs(self) -> None:
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return
        # Validate before admission: malformed requests must not
        # consume queue slots (and must 400, not stream).  Any failure
        # while the jobs are built counts — the body is the client's
        # input, and an exception that escaped the typed checks must
        # still answer rather than drop the connection.
        try:
            jobs = jobs_from_payload(payload, allow_files=False)
        except Exception as exc:
            if not isinstance(exc, ReproError):
                log.exception("unexpected failure while building jobs")
            self._send_error_json(400, str(exc))
            return
        if not self.risk.try_admit():
            self._send_error_json(
                429, "server saturated: request queue is full",
                queue_limit=self.risk.config.queue_limit)
            return
        # Deadline propagation: a client that bounded its own wait
        # (ServeClient sends its timeout) bounds the server-side queue
        # and compute waits too.
        deadline: Optional[float] = None
        budget = self.headers.get("X-Repro-Timeout")
        if budget is not None:
            try:
                deadline = time.monotonic() + float(budget)
            except ValueError:
                log.debug("ignoring malformed X-Repro-Timeout %r",
                          budget)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            try:
                self.risk.process_jobs(jobs, self._emit_event,
                                       deadline=deadline)
                self.wfile.write(b"0\r\n\r\n")
            except OSError as exc:
                # Client hang-ups and injected stream faults: the
                # remaining jobs are abandoned (their registry records
                # stay in their last state), the connection dies, the
                # server keeps serving everyone else.
                log.info("stream aborted mid-response: %s", exc)
                self.close_connection = True
        finally:
            self.risk.release()

    def _emit_event(self, event: Dict[str, Any]) -> None:
        """Write one NDJSON event as an HTTP/1.1 chunk."""
        data = json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
        plan = self.risk.fault_plan
        if plan is not None:
            # Truncation mangles the NDJSON line (the chunk frame stays
            # valid); io_error/crash raise InjectedFault, which the
            # stream handler above treats exactly like a hang-up.
            data = plan.pulse("serve.stream", data)
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii")
                         + data + b"\r\n")


def serve(config: Optional[ServerConfig] = None,
          engine: Optional[Engine] = None) -> None:
    """Build a :class:`RiskServer` and serve until interrupted.

    Prints one ``serving on http://HOST:PORT`` line (with the bound
    port) to stdout before serving.  SIGTERM and SIGINT trigger the same
    draining shutdown the ``POST /shutdown`` endpoint runs: reject new
    work, finish in-flight requests, persist the cache, close the
    socket.
    """
    server = RiskServer(config, engine=engine)
    server.install_signal_handlers()
    # The one line a supervisor reads to learn the bound port (--port 0).
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        log.info("interrupt: draining and shutting down")
        server.shutdown()
