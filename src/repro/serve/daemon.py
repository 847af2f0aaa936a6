"""The ``repro serve`` daemon: HTTP front end, supervised back end.

One process, three layers:

* **HTTP layer** — a :class:`ThreadingHTTPServer` (TCP or unix
  socket), one thread per connection.  Every response is JSON with a
  correct status code; no handler path can emit a raw traceback.
* **Admission layer** — :class:`repro.serve.admission`'s bounded
  queue and concurrency gate.  Requests past the queue bound bounce
  immediately with ``429`` + ``Retry-After``.
* **Execution layer** — the front end (parse, type-check, subgoal
  split) runs on the handler thread; decisions go through the same
  :class:`~repro.parallel.pool.SubgoalFanOut` as ``verify -j``, over
  one :class:`~repro.parallel.supervise.SupervisedPool` shared by
  every request, so a crashed or hung worker is respawned and
  retried, and a poison subgoal degrades to a structured ``ERROR``
  row in the response.

Lifecycle: SIGTERM (or SIGINT) starts the drain — admission closes
(new requests see ``503``), in-flight requests get ``drain_grace``
seconds to finish, stragglers are completed with ``ERROR`` rows by
terminating the pool (every outstanding subgoal is answered with a
shutdown notice), the verdict cache needs no flush (stores are
write-through), the socket is closed and unlinked, and the process
exits 0.  ``docs/ARCHITECTURE.md`` §12 has the full state machines.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.parallel.pool import SubgoalFanOut, open_pool
from repro.pascal import check_program, parse_program
from repro.serve.admission import (AdmissionController, Draining,
                                   QueueFull)
from repro.serve.jobs import JobTable
from repro.serve.protocol import (BudgetCaps, ProtocolError,
                                  VerifyRequest, parse_batch_request,
                                  parse_verify_request)
from repro.verify.engine import Verifier

#: Schema of the envelope documents (errors, stats, jobs) — the
#: verification report inside keeps its own schema_version 2.
SERVE_SCHEMA_VERSION = 1

#: Workers that stop heartbeating for this long while busy are
#: declared hung and replaced (``--hang-timeout`` overrides).
DEFAULT_HANG_TIMEOUT = 30.0


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs, decoupled from argparse."""

    host: str = "127.0.0.1"
    port: int = 8421
    unix_socket: Optional[str] = None
    workers: int = 2
    max_concurrent: int = 4
    max_queue: int = 16
    drain_grace: float = 10.0
    hang_timeout: Optional[float] = DEFAULT_HANG_TIMEOUT
    cache_dir: Optional[str] = None
    cache_max_mb: Optional[float] = None
    reduce: bool = True
    slice: bool = True
    simulate: bool = True
    timeout: Optional[float] = 60.0
    max_bdd_nodes: Optional[int] = None
    max_states: Optional[int] = None
    max_steps: Optional[int] = None
    job_retention: int = 256

    def caps(self) -> BudgetCaps:
        return BudgetCaps(timeout=self.timeout,
                          max_bdd_nodes=self.max_bdd_nodes,
                          max_states=self.max_states,
                          max_steps=self.max_steps)

    def engine_defaults(self) -> Dict[str, bool]:
        return {"reduce": self.reduce, "slice": self.slice,
                "simulate": self.simulate}

    def endpoint(self) -> str:
        if self.unix_socket is not None:
            return f"unix:{self.unix_socket}"
        return f"http://{self.host}:{self.port}"


class VerificationService:
    """The daemon's brain: owns the pool, admission, jobs, metrics."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)
        self.pool = open_pool(config.workers,
                              hang_timeout=config.hang_timeout)
        self.admission = AdmissionController(config.max_concurrent,
                                             config.max_queue)
        self.jobs = JobTable(config.job_retention)
        self.started = time.time()
        self._shutdown_started = threading.Event()

    # ------------------------------------------------------------------
    # Request entry points (handler threads)
    # ------------------------------------------------------------------

    def handle_verify(self, body: bytes
                      ) -> Tuple[int, Dict[str, object],
                                 Dict[str, str]]:
        self.metrics.counter("serve.requests.verify").inc()
        try:
            request = parse_verify_request(
                body, self.config.caps(), self.config.engine_defaults())
        except ProtocolError as exc:
            return self._protocol_error(exc)
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — injected or real
            # decoder failure; still a structured response.
            return self._internal_error("request-decode", exc)
        if request.background:
            return self._submit_job(request)
        return self._admit_and_run(request)

    def handle_batch(self, body: bytes
                     ) -> Tuple[int, Dict[str, object],
                                Dict[str, str]]:
        self.metrics.counter("serve.requests.batch").inc()
        try:
            requests = parse_batch_request(
                body, self.config.caps(), self.config.engine_defaults())
        except ProtocolError as exc:
            return self._protocol_error(exc)
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — see handle_verify
            return self._internal_error("request-decode", exc)
        results = []
        for request in requests:
            status, document, _ = self._admit_and_run(request)
            results.append({"status": status, "result": document})
        return 200, {"schema_version": SERVE_SCHEMA_VERSION,
                     "results": results}, {}

    def handle_job_get(self, job_id: str
                       ) -> Tuple[int, Dict[str, object],
                                  Dict[str, str]]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, self._error_document(
                "unknown-job", f"no job named {job_id!r} (finished "
                               f"jobs are eventually evicted)"), {}
        document = job.to_dict()
        document["schema_version"] = SERVE_SCHEMA_VERSION
        return 200, document, {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _admit_and_run(self, request: VerifyRequest
                       ) -> Tuple[int, Dict[str, object],
                                  Dict[str, str]]:
        try:
            with self.admission.admitted():
                document = self._run_verification(request)
            return 200, document, {}
        except QueueFull as exc:
            return (429,
                    self._error_document(
                        "queue-full",
                        f"admission queue is full; retry after "
                        f"{exc.retry_after}s"),
                    {"Retry-After": str(exc.retry_after)})
        except Draining:
            return 503, self._error_document(
                "draining", "daemon is draining for shutdown"), {}
        except ReproError as exc:
            # Front-end rejection (parse, type, annotation): the
            # request is well-formed HTTP but not a verifiable
            # program.
            self.metrics.counter("serve.requests.front_end_errors").inc()
            return 422, self._error_document("front-end", str(exc)), {}
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — last-resort fence:
            # nothing may escape as a traceback over the socket.
            return self._internal_error("verification", exc)

    def _submit_job(self, request: VerifyRequest
                    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        if self.admission.draining:
            return 503, self._error_document(
                "draining", "daemon is draining for shutdown"), {}
        job = self.jobs.create(request.label)

        def run() -> None:
            self.jobs.start(job)
            status, document, _ = self._admit_and_run(request)
            self.jobs.finish(job, status, document,
                             failed=status != 200)

        threading.Thread(target=run, daemon=True,
                         name=f"repro-job-{job.id}").start()
        document = job.to_dict(with_result=False)
        document["schema_version"] = SERVE_SCHEMA_VERSION
        return 202, document, {}

    def _run_verification(self, request: VerifyRequest
                          ) -> Dict[str, object]:
        """Front end on this thread, decisions on the shared pool,
        through the same fan-out as ``verify -j``: subgoals from
        concurrent requests interleave fairly."""
        program = check_program(parse_program(request.source))
        verifier = Verifier(
            program,
            simulate=request.simulate, reduce=request.reduce,
            slice=request.slice,
            cache_dir=self.config.cache_dir,
            cache_max_mb=self.config.cache_max_mb,
            timeout=request.timeout,
            max_bdd_nodes=request.max_bdd_nodes,
            max_states=request.max_states,
            max_steps=request.max_steps)
        fan_out = SubgoalFanOut(self.pool, verifier,
                                verifier.collect_subgoals())
        # The supervisor answers every task (a reply, a quarantine
        # notice, or a shutdown notice); this deadline is a second,
        # independent fence so a supervisor bug can never hang a
        # request.
        slack = (request.timeout or 600.0) * 2 + 30.0
        return fan_out.result(time.monotonic() + slack).to_dict()

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    def health_document(self) -> Dict[str, object]:
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
        }

    def ready_document(self) -> Tuple[int, Dict[str, object]]:
        if self.admission.draining:
            return 503, {"schema_version": SERVE_SCHEMA_VERSION,
                         "status": "draining"}
        return 200, {"schema_version": SERVE_SCHEMA_VERSION,
                     "status": "ready"}

    def stats_document(self) -> Dict[str, object]:
        metric_table = self.metrics.to_dict()

        def value(name: str) -> int:
            entry = metric_table.get(name)
            return int(entry["value"]) if entry else 0  # type: ignore

        hits = value("verify.cache.hits")
        misses = value("verify.cache.misses")
        lookups = hits + misses
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "uptime_seconds": round(time.time() - self.started, 3),
            "endpoint": self.config.endpoint(),
            "admission": self.admission.snapshot(),
            "pool": self.pool.stats(),
            "jobs": self.jobs.snapshot(),
            "cache": {
                "enabled": self.config.cache_dir is not None,
                "hits": hits,
                "misses": misses,
                "stores": value("verify.cache.stores"),
                "evictions": value("verify.cache.evictions"),
                "hit_rate": round(hits / lookups, 4) if lookups
                else None,
            },
            "metrics": metric_table,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_shutdown(self) -> bool:
        """Idempotent entry to the drain sequence; True on first call."""
        if self._shutdown_started.is_set():
            return False
        self._shutdown_started.set()
        return True

    def drain(self) -> None:
        """Stop admitting, let in-flight requests finish (bounded by
        ``drain_grace``), then stop the pool.  Requests still active
        past the grace are completed with structured ``ERROR`` rows:
        terminating the pool answers every outstanding subgoal with a
        shutdown notice, which unblocks their handler threads."""
        self.admission.start_draining()
        finished = self.admission.wait_idle(self.config.drain_grace)
        if finished:
            self.pool.close(drain=True, grace=2.0)
        else:
            self.metrics.counter("serve.drain.forced").inc()
            self.pool.terminate()
            # The shutdown notices unblock the stragglers almost
            # immediately; give them a moment to write responses.
            self.admission.wait_idle(5.0)

    # ------------------------------------------------------------------

    def _protocol_error(self, exc: ProtocolError
                        ) -> Tuple[int, Dict[str, object],
                                   Dict[str, str]]:
        self.metrics.counter("serve.requests.protocol_errors").inc()
        document = exc.to_dict()
        document["schema_version"] = SERVE_SCHEMA_VERSION
        return exc.status, document, {}

    def _internal_error(self, where: str, exc: BaseException
                        ) -> Tuple[int, Dict[str, object],
                                   Dict[str, str]]:
        self.metrics.counter("serve.requests.internal_errors").inc()
        message = str(exc) or type(exc).__name__
        return 500, self._error_document(
            "internal", f"{where} failed: "
                        f"{type(exc).__name__}: {message}"), {}

    @staticmethod
    def _error_document(code: str, message: str) -> Dict[str, object]:
        return {"schema_version": SERVE_SCHEMA_VERSION,
                "error": {"code": code, "message": message}}


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

class _UnixHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer over an ``AF_UNIX`` stream socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # A stale socket file from a crashed daemon must not block a
        # restart; a *live* one is handed over the same way (last
        # binder wins), which is the operator-friendly choice.
        try:
            os.unlink(self.server_address)  # type: ignore[arg-type]
        except OSError:
            pass
        self.socket.bind(self.server_address)
        self.server_name = "localhost"
        self.server_port = 0

    def server_close(self) -> None:
        super().server_close()
        try:
            os.unlink(self.server_address)  # type: ignore[arg-type]
        except OSError:
            pass


def _make_handler(service: VerificationService):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1"
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------

        def log_message(self, format: str, *args: object) -> None:
            # Access logs become metrics, not stderr noise.
            service.metrics.counter("serve.http.responses").inc()

        def address_string(self) -> str:
            # AF_UNIX peers have no address tuple.
            if isinstance(self.client_address, (bytes, str)):
                return "local"
            return super().address_string()

        def _send_document(self, status: int,
                           document: Dict[str, object],
                           headers: Optional[Dict[str, str]] = None
                           ) -> None:
            payload = json.dumps(document, indent=2).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            try:
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing to salvage

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length) if length > 0 else b""

        def _guarded(self, thunk) -> None:
            try:
                status, document, headers = thunk()
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 — the outermost
                # fence: a handler bug is a 500 JSON body, never a
                # traceback on the socket.
                status, document, headers = service._internal_error(
                    "handler", exc)
            self._send_document(status, document, headers)

        # -- routes ----------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 — http.server API
            if self.path == "/healthz":
                self._send_document(200, service.health_document())
            elif self.path == "/readyz":
                status, document = service.ready_document()
                self._send_document(status, document)
            elif self.path == "/v1/stats":
                self._guarded(lambda:
                              (200, service.stats_document(), {}))
            elif self.path.startswith("/v1/jobs/"):
                job_id = self.path[len("/v1/jobs/"):]
                self._guarded(lambda: service.handle_job_get(job_id))
            else:
                self._send_document(
                    404, service._error_document(
                        "not-found", f"no route {self.path!r}"))

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            body = self._read_body()
            if self.path == "/v1/verify":
                self._guarded(lambda: service.handle_verify(body))
            elif self.path == "/v1/batch":
                self._guarded(lambda: service.handle_batch(body))
            else:
                self._send_document(
                    404, service._error_document(
                        "not-found", f"no route {self.path!r}"))

    return Handler


def build_server(service: VerificationService):
    """The bound (but not yet serving) HTTP server for a service."""
    handler = _make_handler(service)
    config = service.config
    if config.unix_socket is not None:
        return _UnixHTTPServer(config.unix_socket, handler)
    return ThreadingHTTPServer((config.host, config.port), handler)


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def config_from_args(args) -> ServeConfig:
    from repro.parallel.pool import resolve_jobs

    return ServeConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        workers=resolve_jobs(args.workers),
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        drain_grace=args.drain_grace,
        hang_timeout=args.hang_timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
        cache_max_mb=args.cache_max_mb,
        reduce=not args.no_reduce,
        slice=not args.no_slice,
        timeout=args.timeout,
        max_bdd_nodes=args.max_bdd_nodes,
        max_states=args.max_states,
        max_steps=args.max_steps)


def serve_command(args) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code."""
    config = config_from_args(args)
    service = VerificationService(config)
    server = build_server(service)

    def on_signal(signum: int, frame) -> None:
        if service.begin_shutdown():
            def sequence() -> None:
                service.drain()
                server.shutdown()
            threading.Thread(target=sequence, daemon=True,
                             name="repro-serve-drain").start()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    print(f"repro serve: listening on {config.endpoint()} "
          f"({config.workers} worker(s), "
          f"{config.max_concurrent} concurrent, "
          f"queue {config.max_queue})", file=sys.stderr, flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        # Safety net for abnormal serve_forever exits: the drain
        # sequence is idempotent and the pool tolerates double close.
        if service.begin_shutdown():
            service.drain()
        server.server_close()
        service.pool.terminate()
    print("repro serve: drained and stopped", file=sys.stderr,
          flush=True)
    return 0
