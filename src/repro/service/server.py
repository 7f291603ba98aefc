"""``repro serve``: the HTTP/UDS control plane of the simulation service.

Stdlib-only: a :class:`ThreadingHTTPServer` (TCP on localhost, or a Unix
domain socket for same-host clients) in front of one
:class:`~repro.service.scheduler.Scheduler`.  There is no authentication —
the daemon is designed for localhost/UDS deployment behind whatever
ingress the operator trusts.

Control API (all bodies JSON)::

    GET    /healthz               liveness + drain state
    GET    /metrics               Prometheus exposition: service counters
                                  merged with the fleet's run telemetry
    GET    /v1/stats              scheduler stats as JSON
    POST   /v1/jobs               submit a run or sweep grid -> job id
    GET    /v1/jobs               list jobs
    GET    /v1/jobs/<id>          job status
    POST   /v1/jobs/<id>/cancel   cancel (DELETE /v1/jobs/<id> works too)
    GET    /v1/jobs/<id>/result   records of a finished job (409 otherwise)
    GET    /v1/jobs/<id>/events   Server-Sent Events progress stream
    POST   /v1/admin/drain        begin a graceful drain (also SIGTERM/SIGINT)

Error mapping: malformed payloads are 400, unknown jobs 404, results of
unfinished jobs 409, submissions during drain 503.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.service.jobs import Job
from repro.service.scheduler import Scheduler, ServiceDraining, UnknownJob
from repro.telemetry.core import merge_snapshots
from repro.telemetry.export import snapshot_from_source, to_prometheus

#: Default TCP endpoint (loopback only: the API is unauthenticated).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Largest accepted request body; a ScenarioSpec is a few KB, so anything
#: bigger than this is a client error rather than a legitimate submission.
MAX_BODY = 4 * 1024 * 1024


def _encode(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the scheduler (``self.server.scheduler``)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # ----------------------------------------------------------- plumbing

    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def address_string(self) -> str:  # UDS clients have no (host, port) pair
        if isinstance(self.client_address, str) or not self.client_address:
            return "uds"
        return super().address_string()

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _reply(self, status: int, payload: Any) -> None:
        body = _encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query: Dict[str, str] = {}
        for part in parsed.query.split("&"):
            key, _, value = part.partition("=")
            if key:
                query[key] = value
        return parsed.path.rstrip("/") or "/", query

    # ------------------------------------------------------------- methods

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, query = self._route()
        try:
            if path == "/healthz":
                scheduler = self.scheduler
                self._reply(
                    200,
                    {
                        "status": "draining" if scheduler.draining else "ok",
                        "uptime_s": scheduler.stats()["uptime_s"],
                    },
                )
            elif path == "/metrics":
                self._metrics()
            elif path == "/v1/stats":
                self._reply(200, self.scheduler.stats())
            elif path == "/v1/jobs":
                self._reply(
                    200, {"jobs": [job.describe() for job in self.scheduler.jobs()]}
                )
            elif path.startswith("/v1/jobs/") and path.endswith("/result"):
                self._result(path.split("/")[3])
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                self._events(path.split("/")[3], query)
            elif path.startswith("/v1/jobs/"):
                self._reply(200, self.scheduler.job(path.split("/")[3]).describe())
            else:
                self._error(404, f"no such endpoint: {path}")
        except UnknownJob as exc:
            self._error(404, f"unknown job: {exc.args[0]}")
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, _query = self._route()
        try:
            if path == "/v1/jobs":
                payload = self._body()
                job = self.scheduler.submit(payload)
                self._reply(202, job.describe())
            elif path == "/v1/admin/drain":
                self.server.request_drain()  # type: ignore[attr-defined]
                self._reply(202, {"status": "draining"})
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                self._cancel(path.split("/")[3])
            else:
                self._error(404, f"no such endpoint: {path}")
        except ServiceDraining as exc:
            self._error(503, str(exc))
        except UnknownJob as exc:
            self._error(404, f"unknown job: {exc.args[0]}")
        except (KeyError, ValueError) as exc:
            self._error(400, f"invalid submission: {exc}")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path, _query = self._route()
        try:
            if path.startswith("/v1/jobs/"):
                self._cancel(path.split("/")[3])
            else:
                self._error(404, f"no such endpoint: {path}")
        except UnknownJob as exc:
            self._error(404, f"unknown job: {exc.args[0]}")

    # ------------------------------------------------------------ handlers

    def _cancel(self, job_id: str) -> None:
        cancelled = self.scheduler.cancel(job_id)
        job = self.scheduler.job(job_id)
        status = 200 if cancelled else 409
        self._reply(status, {"cancelled": cancelled, **job.describe()})

    def _result(self, job_id: str) -> None:
        records = self.scheduler.result(job_id)
        if records is None:
            job = self.scheduler.job(job_id)
            self._error(409, f"job {job_id} is {job.state}; result not ready")
            return
        job = self.scheduler.job(job_id)
        if job.total == 1 and len(records) == 1:
            self._reply(200, records[0])
        else:
            self._reply(200, {"id": job_id, "records": records})

    def _metrics(self) -> None:
        scheduler = self.scheduler
        sections = [scheduler.telemetry_snapshot()]
        # Fleet view: every completed record's run.telemetry section (present
        # when the daemon runs with telemetry enabled) merged into one
        # exposition alongside the service's own counters.
        if os.path.exists(scheduler.store.path):
            fleet = snapshot_from_source(scheduler.store.path)
            if fleet:
                sections.append(fleet)
        body = to_prometheus(merge_snapshots(sections)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _events(self, job_id: str, query: Dict[str, str]) -> None:
        """Server-Sent Events: replay the job's event log, then follow live.

        Events are sequence-numbered (``id:`` line), so ordering is
        verifiable client-side and reconnects can resume via ``?from=`` or
        the standard ``Last-Event-ID`` header.  The stream ends after the
        terminal state event.
        """
        job = self.scheduler.job(job_id)
        start = 0
        last_id = self.headers.get("Last-Event-ID")
        if last_id is not None and last_id.isdigit():
            start = int(last_id) + 1
        if query.get("from", "").isdigit():
            start = int(query["from"])
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        next_seq = start
        try:
            while True:
                with job.cond:
                    while len(job.events) <= next_seq and not job.terminal:
                        job.cond.wait(timeout=1.0)
                    batch = job.events[next_seq:]
                    terminal = job.terminal
                for event in batch:
                    data = {k: v for k, v in event.items() if k not in ("seq", "event")}
                    chunk = (
                        f"id: {event['seq']}\n"
                        f"event: {event['event']}\n"
                        f"data: {json.dumps(data, sort_keys=True)}\n\n"
                    )
                    self.wfile.write(chunk.encode("utf-8"))
                    next_seq = event["seq"] + 1
                self.wfile.flush()
                if terminal and next_seq >= len(job.events):
                    break
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.close_connection = True


class ServiceTCPServer(ThreadingHTTPServer):
    """Loopback TCP transport for the service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], scheduler: Scheduler, verbose: bool):
        self.scheduler = scheduler
        self.verbose = verbose
        self._drain_cb = None
        super().__init__(address, ServiceHandler)

    def request_drain(self) -> None:
        if self._drain_cb is not None:
            self._drain_cb()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceUnixServer(ServiceTCPServer):
    """Unix-domain-socket transport (``--uds /path/sock``)."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # A previous daemon that crashed leaves a stale socket file behind;
        # binding over it is the expected restart path.
        path = self.server_address
        if isinstance(path, (bytes, str)) and os.path.exists(path):
            os.unlink(path)
        self.socket.bind(path)
        self.server_name = "uds"
        self.server_port = 0

    def server_close(self) -> None:
        super().server_close()
        path = self.server_address
        if isinstance(path, (bytes, str)) and os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - cleanup is best-effort
                pass

    @property
    def endpoint(self) -> str:
        return f"unix://{self.server_address}"


class ReproService:
    """Scheduler plus HTTP transport plus lifecycle (drain on signal).

    ``start()`` runs the server in a background thread (tests, the ledger);
    ``run()`` blocks until SIGTERM/SIGINT or an admin drain, then shuts
    down gracefully: refuse new submissions with 503, let in-flight
    simulations finish, checkpoint the journal, close the sockets.
    """

    def __init__(
        self,
        data_dir: str,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        uds: Optional[str] = None,
        workers: int = 2,
        max_retries: int = 2,
        verbose: bool = False,
    ):
        self.scheduler = Scheduler(
            data_dir, workers=workers, max_retries=max_retries, verbose=verbose
        )
        if uds is not None:
            self.server: ServiceTCPServer = ServiceUnixServer(
                uds, self.scheduler, verbose
            )
        else:
            self.server = ServiceTCPServer((host, port), self.scheduler, verbose)
        self._stop = threading.Event()
        self.server._drain_cb = self._stop.set
        self._thread: Optional[threading.Thread] = None

    @property
    def endpoint(self) -> str:
        return self.server.endpoint

    def start(self) -> "ReproService":
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def run(self, install_signals: bool = True) -> int:
        if install_signals:

            def _on_signal(signum: int, _frame: Any) -> None:
                print(
                    f"received {signal.Signals(signum).name}; draining "
                    "(refusing new submissions, finishing in-flight runs)",
                    file=sys.stderr,
                )
                self._stop.set()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self.start()
        print(f"repro serve listening on {self.endpoint}", file=sys.stderr)
        print(
            f"  data dir {self.scheduler.data_dir} "
            f"(journal, cache, store), {self.scheduler.workers} worker(s)",
            file=sys.stderr,
        )
        self._stop.wait()
        self.shutdown()
        print("drained; journal checkpointed", file=sys.stderr)
        return 0

    def shutdown(self, timeout: Optional[float] = 60.0) -> None:
        """Graceful stop: drain the pool, checkpoint, close the transport."""
        self.scheduler.drain(timeout=timeout)
        self.server.shutdown()
        self.server.server_close()
        self.scheduler.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
