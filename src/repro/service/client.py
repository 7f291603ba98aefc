"""Client for the ``repro serve`` control API (stdlib ``http.client``).

Server addresses are either TCP (``http://127.0.0.1:8642``) or a Unix
domain socket (``unix:///path/to/repro.sock``); the environment variable
``REPRO_SERVER`` supplies the default for the CLI subcommands.

The client is deliberately thin: every method opens one connection, speaks
one request and returns parsed JSON.  :meth:`ServiceClient.watch` is the
exception — it holds the connection open and yields the job's Server-Sent
Events as ``(event, data)`` pairs until the job reaches a terminal state.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service import DEFAULT_SERVER, ENV_SERVER


def default_server() -> str:
    return os.environ.get(ENV_SERVER, "").strip() or DEFAULT_SERVER


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


class ServiceClient:
    """Talk to one ``repro serve`` daemon."""

    def __init__(self, server: Optional[str] = None, timeout: float = 300.0):
        self.server = server or default_server()
        self.timeout = timeout
        if self.server.startswith("unix://"):
            self._uds: Optional[str] = self.server[len("unix://") :]
        elif self.server.startswith("http://"):
            self._uds = None
        else:
            raise ValueError(
                f"server must be http://host:port or unix:///path, got {self.server!r}"
            )

    # ------------------------------------------------------------ transport

    def _connection(self, timeout: Optional[float] = None) -> http.client.HTTPConnection:
        timeout = self.timeout if timeout is None else timeout
        if self._uds is not None:
            return _UnixHTTPConnection(self._uds, timeout=timeout)
        hostport = self.server[len("http://") :]
        host, _, port = hostport.partition(":")
        return http.client.HTTPConnection(
            host, int(port) if port else 80, timeout=timeout
        )

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        conn = self._connection()
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode("utf-8", errors="replace")
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                data = {"raw": raw}
            return response.status, data
        finally:
            conn.close()

    def _expect(self, status: int, data: Any, *ok: int) -> Any:
        if status not in ok:
            message = data.get("error", str(data)) if isinstance(data, dict) else str(data)
            raise ServiceError(status, message)
        return data

    # ------------------------------------------------------------- commands

    def health(self) -> Dict[str, Any]:
        return self._expect(*self.request("GET", "/healthz"), 200)

    def stats(self) -> Dict[str, Any]:
        return self._expect(*self.request("GET", "/v1/stats"), 200)

    def metrics(self) -> str:
        """Raw Prometheus exposition text from ``/metrics``."""
        conn = self._connection()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read().decode("utf-8", errors="replace")
            if response.status != 200:
                raise ServiceError(response.status, raw)
            return raw
        finally:
            conn.close()

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a run/sweep payload (see service.jobs.expand_payload)."""
        return self._expect(*self.request("POST", "/v1/jobs", payload), 202)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._expect(*self.request("GET", "/v1/jobs"), 200)["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._expect(*self.request("GET", f"/v1/jobs/{job_id}"), 200)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._expect(
            *self.request("POST", f"/v1/jobs/{job_id}/cancel"), 200, 409
        )

    def result(self, job_id: str) -> Any:
        """The finished job's record (single run) or ``{"records": [...]}``."""
        return self._expect(*self.request("GET", f"/v1/jobs/{job_id}/result"), 200)

    def drain(self) -> Dict[str, Any]:
        return self._expect(*self.request("POST", "/v1/admin/drain"), 202)

    # ------------------------------------------------------------ streaming

    def watch(
        self, job_id: str, from_seq: int = 0, timeout: Optional[float] = None
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield the job's SSE events as ``(event, data)`` until terminal.

        ``data`` carries the decoded JSON payload plus the event's sequence
        number under ``"seq"``.  The iterator ends when the server closes
        the stream (after the terminal ``state`` event).
        """
        conn = self._connection(timeout=timeout if timeout is not None else self.timeout)
        try:
            conn.request(
                "GET",
                f"/v1/jobs/{job_id}/events?from={from_seq}",
                headers={"Accept": "text/event-stream"},
            )
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read().decode("utf-8", errors="replace")
                try:
                    message = json.loads(raw).get("error", raw)
                except json.JSONDecodeError:
                    message = raw
                raise ServiceError(response.status, message)
            event: Dict[str, Any] = {}
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\n")
                if line.startswith("id:"):
                    event["seq"] = int(line[3:].strip())
                elif line.startswith("event:"):
                    event["event"] = line[6:].strip()
                elif line.startswith("data:"):
                    event["data"] = json.loads(line[5:].strip())
                elif line == "" and event:
                    data = event.get("data", {})
                    if "seq" in event:
                        data = {**data, "seq": event["seq"]}
                    yield event.get("event", "message"), data
                    event = {}
        finally:
            conn.close()

    def wait(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final status view.

        Uses the SSE stream when possible and falls back to polling if the
        stream drops (e.g. the daemon restarted mid-job).
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            status = self.job(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            try:
                for event, data in self.watch(job_id, timeout=timeout):
                    if event == "state" and data.get("state") in (
                        "done", "failed", "cancelled"
                    ):
                        return self.job(job_id)
            except (ServiceError, OSError, http.client.HTTPException):
                pass
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} not finished after {timeout} s")
            time.sleep(poll)
