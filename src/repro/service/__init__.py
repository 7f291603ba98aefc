"""Long-running simulation service: daemon, scheduler, job model, client.

* :mod:`repro.service.server` — ``repro serve``: HTTP/UDS control API with
  SSE progress streaming and Prometheus ``/metrics``,
* :mod:`repro.service.scheduler` — persistent worker pool with fingerprint
  coalescing, result-cache answers and journal-driven crash recovery,
* :mod:`repro.service.jobs` — job state machine and the crash-safe journal,
* :mod:`repro.service.client` — :class:`ServiceClient` used by the
  ``repro submit/status/cancel/watch`` subcommands.

Quick use::

    from repro.service import ReproService, ServiceClient

    service = ReproService("results/service", uds="/tmp/repro.sock").start()
    client = ServiceClient(service.endpoint)
    job = client.submit({"scenario": "fairness", "seed": 3,
                         "params": {"duration": 4.0}})
    client.wait(job["id"])
    record = client.result(job["id"])
"""

from repro._lazy import lazy_exports

# The address the daemon and its clients agree on lives here, so the CLI's
# parser reads it without loading ``http.client`` or the daemon.

#: Environment variable naming the default server for CLI subcommands.
ENV_SERVER = "REPRO_SERVER"
#: Default TCP endpoint (loopback only: the API is unauthenticated).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642
DEFAULT_SERVER = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

_EXPORTS = {
    "repro.service.client": ("ServiceClient", "ServiceError", "default_server"),
    "repro.service.jobs": ("Job", "JobJournal", "expand_payload"),
    "repro.service.scheduler": ("Scheduler", "ServiceDraining", "UnknownJob"),
    "repro.service.server": ("ReproService",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "DEFAULT_SERVER", "ENV_SERVER", *__all__]
