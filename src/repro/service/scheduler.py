"""Job scheduler: jobs, journal and events over the shared run executor.

The scheduler owns the daemon's long-lived state: the job table, the
spec-fingerprint :class:`~repro.scenarios.cache.ResultCache`, the service
:class:`~repro.scenarios.store.ResultStore`, the
:class:`~repro.service.jobs.JobJournal` and one persistent
:class:`~repro.scenarios.executor.RunExecutor` shared by every job.

Execution is the executor's business: units are
:class:`~repro.scenarios.registry.SweepRun` objects submitted by fingerprint,
so anything already cached is answered without touching the pool, two
clients submitting the same ``(spec, seed)`` share one simulation
(*coalescing*, counted in ``service.units_coalesced``), a unit that raises
is retried up to ``max_retries`` times and a worker that dies takes down
only its pool.  The scheduler turns each unit's outcome into what is its
own: a stamped record in the store, a journal line, an SSE event and the
job's state.

Threading model: HTTP handler threads call :meth:`submit`, :meth:`cancel`
and the read accessors; one internal dispatcher thread consumes an event
queue (new units, unit outcomes, drain).  All mutable state is guarded by
one re-entrant lock — the per-event critical sections are tiny compared to
a simulation, so contention is irrelevant.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Tuple

from repro.scenarios.cache import ResultCache, fingerprint_spec
from repro.scenarios.executor import Outcome, RunExecutor
from repro.scenarios.store import ResultStore
from repro.scenarios.sweep import failure_record, resolve_spec_cached, run_fingerprint
from repro.service.jobs import Job, JobJournal, expand_payload
from repro.telemetry.core import Telemetry


class ServiceDraining(RuntimeError):
    """Raised by :meth:`Scheduler.submit` once a drain has begun (HTTP 503)."""


class UnknownJob(KeyError):
    """Raised for job ids the scheduler has never seen (HTTP 404)."""


class Scheduler:
    """Persistent job scheduler behind the HTTP control API."""

    def __init__(
        self,
        data_dir: str,
        workers: int = 2,
        max_retries: int = 2,
        verbose: bool = False,
    ):
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.workers = workers
        self.max_retries = max_retries
        self.verbose = verbose
        self.cache = ResultCache(os.path.join(data_dir, "cache.jsonl"))
        self.store = ResultStore(os.path.join(data_dir, "store.jsonl"))
        self.journal = JobJournal(os.path.join(data_dir, "journal.jsonl"))
        self.telemetry = Telemetry()
        self.started = time.time()

        # Isolated: even one worker is a process of its own, so a unit that
        # kills the process it runs in cannot take the daemon with it.
        # (Also rejects workers < 1.)
        self.executor = RunExecutor(workers, max_retries, self.cache, isolated=True)

        self._lock = threading.RLock()
        self._jobs: "Dict[str, Job]" = {}
        self._results: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self._futures: Dict[str, List[Future]] = {}
        self._counter = 0
        self._draining = False
        self._events: "queue.Queue[Tuple[str, Any]]" = queue.Queue()

        self._recover()
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------ client API

    @property
    def draining(self) -> bool:
        return self._draining

    def submit(self, payload: Dict[str, Any]) -> Job:
        """Validate, journal and enqueue one submission; returns its Job.

        Raises :class:`ServiceDraining` during shutdown and ``ValueError``
        (or ``KeyError`` for unknown scenario names) on malformed payloads.
        """
        if self._draining:
            raise ServiceDraining("service is draining; not accepting submissions")
        units = expand_payload(payload)
        specs = [resolve_spec_cached(unit) for unit in units]
        for spec in specs:
            # A flow on a node the topology lacks is the submitter's mistake:
            # refuse it here rather than journal a unit that can only fail.
            spec.check_endpoints()
        fingerprints = [fingerprint_spec(spec, unit.seed) for spec, unit in zip(specs, units)]
        with self._lock:
            self._counter += 1
            job = Job(
                id=f"j{self._counter:05d}",
                payload=dict(payload),
                units=units,
                fingerprints=fingerprints,
            )
            self._jobs[job.id] = job
            self._results[job.id] = {}
        self.journal.append({"op": "submit", "id": job.id, "payload": job.payload})
        self.telemetry.inc("service.jobs_submitted")
        self.telemetry.inc("service.units_submitted", len(units))
        job.emit("queued", units=job.total)
        self._events.put(("units", (job, list(range(job.total)))))
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns False when it already reached a terminal state.

        Units not yet dispatched are cancelled.  A unit already in flight
        cannot be preempted inside its worker process — its result is still
        cached on arrival (it is a pure record) but no longer delivered to
        this job.  Coalesced units of *other* jobs sharing a fingerprint
        keep waiting and are unaffected.
        """
        with self._lock:
            job = self.job(job_id)
            if job.terminal:
                return False
            futures = self._futures.get(job.id, ())
            self._finalise(job, "cancelled")
            for future in futures:
                future.cancel()  # a no-op for units already dispatched
        return True

    def result(self, job_id: str) -> Optional[List[Dict[str, Any]]]:
        """Stamped records of a finished job in unit order, or None if unfinished.

        After a restart the in-memory record table is empty for replayed
        jobs; records are then reconstructed from the result cache by
        fingerprint — byte-identical, since stamping is deterministic.
        """
        with self._lock:
            job = self.job(job_id)
            if not job.terminal:
                return None
            held = self._results.get(job.id, {})
            records: List[Dict[str, Any]] = []
            for index in sorted(job.done_units | set(job.failed_units)):
                record = held.get(index)
                if record is None:
                    record = self._reconstruct(job, index)
                if record is not None:
                    records.append(record)
            return records

    def _reconstruct(self, job: Job, index: int) -> Optional[Dict[str, Any]]:
        if index in job.failed_units:
            return failure_record(
                job.units[index], job.failed_units[index], self.max_retries
            )
        fingerprint = job.fingerprints[index]
        pure = self.cache.get(fingerprint)
        if pure is None:
            return None
        return Outcome(fingerprint, "cached", pure).stamp(job.units[index])

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "jobs": by_state,
                "pending_tasks": self.executor.pending,
                "inflight_tasks": self.executor.inflight,
                "distinct_tasks": self.executor.pending + self.executor.inflight,
                "cache_entries": len(self.cache),
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "workers": self.workers,
                "draining": self._draining,
                "uptime_s": round(time.time() - self.started, 3),
            }

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Service counters plus live queue gauges (for ``/metrics``)."""
        with self._lock:
            self.telemetry.gauge("service.jobs_active", sum(
                1 for job in self._jobs.values() if not job.terminal
            ))
            self.telemetry.gauge("service.tasks_pending", self.executor.pending)
            self.telemetry.gauge("service.tasks_inflight", self.executor.inflight)
            self.telemetry.gauge("service.cache_entries", len(self.cache))
            if self.executor.pool_rebuilds:
                self.telemetry.counters["service.pool_rebuilds"] = (
                    self.executor.pool_rebuilds
                )
            return self.telemetry.snapshot()

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Rebuild the job table from the journal and requeue unfinished work."""
        entries = JobJournal.replay(self.journal.path)
        if not entries:
            return
        recovered = 0
        for entry in entries:
            op = entry.get("op")
            if op == "submit":
                job_id = entry["id"]
                payload = entry.get("payload") or {}
                job = Job(id=job_id, payload=dict(payload), units=[], fingerprints=[])
                try:
                    job.units = expand_payload(payload)
                    job.fingerprints = [run_fingerprint(unit) for unit in job.units]
                except Exception as exc:  # scenario gone, spec invalid, ...
                    job.units, job.state = [], "failed"
                    job.failed_units[0] = f"unrecoverable payload: {exc}"
                self._jobs[job_id] = job
                self._results[job_id] = {}
            elif op == "unit":
                job = self._jobs.get(entry.get("id"))
                if job is None or not 0 <= entry.get("unit", -1) < job.total:
                    continue
                index = entry["unit"]
                if entry.get("status") == "failed":
                    job.failed_units[index] = entry.get("error", "unknown")
                else:
                    job.done_units.add(index)
                    job.sources[index] = entry.get("source", "executed")
            elif op == "state":
                job = self._jobs.get(entry.get("id"))
                if job is not None and entry.get("state") in (
                    "queued", "running", "done", "failed", "cancelled"
                ):
                    job.state = entry["state"]
                    if job.terminal:
                        job.finished = entry.get("ts")
        for job_id, job in self._jobs.items():
            number = int(job_id[1:]) if job_id[1:].isdigit() else 0
            self._counter = max(self._counter, number)
            if job.terminal:
                continue
            remaining = [
                index
                for index in range(job.total)
                if index not in job.done_units and index not in job.failed_units
            ]
            if not remaining:
                self._finalise(job, "failed" if job.failed_units else "done")
                continue
            recovered += 1
            job.emit(
                "recovered", completed=job.completed, total=job.total, state=job.state
            )
            self._events.put(("units", (job, remaining)))
        if recovered:
            self.telemetry.inc("service.jobs_recovered", recovered)
        if self.verbose and self._jobs:
            import sys

            print(
                f"journal replay: {len(self._jobs)} job(s), "
                f"{recovered} requeued",
                file=sys.stderr,
            )

    # ------------------------------------------------------------ internals

    def _loop(self) -> None:
        while True:
            kind, arg = self._events.get()
            if kind == "stop":
                break
            try:
                if kind == "units":
                    self._handle_units(*arg)
                elif kind == "done":
                    self._unit_done(*arg)
                else:  # "sync": everything queued before it has been handled
                    arg.set()
            except Exception:  # pragma: no cover - keep the dispatcher alive
                import traceback

                traceback.print_exc()

    def _handle_units(self, job: Job, indices: List[int]) -> None:
        with self._lock:
            if job.terminal:
                return
            futures = self._futures.setdefault(job.id, [])
            for index in indices:
                if job.terminal:
                    return
                future = self.executor.submit(job.units[index], job.fingerprints[index])
                if future.done():  # a cache hit: commit it before the state event
                    self._unit_done(job, index, future)
                    continue
                futures.append(future)
                future.add_done_callback(
                    lambda f, index=index: self._events.put(("done", (job, index, f)))
                )
            if not job.terminal and job.state == "queued":
                job.state = "running"
                self.journal.append({"op": "state", "id": job.id, "state": "running"})
                job.emit("state", state="running", completed=job.completed, total=job.total)

    def _unit_done(self, job: Job, index: int, future: Future) -> None:
        """Turn one unit's outcome into store, journal, event and job state."""
        if future.cancelled():  # the job was cancelled, or the executor closed
            return
        outcome: Outcome = future.result()
        if outcome.source != "executed":
            self.telemetry.inc(f"service.units_{outcome.source}")
        else:
            if outcome.attempts > 1:
                self.telemetry.inc("service.units_retried", outcome.attempts - 1)
            if outcome.error is None:
                self.telemetry.inc("service.units_executed")
        with self._lock:
            if job.terminal:
                return
            record = outcome.stamp(job.units[index])
            self._results[job.id][index] = record
            if outcome.error is None:
                self.store.append(record)
                job.done_units.add(index)
                job.sources[index] = outcome.source
                detail = {"status": "done", "source": outcome.source}
                rate = {"tfmcc_mean_bps": record.get("tfmcc_mean_bps")}
            else:
                job.failed_units[index] = outcome.error
                self.telemetry.inc("service.units_failed")
                detail = {"status": "failed", "error": outcome.error}
                rate = {}
            self.journal.append(
                {
                    "op": "unit",
                    "id": job.id,
                    "unit": index,
                    "fingerprint": job.fingerprints[index],
                    **detail,
                }
            )
            job.emit(
                "unit", unit=index, completed=job.completed, total=job.total, **detail, **rate
            )
            if job.completed >= job.total:
                self._finalise(job, "failed" if job.failed_units else "done")

    def _finalise(self, job: Job, state: str) -> None:
        self._futures.pop(job.id, None)
        self.journal.append({"op": "state", "id": job.id, "state": state})
        # Under the job's condition, so an SSE watcher sees the terminal
        # state together with its event and never closes one event short.
        with job.cond:
            job.state = state
            job.finished = time.time()
            job.emit("state", state=state, completed=job.completed, total=job.total)
        self.telemetry.inc(f"service.jobs_{state}")

    # ------------------------------------------------------------- shutdown

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new work, let in-flight units finish, checkpoint the journal.

        Queued-but-undispatched units stay in the journal and resume on the
        next start.  Returns True when the pool drained within ``timeout``.
        """
        self._draining = True
        drained = self.executor.close(wait=True, timeout=timeout)
        handled = threading.Event()
        self._events.put(("sync", handled))
        handled.wait(timeout)
        with self._lock:
            self.journal.compact(self._jobs)
        return drained

    def close(self) -> None:
        """Stop the dispatcher thread and release the journal handle."""
        self._events.put(("stop", None))
        self._thread.join(timeout=10.0)
        self.executor.close()
        self.journal.close()
