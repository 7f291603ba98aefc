"""The one run executor behind ``repro run``, sweeps, reports and the service.

Every path that turns a :class:`~repro.scenarios.sweep.SweepRun` into a
record submits it here.  :meth:`RunExecutor.submit` returns a stdlib
:class:`~concurrent.futures.Future` resolving to an :class:`Outcome`; on
the way a unit is, in this order,

1. answered from the :class:`~repro.scenarios.cache.ResultCache` when its
   spec fingerprint is cached — no simulation, no pool;
2. *coalesced* onto the simulation of the same fingerprint when one is
   queued or in flight — one simulation, every waiter gets its result;
3. dispatched to a worker process, at most :attr:`RunExecutor.window` units
   at a time (``jobs == 1`` executes inline: no pool, no thread);
4. retried in a worker, up to ``max_retries`` times, when it raised;
5. resubmitted to a rebuilt pool when a worker process died (OOM kill,
   segfault): the death breaks every in-flight future of the pool, the
   first one to report is charged an attempt, the rest ride along free —
   after ``max_retries`` charges a unit fails instead of going round again,
   so one poisonous run cannot wedge its clients;
6. inserted into the cache.

The executor returns *pure* records; :meth:`Outcome.stamp` turns one into
the record of a particular run — the single place a ``run`` block and its
telemetry section get attached.  What the clients keep is what differs
between them: run order, store and manifest in the sweep runner; jobs,
journal and events in the service scheduler; figures in the report runner.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import zip_longest
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional

from repro.scenarios.cache import ResultCache
from repro.scenarios.sweep import (
    SweepRun,
    failure_record,
    pool_execute,
    resolve_spec_cached,
    run_fingerprint,
    stamp_record,
)

#: Units kept in flight per worker process: enough that a worker never waits
#: for the next unit and that one slow unit at the head of an ordered
#: consumer (:meth:`RunExecutor.map`) does not idle the other workers.
WINDOW = 4


@dataclass(frozen=True)
class Outcome:
    """How one submitted unit ended."""

    fingerprint: str
    #: ``"executed"`` (this submission caused the simulation), ``"cached"``
    #: or ``"coalesced"`` (it shared the simulation of an earlier one).
    source: str
    #: The pure record, or None when the unit failed terminally.
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Seconds workers spent on the unit, summed over its attempts.
    wall: float = 0.0
    #: Attempts charged to the unit; 0 when nothing was simulated for it.
    attempts: int = 0
    #: Telemetry snapshot of the simulation (source ``"executed"`` only).
    telemetry: Optional[Dict[str, Any]] = None

    def stamp(self, run: SweepRun) -> Dict[str, Any]:
        """The record of ``run``: provenance-stamped, or its failure entry."""
        if self.record is None:
            return failure_record(run, self.error, self.attempts - 1)
        return stamp_record(
            dict(self.record),
            run,
            resolve_spec_cached(run),
            self.fingerprint,
            self.telemetry,
        )


@dataclass
class _Task:
    """One distinct simulation and the futures waiting on it."""

    run: SweepRun
    waiters: List[Future] = field(default_factory=list)
    failures: int = 0
    wall: float = 0.0


class RunExecutor:
    """Fingerprint-keyed execution of runs; see the module docstring.

    Parameters
    ----------
    jobs:
        Worker processes.  With one job, units execute inside
        :meth:`submit` unless ``isolated``.
    max_retries:
        Retries per unit (raised exception or dead worker) before it fails.
    cache:
        Consulted before, and filled after, every simulation.
    isolated:
        Use a worker process even for ``jobs == 1``: a daemon must outlive
        a unit that kills the process it runs in.
    """

    def __init__(
        self,
        jobs: int = 1,
        max_retries: int = 2,
        cache: Optional[ResultCache] = None,
        isolated: bool = False,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.max_retries = max_retries
        self.cache = cache
        self.inline = jobs == 1 and not isolated
        #: Units in flight at once — and how far :meth:`map` runs ahead.
        self.window = 1 if self.inline else jobs * WINDOW
        #: Pools replaced after a worker process died.
        self.pool_rebuilds = 0
        self._lock = threading.Condition()
        self._tasks: Dict[str, _Task] = {}
        self._pending: Deque[str] = deque()
        self._inflight: Dict[str, Future] = {}
        self._generation = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False

    def __enter__(self) -> "RunExecutor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    @property
    def pending(self) -> int:
        """Distinct simulations queued behind the window."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Distinct simulations handed to the pool and not yet back."""
        return len(self._inflight)

    # -------------------------------------------------------------- clients

    def submit(self, run: SweepRun, fingerprint: Optional[str] = None) -> "Future[Outcome]":
        """Queue one unit; the future resolves to its :class:`Outcome`.

        ``fingerprint`` spares callers that already hold it a second
        computation.  ``Future.cancel()`` succeeds until the unit is
        dispatched; a simulation all of whose waiters cancelled never
        runs.  Submitting to a closed executor returns a cancelled future.
        """
        if fingerprint is None:
            fingerprint = run_fingerprint(run)
        future: "Future[Outcome]" = Future()
        # Looked up before taking the lock: a hit decodes a whole record, and
        # the service's handler threads should not queue behind each other's.
        pure = None
        if self.cache is not None and not self._closed:
            pure = self.cache.get(fingerprint)
        with self._lock:
            if self._closed:
                future.cancel()
                return future
            if (
                pure is None
                and self.cache is not None
                and fingerprint not in self._tasks
                and fingerprint in self.cache
            ):
                # Settled between the lookup and the lock: still one simulation.
                pure = self.cache.get(fingerprint)
            if pure is not None:
                future.set_result(Outcome(fingerprint, "cached", pure))
                return future
            if not self.inline:
                task = self._tasks.get(fingerprint)
                if task is None:
                    task = self._tasks[fingerprint] = _Task(run)
                    self._pending.append(fingerprint)
                elif fingerprint in self._inflight:
                    future.set_running_or_notify_cancel()
                task.waiters.append(future)
                self._dispatch()
                return future
        # Inline: simulate here and now, outside the lock.
        task = _Task(run)
        outcome = None
        while outcome is None:
            outcome = self._settle(fingerprint, task, *pool_execute(run))
        future.set_result(outcome)
        return future

    def map(
        self, runs: Iterable[SweepRun], fingerprints: Iterable[str] = ()
    ) -> Iterator[Outcome]:
        """Outcomes in the order of ``runs``, submitted a window ahead.

        ``fingerprints``, when the caller holds them, parallels ``runs``.
        """
        ahead: Deque[Future] = deque()
        for run, fingerprint in zip_longest(runs, fingerprints):
            ahead.append(self.submit(run, fingerprint))
            if len(ahead) >= self.window:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()

    def close(self, wait: bool = False, timeout: Optional[float] = None) -> bool:
        """Stop dispatching, cancel what is queued and release the pool.

        With ``wait`` the in-flight units are given ``timeout`` seconds to
        finish and resolve their futures first.  Units still in flight
        afterwards are abandoned: their futures never resolve.  Returns
        True when nothing was abandoned.
        """
        with self._lock:
            self._closed = True
            queued = [f for fp in self._pending for f in self._tasks.pop(fp).waiters]
            self._pending.clear()
            if wait:
                self._lock.wait_for(lambda: not self._inflight, timeout)
            idle = not self._inflight
            self._generation += 1
            pool, self._pool = self._pool, None
        for future in queued:
            future.cancel()
        if pool is not None:
            # Outside the lock: joining the pool waits for its callbacks,
            # and those take the lock.
            pool.shutdown(wait=idle, cancel_futures=True)
        return idle

    # ------------------------------------------------------------ internals

    def _settle(
        self,
        fingerprint: str,
        task: _Task,
        record: Optional[Dict[str, Any]],
        snapshot: Optional[Dict[str, Any]],
        error: Optional[str],
        wall: float,
    ) -> Optional[Outcome]:
        """Account one attempt; the unit's outcome, or None to go again."""
        task.wall += wall
        if error is not None:
            task.failures += 1
            if task.failures <= self.max_retries:
                return None
            return Outcome(
                fingerprint, "executed", error=error, wall=task.wall, attempts=task.failures
            )
        if self.cache is not None:
            self.cache.put(fingerprint, record)
        return Outcome(
            fingerprint, "executed", record, None, task.wall, task.failures + 1, snapshot
        )

    def _dispatch(self) -> None:
        """Fill the window from the queue (lock held)."""
        while self._pending and len(self._inflight) < self.window and not self._closed:
            fingerprint = self._pending.popleft()
            task = self._tasks[fingerprint]
            task.waiters = [
                f for f in task.waiters if f.running() or f.set_running_or_notify_cancel()
            ]
            if not task.waiters:  # every waiter cancelled before dispatch
                del self._tasks[fingerprint]
                continue
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            try:
                attempt = self._pool.submit(pool_execute, task.run)
            except RuntimeError as exc:
                # The pool broke and refuses work before any of its futures
                # told us: hand the refusal to the one break handler below.
                attempt = Future()
                attempt.set_exception(exc)
            self._inflight[fingerprint] = attempt
            attempt.add_done_callback(
                partial(self._on_done, fingerprint, self._generation)
            )

    def _on_done(self, fingerprint: str, generation: int, attempt: Future) -> None:
        """One attempt came back (pool thread): settle, retry or rebuild."""
        with self._lock:
            if generation != self._generation:
                return  # from a pool that has since been replaced or closed
            del self._inflight[fingerprint]
            task = self._tasks[fingerprint]
            try:
                result = attempt.result()
            except BrokenProcessPool:
                # Every future of the dead pool breaks; this one, the first
                # to report, is charged.  The others go back to the head of
                # the queue and their stale callbacks are ignored above.
                self.pool_rebuilds += 1
                self._generation += 1
                self._pool = None
                self._pending.extendleft(reversed(self._inflight))
                self._inflight.clear()
                result = (None, None, "worker process died while executing this run", 0.0)
            except Exception as exc:  # e.g. a result that does not unpickle
                result = (None, None, f"{type(exc).__name__}: {exc}", 0.0)
            outcome = self._settle(fingerprint, task, *result)
            if outcome is None:
                self._pending.appendleft(fingerprint)
                waiters: List[Future] = []
            else:
                del self._tasks[fingerprint]
                waiters = task.waiters
            self._dispatch()
            if not self._inflight:
                self._lock.notify_all()
        for position, future in enumerate(waiters):
            if position:
                outcome = replace(outcome, source="coalesced", wall=0.0, telemetry=None)
            future.set_result(outcome)
