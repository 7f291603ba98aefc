"""Discrete-event simulation engine.

The engine is a classic calendar-queue (binary-heap) event loop.  Events are
callbacks scheduled at absolute simulation times.  Scheduling returns an
:class:`EventHandle` that can be cancelled, which is how protocol timers
(retransmission timers, feedback timers, CLR timeouts) are implemented.

Hot-path design notes
---------------------

* The heap entry is the handle: one list ``[time, seq, callback, args]``,
  compared at C speed and never past ``seq`` (``(time, seq)`` is unique).
  A kept timer is an :class:`EventHandle`, a ``list`` subclass;
  :meth:`Simulator.call_at` pushes a plain list (link arrivals and drains).
  The callback slot is blanked (None) when the event fires and when it is
  cancelled, so an entry is pending exactly while its slot is set.
* A multicast fan-out skips the heap.  While :meth:`Simulator.fan_out`
  runs, scheduling appends to a side list; at the end the list is merged
  into the *lane*, a second source of the same entries kept sorted in
  descending order (the next entry is ``lane[-1]``).  One sort of a
  receiver's worth of arrivals replaces a heap push and a heap pop per
  receiver.  Every pending entry lives in exactly one of the heap and the
  lane, and the run loop takes whichever head is smaller, so the pop order
  is the single-heap order by construction.
* Cancellation is lazy (the blanked entry stays where it is and is skipped
  when it surfaces), but the simulator counts live cancelled entries and
  filters both sources once more than half of all entries are dead.
  Compaction keeps the surviving entries, re-heapifies the heap and leaves
  the lane sorted, so the pop order of surviving events is unchanged.
* The run loop takes one event per step.  (A same-timestamp inner batch,
  saving the ``until`` check and the clock write for ties, measured slower
  than one flat step once two sources are read.)
* There is one run loop.  Telemetry does not branch inside it: when a sink
  is attached, the loop's hoisted ``pop`` and ``lane_pop`` are probes that
  pop and read (:func:`_run_probe`); otherwise they are ``heappop`` and
  ``list.pop``.
* :meth:`Simulator.reschedule` (and its absolute-time form
  :meth:`Simulator.reschedule_at`) is a fast path for the dominant
  recurring-timer pattern (media senders, CBR sources): when the previous
  handle has already fired it is reused in place, so a periodic timer costs
  zero allocations per tick.
* Packet ids are drawn from a per-simulator counter
  (:meth:`Simulator.next_packet_uid`), never from module-level state, so two
  runs in one process produce identical traces.

The engine owns a seeded :class:`random.Random` instance so that every
simulation run is reproducible from its seed.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import active as _telemetry_active

#: Minimum number of live cancelled heap entries before compaction is
#: considered; below this the dead tuples are cheaper than a rebuild.
_COMPACT_MIN_DEAD = 64

#: Memoised callback -> event-category name map shared by telemetry-enabled runs.
#: Bounded defensively: scenario callbacks are a small fixed set of bound
#: methods, but ad-hoc lambdas in tests could otherwise grow it forever.
_CATEGORY_MEMO: Dict[Any, str] = {}
_CATEGORY_MEMO_MAX = 4096


def _category_name(func: Any) -> str:
    """Stable display name (``module.Class.method``) for an event callback."""
    name = _CATEGORY_MEMO.get(func)
    if name is None:
        module = getattr(func, "__module__", "") or ""
        qual = getattr(func, "__qualname__", None) or getattr(func, "__name__", None)
        if qual is None:  # pragma: no cover - exotic callables only
            qual = type(func).__name__
        name = f"{module.rsplit('.', 1)[-1]}.{qual}" if module else str(qual)
        if len(_CATEGORY_MEMO) >= _CATEGORY_MEMO_MAX:
            _CATEGORY_MEMO.clear()
        _CATEGORY_MEMO[func] = name
    return name


_Pop = Callable[[list], Any]


def _run_probe(tel: Any, sim: "Simulator") -> Tuple[_Pop, _Pop, Callable[[], None]]:
    """Telemetry's view of one ``run()`` call: ``(pop, lane_pop, finish)``.

    ``pop`` and ``lane_pop`` stand in for ``heappop`` and ``list.pop`` in the
    run loop and read what they pop (per-callback event counts,
    same-timestamp batch sizes, the peak of pending entries in heap and lane
    together); ``finish`` emits them with the wall-clock accounting.  Pure
    reads, so a telemetry-enabled run produces byte-identical records.
    """
    counts: Dict[Any, int] = {}
    batch = 0
    batch_time = None
    heap_peak = sim._entries()
    start_now = sim.now
    observe = tel.observe
    wall_start = perf_counter()

    def read(entry: list) -> None:
        nonlocal batch, batch_time, heap_peak
        time, _seq, callback, _args = entry
        if callback is None:  # a cancelled entry
            return
        func = getattr(callback, "__func__", callback)
        counts[func] = counts.get(func, 0) + 1
        if time == batch_time:
            batch += 1
            return
        if batch:
            observe("engine.batch_size", batch)
        batch = 1
        batch_time = time
        pending = sim._entries()
        if pending >= heap_peak:
            heap_peak = pending + 1

    def pop(queue: list) -> None:
        read(heappop(queue))

    def lane_pop(lane: list) -> None:
        read(lane.pop())

    def finish() -> None:
        wall = perf_counter() - wall_start
        if batch:
            observe("engine.batch_size", batch)
        for func, n in counts.items():
            tel.inc("engine.events", n, category=_category_name(func))
        tel.gauge_max("engine.heap_peak", max(heap_peak, sim._entries()))
        tel.timing("engine.run", wall)
        sim_elapsed = sim.now - start_now
        if sim_elapsed > 0:
            tel.timing("engine.wall_per_sim_s", wall / sim_elapsed)

    return pop, lane_pop, finish


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly."""


class EventHandle(list):
    """A kept timer: the queued entry ``[time, seq, callback, args]`` itself.

    ``_sim`` is the owning simulator until :meth:`cancel`, which leaves None
    when it cancelled a pending event and False when the event had fired.
    A cancelled entry stays queued until it surfaces or the queue compacts.
    """

    __slots__ = ("_sim",)

    def cancel(self) -> None:
        """Cancel the event; a cancelled event never fires."""
        sim = self._sim
        if sim:
            self._sim = False if self[2] is None else None
            sim.cancel(self)

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired or cancelled."""
        return self[2] is not None

    @property
    def fired(self) -> bool:
        return self[2] is None and self._sim is not None

    @property
    def cancelled(self) -> bool:
        return not self._sim

    time = property(itemgetter(0))
    args = property(itemgetter(3))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(t={self[0]:.6f}, {state}, {self[2]!r})"


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  Two runs with
        the same seed and the same scheduling pattern produce identical
        results.
    """

    def __init__(self, seed: Optional[int] = None):
        #: Current simulation time.  A plain attribute (not a property) for
        #: hot-path speed; treat it as read-only — only the run loop may
        #: advance it.
        self.now = 0.0
        self._queue: List[list] = []
        #: The fan-out lane: entries sorted in descending order, next at -1.
        self._lane: List[list] = []
        #: The side list while a fan-out scope is open, else None.
        self._fanout: Optional[List[list]] = None
        self._seq = 0
        self._dead = 0  # live cancelled entries still in the heap or lane
        self._running = False
        self._stopped = False
        self._packet_uid = 0
        self._name_counters: dict = {}
        self.rng = random.Random(seed)
        self.events_processed = 0
        #: Always-on cheap health counters (a couple of int ops on rare or
        #: already-branchy paths; the telemetry layer reads them post-run).
        self.compactions = 0
        self.reschedule_fast_hits = 0
        #: Entries merged into the fan-out lane (counted once per merge).
        self.lane_events = 0
        #: Telemetry sink captured at construction time: the per-run scope
        #: opened by ``run_scenario`` when ``REPRO_TELEMETRY`` is set, else
        #: None.  ``run()`` pops through a reading probe when it is set and
        #: through bare ``heappop`` when it is None, so the disabled cost is
        #: one check per run() call.
        self.telemetry = _telemetry_active()

    # ------------------------------------------------------------ identifiers

    def next_packet_uid(self) -> int:
        """Allocate the next packet id of this simulator (deterministic)."""
        uid = self._packet_uid
        self._packet_uid = uid + 1
        return uid

    def next_index(self, kind: str) -> int:
        """Per-simulator counter for deterministic default names.

        Replaces module-level ``itertools.count()`` naming (whose values
        depend on how many objects earlier runs in the same process
        created): each simulator counts from zero per ``kind``.
        """
        counters = self._name_counters
        index = counters.get(kind, 0)
        counters[kind] = index + 1
        return index

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if not time >= self.now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle((time, seq, callback, args))
        handle._sim = self
        side = self._fanout
        if side is None:
            heappush(self._queue, handle)
        else:
            side.append(handle)
        return handle

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> list:
        """:meth:`schedule_at` for events nobody keeps a handle to: returns
        the bare entry, which :meth:`cancel` cancels."""
        if not time >= self.now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        side = self._fanout
        if side is None:
            heappush(self._queue, entry)
        else:
            side.append(entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Cancel a queued entry; a no-op once it has fired or was cancelled."""
        if entry[2] is not None:
            entry[2] = None
            dead = self._dead + 1
            self._dead = dead
            if dead > _COMPACT_MIN_DEAD and dead * 2 > self._entries():
                self._compact()

    def fan_out(self, calls: Sequence[Callable[[Any], Any]], arg: Any) -> None:
        """Call ``call(arg)`` for each of ``calls`` in one fan-out scope.

        Events scheduled meanwhile go into a side list that is sorted once
        and merged into the lane when the scope closes (see the module
        notes); the run loop still fires them in ``(time, seq)`` order.  A
        scope does not nest, and :meth:`peek` does not see the scope's own
        entries until it closes.
        """
        if self._fanout is not None:
            raise SimulationError("fan-out scopes do not nest")
        side = self._fanout = []
        try:
            for call in calls:
                call(arg)
        finally:
            self._fanout = None
            if side:
                lane = self._lane
                lane += side
                lane.sort(reverse=True)
                self.lane_events += len(side)

    def reschedule(
        self,
        handle: Optional[EventHandle],
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Re-arm a (possibly fired) timer ``delay`` seconds from now.

        See :meth:`reschedule_at`, which this is the relative-time form of.
        """
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.reschedule_at(handle, self.now + delay, callback, *args)

    def reschedule_at(
        self,
        handle: Optional[EventHandle],
        time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Re-arm a (possibly fired) timer at absolute simulation ``time``.

        This is the fast path for recurring timers.  If ``handle`` already
        fired (the common case: a timer re-arming itself from its own
        callback) the same object is reused without allocating; the caller
        gets the identical handle back, freshly pending.  A still-pending
        handle is cancelled first; ``None`` simply schedules.  In every case
        the returned handle behaves exactly as if ``schedule_at`` had been
        called, including its position in the tie-breaking order.

        The absolute form exists because ``now + (time - now)`` is not
        ``time`` in floating point: a retransmission timer must fire at
        exactly its deadline.
        """
        if not time >= self.now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        if handle is not None:
            if handle[2] is None and handle._sim is self:  # fired, not cancelled
                self.reschedule_fast_hits += 1
                seq = self._seq
                self._seq = seq + 1
                handle[:] = time, seq, callback, args
                heappush(self._queue, handle)
                return handle
            handle.cancel()
        return self.schedule_at(time, callback, *args)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    # ------------------------------------------------------------ queue upkeep

    def _entries(self) -> int:
        """Entries held in the heap, the lane and an open fan-out's side list."""
        side = self._fanout
        return len(self._queue) + len(self._lane) + (len(side) if side else 0)

    def _compact(self) -> None:
        """Drop cancelled entries from every source and rebuild the heap.

        Each source is filtered in place, so the run loop's references stay
        valid.  Filtering preserves each surviving entry and the lane's
        order, and ``heapify`` orders by the same key, so the pop order of
        surviving events is identical to the lazy-deletion order.
        """
        for entries in (self._queue, self._lane, self._fanout or []):
            entries[:] = [entry for entry in entries if entry[2] is not None]
        heapify(self._queue)
        self._dead = 0
        self.compactions += 1

    def peek(self) -> Optional[float]:
        """Return the time of the next pending event, or None if empty."""
        queue = self._queue
        lane = self._lane
        while True:
            if lane and (not queue or lane[-1] < queue[0]):
                if lane[-1][2] is not None:
                    return lane[-1][0]
                lane.pop()
            elif queue:
                if queue[0][2] is not None:
                    return queue[0][0]
                heappop(queue)
            else:
                return None
            self._dead -= 1

    # ------------------------------------------------------------ run loop

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Simulation time at which to stop.  Events scheduled at exactly
            ``until`` are *not* executed.  If None, runs until the event queue
            drains.
        max_events:
            Safety limit on the number of events processed in this call.

        Returns
        -------
        float
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        # Hoisted: the dominant calls of the loop.  Telemetry swaps in
        # probes that pop and read; the loop itself is the same either way.
        tel = self.telemetry
        pop, lane_pop, finish = (
            (heappop, list.pop, None) if tel is None else _run_probe(tel, self)
        )
        # Both sources are only ever modified in place (compaction
        # included), so these references stay valid across callbacks.
        queue = self._queue
        lane = self._lane
        limit = max_events if max_events is not None else float("inf")
        processed = 0
        try:
            while not self._stopped:
                # One event per step, from whichever source holds the
                # smaller (time, seq).
                if lane and (not queue or lane[-1] < queue[0]):
                    entry = lane[-1]
                    time, _seq, callback, args = entry
                    if callback is None:
                        lane_pop(lane)
                        self._dead -= 1
                        continue
                    if until is not None and time >= until:
                        self.now = until
                        break
                    lane_pop(lane)
                elif queue:
                    entry = queue[0]
                    time, _seq, callback, args = entry
                    if callback is None:
                        pop(queue)
                        self._dead -= 1
                        continue
                    if until is not None and time >= until:
                        self.now = until
                        break
                    pop(queue)
                else:
                    if until is not None:
                        self.now = max(self.now, until)
                    break
                self.now = time
                entry[2] = None
                callback(*args)
                processed += 1
                if processed >= limit:
                    break
        finally:
            self._running = False
            self.events_processed += processed
            if finish is not None:
                finish()
        return self.now
