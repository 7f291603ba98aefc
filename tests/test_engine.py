"""Tests for the discrete-event engine."""

import math
from functools import partial
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.simulator.engine import EventHandle, SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_run_in_scheduling_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(1.0, lambda: order.append(1))
    sim.schedule(1.0, lambda: order.append(2))
    sim.schedule(1.0, lambda: order.append(3))
    sim.run()
    assert order == [1, 2, 3]


def test_now_advances_to_event_time():
    sim = Simulator(seed=1)
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_later_events():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(2))
    end = sim.run(until=5.0)
    assert fired == [1]
    assert end == 5.0
    # The later event still fires if the run continues.
    sim.run(until=20.0)
    assert fired == [1, 2]


def test_event_cancellation():
    sim = Simulator(seed=1)
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled
    assert not handle.pending


def test_schedule_with_args():
    sim = Simulator(seed=1)
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
    sim.run()
    assert got == [(1, "x")]


def test_negative_delay_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator(seed=1)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


@pytest.mark.parametrize("method", ["schedule", "schedule_at", "reschedule", "reschedule_at"])
def test_nan_time_rejected(method):
    # NaN compares false with everything, so a `time < now` guard let it into
    # the heap, where it broke the heap order and the clock.
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    sim.run()
    args = (math.nan, lambda: None) if method.startswith("schedule") else (None, math.nan, lambda: None)
    with pytest.raises(SimulationError):
        getattr(sim, method)(*args)
    assert sim.peek() is None and sim.now == 1.0


def test_nan_queue_trace_interval_fails_at_the_first_schedule():
    # A NaN sampling period used to end the run after 18 events with a
    # plausible-looking record.  The spec now refuses it by name; below the
    # spec, a probe handed one still stops at its first reschedule.
    from repro.metrics.trace import QueueOccupancyProbe, TraceRecorder
    from repro.scenarios.registry import get_scenario

    spec = get_scenario("fairness").spec(duration=2.0, num_tcp=1)
    overrides = {"metrics.trace_queue_interval": math.nan, "metrics.with_trace": True}
    with pytest.raises(ValueError, match="metrics.trace_queue_interval"):
        spec.with_overrides(**overrides)
    sim = Simulator(seed=1)
    QueueOccupancyProbe(sim, TraceRecorder(), [], interval=math.nan).start()
    with pytest.raises(SimulationError, match="nan"):
        sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator(seed=1)
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]


def test_stop_halts_the_loop():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired[0] == 1
    assert 2 not in fired


def test_max_events_limit():
    sim = Simulator(seed=1)
    for i in range(10):
        sim.schedule(i + 1.0, lambda: None)
    sim.run(max_events=3)
    assert sim.events_processed == 3


def test_peek_skips_cancelled_events():
    sim = Simulator(seed=1)
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek() == 2.0


def test_rng_reproducibility():
    values_a = Simulator(seed=42).rng.random()
    values_b = Simulator(seed=42).rng.random()
    assert values_a == values_b


def test_handle_reports_fired():
    sim = Simulator(seed=1)
    handle = sim.schedule(1.0, lambda: None)
    assert handle.pending
    sim.run()
    assert handle.fired
    assert not handle.pending


def test_the_heap_entry_is_the_handle():
    sim = Simulator(seed=1)
    callback = lambda tag: None
    handle = sim.schedule_at(2.0, callback, "x")
    assert isinstance(handle, EventHandle) and sim._queue == [handle]
    assert list(handle) == [2.0, 0, callback, ("x",)]
    assert handle.time == 2.0 and handle.args == ("x",)
    entry = sim.call_at(1.0, callback, "y")
    assert type(entry) is list and entry == [1.0, 1, callback, ("y",)]
    sim.cancel(entry)
    assert entry[2] is None and sim._dead == 1
    sim.cancel(entry)  # a second cancel counts nothing
    assert sim._dead == 1 and sim.peek() == 2.0 and sim._dead == 0
    sim.run()
    assert handle[2] is None and handle.fired


def test_cancelling_a_fired_handle_keeps_it_fired_and_stops_its_reuse():
    sim = Simulator(seed=1)
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()
    assert handle.fired and handle.cancelled and not handle.pending
    assert sim._dead == 0
    fresh = sim.reschedule(handle, 1.0, lambda: None)
    assert fresh is not handle and sim.reschedule_fast_hits == 0


# --------------------------------------------------------------------------
# Edge cases of the compacting heap and the reschedule fast path.


def test_cancel_then_compact_fires_survivors_in_order():
    sim = Simulator(seed=1)
    fired = []
    keep = [sim.schedule(float(i) + 0.5, fired.append, i) for i in range(50)]
    doomed = [sim.schedule(float(i) + 0.25, lambda: fired.append("bad")) for i in range(300)]
    for handle in doomed:
        handle.cancel()  # >50% of the heap dead -> triggers compaction
    # Compaction ran (possibly several times): dead entries were reclaimed
    # rather than accumulating, and the live count is exact.
    assert len(sim._queue) < len(keep) + len(doomed)
    assert len(sim._queue) == len(keep) + sim._dead
    sim.run()
    assert fired == list(range(50))


def test_peek_after_mass_cancellation():
    sim = Simulator(seed=1)
    survivors = sim.schedule(7.0, lambda: None)
    for handle in [sim.schedule(1.0, lambda: None) for _ in range(200)]:
        handle.cancel()
    assert sim.peek() == 7.0
    assert survivors.pending


def test_event_at_exactly_until_is_not_executed():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule_at(5.0, fired.append, "at-until")
    end = sim.run(until=5.0)
    assert end == 5.0
    assert fired == []
    # Scheduling at exactly the current time is allowed, and the event is
    # still pending for a later run.
    sim.schedule_at(5.0, fired.append, "now")
    sim.run()
    assert fired == ["at-until", "now"]


def test_reschedule_reuses_fired_handle():
    sim = Simulator(seed=1)
    seen = []
    first = sim.schedule(1.0, seen.append, "a")
    sim.run()
    assert first.fired
    again = sim.reschedule(first, 1.0, seen.append, "b")
    assert again is first  # zero-allocation reuse
    assert again.pending and not again.fired
    sim.run()
    assert seen == ["a", "b"]
    assert again.fired


def test_reschedule_cancels_pending_handle():
    sim = Simulator(seed=1)
    seen = []
    pending = sim.schedule(1.0, seen.append, "old")
    fresh = sim.reschedule(pending, 2.0, seen.append, "new")
    assert fresh is not pending
    assert pending.cancelled
    sim.run()
    assert seen == ["new"]


def test_reschedule_none_schedules():
    sim = Simulator(seed=1)
    seen = []
    handle = sim.reschedule(None, 1.0, seen.append, 1)
    assert handle.pending
    sim.run()
    assert seen == [1]


def test_recurring_reschedule_self_rearm():
    sim = Simulator(seed=1)
    ticks = []

    class Timer:
        def __init__(self):
            self.handle = None

        def tick(self):
            ticks.append(sim.now)
            if len(ticks) < 5:
                self.handle = sim.reschedule(self.handle, 1.0, self.tick)

    timer = Timer()
    timer.handle = sim.schedule(1.0, timer.tick)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_reschedule_at_fires_at_the_exact_absolute_time():
    """``now + (end - now)`` is not ``end`` in floating point, which is why a
    link drain re-arms at an absolute time."""
    sim = Simulator(seed=1)
    now, end = 0.009, 0.027
    assert now + (end - now) != end
    fired = []
    first = sim.schedule_at(now, lambda: None)
    sim.run()
    assert sim.now == now
    again = sim.reschedule_at(first, end, lambda: fired.append(sim.now))
    assert again is first and again.pending  # same zero-allocation reuse
    assert sim.reschedule_fast_hits == 1
    sim.run()
    assert fired == [end]
    with pytest.raises(SimulationError):
        sim.reschedule_at(again, now, lambda: None)  # in the past


def test_reschedule_at_cancels_pending_and_accepts_none():
    sim = Simulator(seed=1)
    seen = []
    pending = sim.reschedule_at(None, 1.0, seen.append, "old")
    fresh = sim.reschedule_at(pending, 2.0, seen.append, "new")
    assert fresh is not pending and pending.cancelled
    sim.run()
    assert seen == ["new"] and sim.now == 2.0


def test_event_order_is_identical_with_and_without_compaction():
    def build(extra_cancelled):
        sim = Simulator(seed=1)
        order = []
        for i in range(40):
            sim.schedule(((i * 7) % 10) + i * 0.01, order.append, i)
        doomed = [sim.schedule(0.5, order.append, "dead") for _ in range(extra_cancelled)]
        for handle in doomed:
            handle.cancel()
        return sim, order

    plain, plain_order = build(extra_cancelled=0)
    churned, churned_order = build(extra_cancelled=500)  # forces compaction
    assert len(churned._queue) < 540  # dead entries were reclaimed
    plain.run()
    churned.run()
    assert plain_order == churned_order


def test_packet_uid_counter_is_per_simulator():
    a = Simulator(seed=1)
    b = Simulator(seed=1)
    assert [a.next_packet_uid() for _ in range(3)] == [0, 1, 2]
    # A second simulator in the same process starts from zero again.
    assert b.next_packet_uid() == 0


def test_max_events_zero_still_bounds_the_run():
    sim = Simulator(seed=1)
    for i in range(5):
        sim.schedule(i + 1.0, lambda: None)
    sim.run(max_events=0)
    # Matches the pre-overhaul semantics: the bound is checked after each
    # event, so max_events=0 processes exactly one event, never the queue.
    assert sim.events_processed == 1


# ----------------------------------------------------- same-timestamp ties
# (The names say "batch" from when the run loop drained ties in an inner
# batch; they check tie ordering, which the one-step loop keeps.)


def test_zero_delay_events_join_the_current_batch():
    sim = Simulator(seed=1)
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, lambda: fired.append("chained"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: fired.append("second"))
    sim.run()
    # The chained zero-delay event shares the timestamp but was scheduled
    # later, so it runs after the pre-existing tie.
    assert fired == ["first", "second", "chained"]
    assert sim.now == 1.0


def test_stop_mid_batch_skips_later_same_time_events():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(1.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.now == 1.0


def test_max_events_is_honoured_within_a_batch():
    sim = Simulator(seed=1)
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run(max_events=2)
    assert sim.events_processed == 2
    assert sim.peek() == 1.0  # the rest of the batch is still pending


def test_cancellation_inside_a_batch_is_respected():
    sim = Simulator(seed=1)
    fired = []
    handles = []

    def first():
        fired.append(1)
        handles[1].cancel()

    handles.append(sim.schedule(1.0, first))
    handles.append(sim.schedule(1.0, lambda: fired.append(2)))
    handles.append(sim.schedule(1.0, lambda: fired.append(3)))
    sim.run()
    assert fired == [1, 3]


def test_timer_storm_is_deterministic():
    """256 recurring timers that cancel and re-arm each other replay exactly."""

    def storm():
        sim = Simulator(seed=123)
        n = 256
        handles = [None] * n

        def tick(i):
            j = (i + 1) % n
            h = handles[j]
            if h is not None and h.pending:
                h.cancel()
            handles[j] = sim.schedule(0.02, tick, j)
            handles[i] = sim.schedule(0.01, tick, i)

        for i in range(0, n, 2):
            handles[i] = sim.schedule(0.01 + i * 1e-5, tick, i)
        sim.run(until=2.0)
        return sim.events_processed, sim.compactions, sim.reschedule_fast_hits

    first, second = storm(), storm()
    assert first == second
    assert first[0] > 0


@pytest.mark.parametrize("with_telemetry", [False, True])
def test_one_loop_serves_telemetry_on_and_off(with_telemetry):
    """The run loop is one piece of code: the same script (cancelled heads,
    same-time batches, compaction from a callback, ``stop()`` mid-batch,
    ``until`` on an event time, ``max_events`` inside a batch) fires the same
    events at the same ``now`` whether or not the telemetry probe pops."""
    from types import SimpleNamespace

    from repro import telemetry
    from repro.telemetry.collect import collect_run

    with telemetry.forced(with_telemetry), telemetry.run_scope() as tel:
        sim = Simulator(seed=1)
    telemetry.take_last_run()  # the scope only lent the simulator its sink
    assert (sim.telemetry is not None) == with_telemetry
    fired = []
    note = lambda tag: fired.append((tag, sim.now))

    def churn():
        note("churn")
        for handle in [sim.schedule(5.0, note, "never") for _ in range(200)]:
            handle.cancel()  # more than half the heap is dead: compacts here

    def halt():
        note("halt")
        sim.stop()

    sim.schedule(0.5, note, "cancelled-head").cancel()
    sim.schedule(1.0, note, "a")
    doomed = sim.schedule(1.0, note, "cancelled-in-batch")
    sim.schedule(1.0, note, "b")
    doomed.cancel()
    sim.schedule(1.5, churn)
    sim.schedule(2.0, note, "at-until")
    sim.schedule(2.0, note, "at-until-2")
    sim.schedule(2.0, note, "at-until-3")
    sim.schedule(3.0, note, "c")
    sim.schedule(3.0, halt)
    sim.schedule(3.0, note, "after-halt")
    sim.schedule(4.0, note, "d")

    steps = []
    for kwargs in ({"until": 2.0}, {"max_events": 2}, {}, {}):
        sim.run(**kwargs)
        steps.append((sim.now, sim.events_processed, len(fired)))
    assert fired == [
        ("a", 1.0), ("b", 1.0), ("churn", 1.5),
        ("at-until", 2.0), ("at-until-2", 2.0),
        ("at-until-3", 2.0), ("c", 3.0), ("halt", 3.0),
        ("after-halt", 3.0), ("d", 4.0),
    ]  # fmt: skip
    assert steps == [(2.0, 3, 3), (2.0, 5, 5), (3.0, 8, 8), (4.0, 10, 10)]
    assert sim.compactions >= 1
    if with_telemetry:
        collect_run(tel, SimpleNamespace(sim=sim))
        snap = tel.snapshot()
        total = snap["counters"]["engine.events_total"]
        by_category = [v for k, v in snap["counters"].items() if k.startswith("engine.events{")]
        assert sum(by_category) == total == 10
        # [a b] [churn] | [at-until at-until-2] | [at-until-3] [c halt] | [after-halt] [d]
        assert snap["histograms"]["engine.batch_size"]["sum"] == total
        assert snap["histograms"]["engine.batch_size"]["count"] == 7
        # Read at batch boundaries, after churn's two compactions; the value
        # the separate instrumented loop reported for this script.
        assert snap["gauges"]["engine.heap_peak"] == 38


# ------------------------------------------------------------ fan-out lane


def test_fan_out_entries_merge_into_the_lane_in_heap_order():
    sim = Simulator(seed=1)
    fired = []
    note = lambda tag: fired.append((tag, sim.now))
    sim.schedule_at(1.0, note, "heap-1.0")
    sim.schedule_at(3.0, note, "heap-3.0")
    calls = [
        lambda _: sim.schedule_at(2.0, note, "lane-2.0"),
        lambda _: sim.schedule_at(0.5, note, "lane-0.5"),
        lambda _: sim.schedule_at(1.0, note, "lane-1.0"),  # ties after heap-1.0
    ]
    sim.fan_out(calls, None)
    assert sim.lane_events == 3 and len(sim._lane) == 3 and len(sim._queue) == 2
    assert sim.peek() == 0.5
    sim.run()
    assert fired == [
        ("lane-0.5", 0.5), ("heap-1.0", 1.0), ("lane-1.0", 1.0),
        ("lane-2.0", 2.0), ("heap-3.0", 3.0),
    ]  # fmt: skip
    assert sim.events_processed == 5


def test_fan_out_scopes_do_not_nest_and_close_on_error():
    sim = Simulator(seed=1)
    fired = []

    def nested(_):
        sim.schedule_at(1.0, fired.append, "kept")
        sim.fan_out([lambda _: None], None)

    with pytest.raises(SimulationError):
        sim.fan_out([nested], None)
    # The scope closed in its finally: what it scheduled is in the lane, and
    # schedule_at goes to the heap again.
    assert sim._fanout is None and sim.lane_events == 1
    sim.schedule_at(2.0, fired.append, "heap")
    assert len(sim._queue) == 1
    sim.run()
    assert fired == ["kept", "heap"]


def test_cancelled_lane_entries_are_skipped_and_compacted():
    sim = Simulator(seed=1)
    fired = []
    handles = []
    sim.fan_out(
        [lambda _, i=i: handles.append(sim.schedule_at(1.0 + i, fired.append, i)) for i in range(200)],
        None,
    )
    sim.schedule_at(0.5, fired.append, "heap")
    for handle in handles[:101]:
        handle.cancel()  # the 101st makes >50% of heap + lane dead: compacts
    assert sim.compactions == 1 and sim._dead == 0
    assert len(sim._lane) == 99 and sim.peek() == 0.5
    handles[101].cancel()  # lazily: stays in the lane until it surfaces
    assert sim._dead == 1
    sim.run(until=103.5)
    assert fired == ["heap", 102] and sim._dead == 0
    sim.run()
    assert fired == ["heap"] + list(range(102, 200))


class ReferenceSimulator(Simulator):
    """The single-heap engine: the run loop as it was before the fan-out lane.

    ``fan_out`` opens no scope, so every entry goes to the heap, and ``run``
    is the earlier batched loop, reading ``[time, seq, callback, args]``
    entries.  Differential oracle for the lane-merging loop of
    :class:`Simulator`.
    """

    def fan_out(self, calls, arg):
        for call in calls:
            call(arg)

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        pop = heappop
        queue = self._queue
        limit = max_events if max_events is not None else float("inf")
        processed = 0
        try:
            while queue and not self._stopped:
                entry = queue[0]
                if entry[2] is None:
                    pop(queue)
                    self._dead -= 1
                    continue
                time = entry[0]
                if until is not None and time >= until:
                    self.now = until
                    break
                self.now = time
                while True:
                    pop(queue)
                    callback = entry[2]
                    entry[2] = None
                    callback(*entry[3])
                    processed += 1
                    queue = self._queue
                    if processed >= limit or self._stopped:
                        break
                    while queue and queue[0][2] is None:
                        pop(queue)
                        self._dead -= 1
                    if not queue or queue[0][0] != time:
                        break
                    entry = queue[0]
                if processed >= limit:
                    break
            else:
                if until is not None and not self._stopped:
                    self.now = max(self.now, until)
        finally:
            self._running = False
            self.events_processed += processed
        return self.now


class _ParentHandle:
    """The handle of the engine before the entry became the handle."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(self, time, seq, callback, args, sim):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired:
            self._sim._note_cancelled()

    @property
    def pending(self):
        return not self.cancelled and not self.fired


class ParentSimulator(Simulator):
    """The engine before the entry became the handle, kept verbatim (minus
    telemetry) as an oracle: the heap and the lane hold ``(time, seq,
    handle)`` tuples, and a handle object carries the ``cancelled`` and
    ``fired`` flags.  ``call_at`` is ``schedule_at`` here."""

    def schedule(self, delay, callback, *args):
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = _ParentHandle(time, seq, callback, args, self)
        heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_at(self, time, callback, *args):
        if not time >= self.now:
            raise SimulationError(f"cannot schedule event at {time} before {self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = _ParentHandle(time, seq, callback, args, self)
        side = self._fanout
        if side is None:
            heappush(self._queue, (time, seq, handle))
        else:
            side.append((time, seq, handle))
        return handle

    call_at = schedule_at

    def cancel(self, handle):
        handle.cancel()

    def reschedule_at(self, handle, time, callback, *args):
        if not time >= self.now:
            raise SimulationError(f"cannot schedule event at {time} before {self.now}")
        if handle is not None:
            if handle.fired and not handle.cancelled:
                self.reschedule_fast_hits += 1
                seq = self._seq
                self._seq = seq + 1
                handle.time = time
                handle.seq = seq
                handle.callback = callback
                handle.args = args
                handle.fired = False
                heappush(self._queue, (time, seq, handle))
                return handle
            if not handle.cancelled:
                handle.cancel()
        return self.schedule_at(time, callback, *args)

    def _note_cancelled(self):
        dead = self._dead + 1
        self._dead = dead
        if dead > 64 and dead * 2 > self._entries():
            self._compact()

    def _compact(self):
        for entries in (self._queue, self._lane, self._fanout or []):
            entries[:] = [entry for entry in entries if not entry[2].cancelled]
        heapify(self._queue)
        self._dead = 0
        self.compactions += 1

    def peek(self):
        queue = self._queue
        lane = self._lane
        while True:
            if lane and (not queue or lane[-1] < queue[0]):
                if not lane[-1][2].cancelled:
                    return lane[-1][0]
                lane.pop()
            elif queue:
                if not queue[0][2].cancelled:
                    return queue[0][0]
                heappop(queue)
            else:
                return None
            self._dead -= 1

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        pop, lane_pop = heappop, list.pop
        queue = self._queue
        lane = self._lane
        limit = max_events if max_events is not None else float("inf")
        processed = 0
        try:
            while not self._stopped:
                if lane and (not queue or lane[-1] < queue[0]):
                    time, _seq, handle = lane[-1]
                    if handle.cancelled:
                        lane_pop(lane)
                        self._dead -= 1
                        continue
                    if until is not None and time >= until:
                        self.now = until
                        break
                    lane_pop(lane)
                elif queue:
                    time, _seq, handle = queue[0]
                    if handle.cancelled:
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
                handle.fired = True
                handle.callback(*handle.args)
                processed += 1
                if processed >= limit:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        return self.now


class UncountedCancelSimulator(Simulator):
    """Mutant: ``cancel`` blanks the slot but does not count the dead entry."""

    def cancel(self, entry):
        entry[2] = None


#: Grid of delays: multiples of 1/4 are exact in binary, so ties are real.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5])
_SLOTS = 6
_schedule_op = st.tuples(
    st.sampled_from(["at", "after", "re", "call"]), _DELAYS, st.integers(0, _SLOTS - 1)
)
_op = st.one_of(
    _schedule_op,
    st.tuples(st.just("fan"), st.lists(_schedule_op, min_size=2, max_size=8)),
    st.tuples(st.just("cancel"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("churn"), st.integers(65, 160)),
    st.tuples(st.just("stop")),
)
_chunk = st.tuples(
    st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.75])),
    st.one_of(st.none(), st.integers(0, 25)),
)


class _Program:
    """Interprets one generated program on one simulator.

    Event ``tag`` runs ``behaviours[tag % len(behaviours)]``; every event the
    program schedules gets the next tag, so two engines that fire the same
    events in the same order also schedule the same events.
    """

    def __init__(self, sim, behaviours, budget):
        self.sim = sim
        self.behaviours = behaviours
        self.budget = budget
        self.tags = 0
        self.slots = [None] * _SLOTS  # handles
        self.entries = [None] * _SLOTS  # what call_at returned
        self.fired = []

    def fire(self, tag):
        self.fired.append((tag, self.sim.now))
        self.apply(self.behaviours[tag % len(self.behaviours)])

    def apply(self, ops):
        sim = self.sim
        for op in ops:
            kind = op[0]
            if kind == "fan":
                sim.fan_out([partial(self.schedule, item) for item in op[1]], None)
            elif kind == "cancel":
                if self.slots[op[1]] is not None:
                    self.slots[op[1]].cancel()
                if self.entries[op[1]] is not None:
                    sim.cancel(self.entries[op[1]])
            elif kind == "churn":  # compaction from inside a callback
                for handle in [sim.schedule(1e3, self.fire, -1) for _ in range(op[1])]:
                    handle.cancel()
            elif kind == "stop":
                sim.stop()
            else:
                self.schedule(op)

    def schedule(self, op, _arg=None):
        if self.tags >= self.budget:
            return
        kind, delay, slot = op
        sim, tag = self.sim, self.tags
        self.tags += 1
        if kind == "call":
            self.entries[slot] = sim.call_at(sim.now + delay, self.fire, tag)
            return
        if kind == "at":
            handle = sim.schedule_at(sim.now + delay, self.fire, tag)
        elif kind == "after":
            handle = sim.schedule(delay, self.fire, tag)
        else:
            handle = sim.reschedule_at(self.slots[slot], sim.now + delay, self.fire, tag)
        self.slots[slot] = handle


def _state(sim):
    """What a chunk of ``run`` leaves behind, with the dead-entry count checked."""
    pending = sim._queue + sim._lane
    if isinstance(sim, ParentSimulator):
        dead = sum(entry[2].cancelled for entry in pending)
    else:
        dead = sum(entry[2] is None for entry in pending)
    assert sim._dead == dead
    return sim.now, sim.events_processed, dead, sim.peek(), sim.compactions, len(pending)


def run_program(engine, initial, behaviours, chunks, budget):
    """Fired ``(tag, now)`` sequence and per-chunk states of one program."""
    sim = engine(seed=1)
    program = _Program(sim, behaviours, budget)
    program.apply(initial)
    trace = []
    for offset, max_events in chunks + [(None, None)]:
        until = None if offset is None else sim.now + offset
        sim.run(until=until, max_events=max_events)
        trace.append(_state(sim))
    sim.run()
    trace.append(_state(sim))
    return program.fired, trace


#: ``(initial ops, behaviours, run chunks, tag budget)``.
_programs = st.tuples(
    st.lists(_op, min_size=1, max_size=12),
    st.lists(st.lists(_op, max_size=4), min_size=1, max_size=8),
    st.lists(_chunk, max_size=8),
    st.integers(20, 300),
)


@settings(max_examples=150, deadline=None)
@given(program=_programs)
def test_lane_loop_matches_the_single_heap_reference(program):
    """Generated programs fire the same ``(tag, now)`` sequence, count the
    same events and dead entries and agree on ``peek()`` (and on compactions
    and pending entries) after every chunk of ``run``, on the lane engine,
    on the single-heap reference and on the engine whose handles were
    objects queued in tuples."""
    runs = [run_program(engine, *program) for engine in _ENGINES]
    assert runs[0] == runs[1] == runs[2]


_ENGINES = (Simulator, ReferenceSimulator, ParentSimulator)

#: A program on which the uncounted-cancel mutant leaves the oracles: one
#: event cancelled, then a run that stops before it surfaces.
_CANCEL_WITNESS = ([("after", 1.0, 0), ("cancel", 0)], [[]], [(0.5, None)], 20)


def test_the_cancel_witness_passes_unmutated():
    runs = [run_program(engine, *_CANCEL_WITNESS) for engine in _ENGINES]
    assert runs[0] == runs[1] == runs[2]


def _mutant_disagrees(program):
    try:
        return run_program(UncountedCancelSimulator, *program) != run_program(
            ParentSimulator, *program
        )
    except AssertionError:  # the dead-entry count check in _state
        return True


def test_the_comparison_catches_the_uncounted_cancel_mutant():
    assert _mutant_disagrees(_CANCEL_WITNESS)


@pytest.mark.slow
def test_generator_reaches_a_program_that_catches_the_uncounted_cancel_mutant():
    find(_programs, _mutant_disagrees, settings=settings(max_examples=2000, database=None, deadline=None))
