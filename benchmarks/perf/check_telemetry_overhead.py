#!/usr/bin/env python
"""CI gate: the telemetry layer must cost <2% on the event loop when disabled.

A wall time recorded on another machine cannot gate this, so the check is
an in-process A/B: the production ``Simulator`` with telemetry disabled
versus a control subclass whose ``run`` is the production loop verbatim
minus the ``self.telemetry`` dispatch that picks the probes.  Both drive
the same 256-timer cancel/re-arm storm; runs are interleaved and best-of-N
so scheduler noise hits both sides equally.

Usage: PYTHONPATH=src python benchmarks/perf/check_telemetry_overhead.py
Exits non-zero when the disabled-telemetry loop is more than MAX_OVERHEAD
slower than the control loop.
"""

from __future__ import annotations

import sys
import time
from heapq import heappop
from typing import Any, List, Optional

from repro.simulator.engine import Simulator

#: Allowed fractional slowdown of the production loop vs the control loop.
MAX_OVERHEAD = 0.02

#: Interleaved repetitions per side; best-of-N is compared.
REPETITIONS = 7

#: Simulated seconds of timer churn per run.
UNTIL = 4.0


class ControlSimulator(Simulator):
    """Simulator whose ``run`` is ``Simulator.run`` verbatim minus telemetry.

    The loop body (one event per step from the heap or the fan-out lane) is
    copied unchanged; only the ``self.telemetry`` dispatch that picks the
    probes is gone, so the pops are always ``heappop`` and ``list.pop``.
    Keep it in step with the production loop, or this gate measures the
    difference between two loops instead of the telemetry seam.
    """

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        if self._running:
            raise RuntimeError("simulator is already running")
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
        return self.now


def churn(sim: Simulator) -> float:
    """A storm of recurring timers that cancel and re-arm each other."""
    n = 256
    handles: List[Any] = [None] * n

    def tick(i: int) -> None:
        j = (i + 1) % n
        h = handles[j]
        if h is not None and h.pending:
            h.cancel()
        handles[j] = sim.schedule(0.02, tick, j)
        handles[i] = sim.schedule(0.01, tick, i)

    for i in range(0, n, 2):
        handles[i] = sim.schedule(0.01 + i * 1e-5, tick, i)

    start = time.perf_counter()
    sim.run(until=UNTIL)
    return time.perf_counter() - start


def main() -> int:
    production: List[float] = []
    control: List[float] = []
    events = None
    for _ in range(REPETITIONS):
        prod_sim = Simulator(seed=123)
        assert prod_sim.telemetry is None, "telemetry must be disabled for this check"
        production.append(churn(prod_sim))
        ctrl_sim = ControlSimulator(seed=123)
        control.append(churn(ctrl_sim))
        if events is None:
            events = prod_sim.events_processed
        assert prod_sim.events_processed == ctrl_sim.events_processed == events, (
            "control loop diverged from the production loop"
        )
    best_production = min(production)
    best_control = min(control)
    overhead = best_production / best_control - 1.0
    print(
        f"telemetry-disabled overhead on the timer storm ({events:,} events): "
        f"production {best_production * 1000:.1f} ms vs control "
        f"{best_control * 1000:.1f} ms -> {overhead * +100:.2f}% "
        f"(limit {MAX_OVERHEAD * 100:.0f}%)"
    )
    if overhead > MAX_OVERHEAD:
        print("FAIL: telemetry layer slows the disabled event loop too much")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
