"""Measurement utilities: per-flow throughput time series and statistics.

The figures in the paper are throughput-versus-time plots and aggregate
statistics derived from them.  :class:`ThroughputMonitor` bins received bytes
per flow into fixed-width intervals; :class:`FlowStats` summarises a series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulator.engine import Simulator


@dataclass
class FlowStats:
    """Summary statistics of a throughput time series (bits per second)."""

    mean: float
    median: float
    stdev: float
    minimum: float
    maximum: float
    coefficient_of_variation: float = field(init=False)

    def __post_init__(self) -> None:
        self.coefficient_of_variation = self.stdev / self.mean if self.mean > 0 else 0.0

    @classmethod
    def from_series(cls, values: Sequence[float]) -> "FlowStats":
        """Compute statistics for a list of per-interval throughputs.

        Well-defined on degenerate inputs: an empty series (or one with no
        finite values) yields all-zero statistics, and non-finite values are
        discarded so one bad bin cannot poison every aggregate.
        """
        values = [float(v) for v in values if math.isfinite(v)]
        if not values:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0)
        n = len(values)
        mean = sum(values) / n
        ordered = sorted(values)
        mid = n // 2
        median = ordered[mid] if n % 2 == 1 else 0.5 * (ordered[mid - 1] + ordered[mid])
        variance = sum((v - mean) ** 2 for v in values) / n
        return cls(mean, median, math.sqrt(variance), ordered[0], ordered[-1])


class FlowRecorder:
    """One flow's byte bins, as :meth:`ThroughputMonitor.recorder` hands them out.

    ``counts[b]`` holds the bytes received in bin ``b``, the interval
    ``[b * interval, (b + 1) * interval)``.  :meth:`add` files a packet at
    any time.  While the flow's packets come in time order (a receiver's
    clock never goes back), a caller may instead add to ``counts[-1]`` when
    ``when < end``: no time before ``end`` lies past the newest bin, so the
    shortcut files every packet exactly where :meth:`add` would.
    """

    __slots__ = ("counts", "end", "_interval")

    def __init__(self, counts: List[int], interval: float):
        self.counts = counts
        self._interval = interval
        self.end = -math.inf  # no bin yet: the first packet takes add()

    def add(self, size: int, when: float) -> None:
        """Add ``size`` bytes received at ``when``."""
        index = int(when / self._interval)
        counts = self.counts
        try:
            counts[index] += size
        except IndexError:  # first packet of a new bin
            counts.extend([0] * (index - len(counts)))
            counts.append(size)
            self.end = self._first_time_after(index)

    def _first_time_after(self, index: int) -> float:
        """About ``(index + 1) * interval``, and no time before it is past bin ``index``.

        Bin numbers never decrease as ``t`` grows (division is monotone), so
        checking the float just below is enough; a rounding error in the
        product costs at most a step or two of ``nextafter``.
        """
        interval = self._interval
        end = (index + 1) * interval
        while int(math.nextafter(end, -math.inf) / interval) > index:
            end = math.nextafter(end, -math.inf)
        return end


class ThroughputMonitor:
    """Bin received bytes per flow into fixed-width time intervals.

    Protocol agents call :meth:`record` whenever they accept a data packet.
    The monitor produces per-flow throughput time series in bits per second.

    Storage is a flat per-flow list of byte counters indexed by bin — a
    fixed-interval accumulator, not a per-packet record list — so memory is
    bounded by simulated time (not packet count) and adding a packet is a
    couple of list operations.  The bin arithmetic lives in one place,
    :class:`FlowRecorder`: :meth:`record` looks up the flow's recorder, and
    a per-packet caller keeps the one :meth:`recorder` hands out.
    """

    def __init__(self, sim: Simulator, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        # flow id -> byte counters, index = bin number (time // interval).
        self._bins: Dict[str, List[int]] = {}
        self._recorders: Dict[str, FlowRecorder] = {}

    def record(self, flow_id: str, size: int, when: Optional[float] = None) -> None:
        """Record ``size`` bytes received for ``flow_id`` at ``when`` (default: now).

        Per-packet callers that already hold the current time pass it.
        """
        recorder = self._recorders.get(flow_id) or self.recorder(flow_id)
        recorder.add(size, self.sim.now if when is None else when)

    def recorder(self, flow_id: str) -> FlowRecorder:
        """The :class:`FlowRecorder` of ``flow_id``, for a per-packet caller.

        The flow counts as recorded (:meth:`flows`) from this call on, so ask
        for it with the flow's first packet.
        """
        recorder = self._recorders.get(flow_id)
        if recorder is None:
            counts = self._bins[flow_id] = []
            recorder = self._recorders[flow_id] = FlowRecorder(counts, self.interval)
        return recorder

    def flows(self) -> List[str]:
        """All flow ids that recorded any traffic."""
        return list(self._bins)

    def total_bytes(self, flow_id: str) -> int:
        """Total bytes recorded for a flow."""
        return sum(self._bins.get(flow_id, ()))

    def _bin_range(self, flow_id: str, t_start: float, t_end: Optional[float]):
        """Resolve ``(bins, first_index, last_index)`` for a query window."""
        bins = self._bins.get(flow_id, [])
        end = t_end if t_end is not None else self.sim.now
        first = int(t_start / self.interval)
        last = int(math.ceil(end / self.interval))
        return bins, first, max(last, first)

    def series(
        self, flow_id: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Throughput time series ``[(bin_start_time, bits_per_second), ...]``.

        Bins with no traffic are reported as zero so the series is contiguous.
        """
        bins, first, last = self._bin_range(flow_id, t_start, t_end)
        n = len(bins)
        interval = self.interval
        scale = 8.0 / interval
        return [
            (b * interval, (bins[b] if 0 <= b < n else 0) * scale) for b in range(first, last)
        ]

    def throughputs(
        self, flow_id: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> List[float]:
        """Just the per-bin throughput values (bits per second)."""
        return [v for _t, v in self.series(flow_id, t_start, t_end)]

    def average_throughput(
        self, flow_id: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> float:
        """Average throughput in bits per second over ``[t_start, t_end]``."""
        end = t_end if t_end is not None else self.sim.now
        duration = end - t_start
        if duration <= 0:
            return 0.0
        bins, first, last = self._bin_range(flow_id, t_start, t_end)
        total = sum(bins[max(first, 0):max(last, 0)])
        return total * 8.0 / duration

    def stats(
        self, flow_id: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> FlowStats:
        """Summary statistics of the per-interval throughput of a flow."""
        return FlowStats.from_series(self.throughputs(flow_id, t_start, t_end))


def fairness_index(throughputs: Sequence[float]) -> float:
    """Jain's fairness index of a set of average throughputs.

    Returns a value in (0, 1]; 1 means perfectly equal shares.  Degenerate
    inputs (empty, all-zero, tiny values whose squares underflow) are
    handled by the canonical implementation in :mod:`repro.metrics.stats`;
    this alias remains for backwards compatibility.
    """
    # Imported lazily: repro.metrics's package __init__ pulls in the
    # aggregation layer (and with it the scenario store), which itself
    # depends on this module — a module-level import would be circular.
    from repro.metrics.stats import jain_fairness

    return jain_fairness(throughputs)
