"""Loss-event detection and the weighted loss-interval history (Section 2.3).

Two classes cooperate:

* :class:`LossIntervalHistory` keeps the ``m`` most recent loss intervals and
  computes the weighted average loss interval and the loss event rate, with
  the TFRC rule that the still-open interval is only included when doing so
  *decreases* the loss event rate.

* :class:`LossEventDetector` turns a stream of (possibly reordered, gapped)
  packet arrivals into loss events: consecutive lost packets whose estimated
  send times fall within one RTT of the first loss belong to the same event.

The history also implements the Appendix A/B rules: initialisation of the
first loss interval from the rate at which the first loss occurred, and
re-scaling of that synthetic interval when the first real RTT measurement
replaces the (too large) initial RTT.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import mul
from typing import Deque, List, Optional, Sequence

from repro.core.equations import mathis_loss_rate, padhye_loss_rate


class LossIntervalHistory:
    """Weighted average of the most recent loss intervals.

    Parameters
    ----------
    weights:
        Interval weights, most recent first (paper example for eight
        intervals: ``5, 5, 5, 5, 4, 3, 2, 1``).
    """

    def __init__(self, weights: Sequence[float]):
        if len(weights) < 2:
            raise ValueError("need at least two weights")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights: List[float] = list(weights)
        self._intervals: Deque[float] = deque(maxlen=len(weights))  # most recent first
        self._open_interval = 0.0  # packets since the last loss event
        self._have_loss = False
        # Weighted average of the closed intervals and the weight sum of the
        # open-interval average, kept until the closed intervals change.
        self._closed_average: Optional[float] = None
        self._open_weight = 0.0

    # ------------------------------------------------------------ recording

    def record_packet(self, count: float = 1.0) -> None:
        """Count ``count`` packets received since the last loss event."""
        if count < 0:
            raise ValueError("count cannot be negative")
        self._open_interval += count

    def record_loss_event(self) -> None:
        """Close the open interval and start a new one."""
        if self._have_loss:
            # The packet that starts the loss event terminates the interval.
            self._intervals.appendleft(max(self._open_interval, 1.0))
            self._closed_average = None
        self._have_loss = True
        self._open_interval = 0.0

    def seed_first_interval(self, interval: float) -> None:
        """Install a synthetic first loss interval (Appendix B).

        Called right after the first loss event, replacing the packet count
        observed so far with an interval derived from the receive rate at the
        time of the first loss.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not self._have_loss:
            self._have_loss = True
        self._intervals.clear()
        self._intervals.appendleft(interval)
        self._closed_average = None
        self._open_interval = 0.0

    def scale_intervals(self, factor: float) -> None:
        """Scale all stored intervals by ``factor`` (Appendix B RTT fix-up)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        scaled = [max(1.0, interval * factor) for interval in self._intervals]
        self._intervals = deque(scaled, maxlen=len(self.weights))
        self._closed_average = None

    # ------------------------------------------------------------ statistics

    @property
    def has_loss(self) -> bool:
        """True once at least one loss event has been recorded."""
        return self._have_loss and len(self._intervals) > 0

    @property
    def open_interval(self) -> float:
        """Packets received since the most recent loss event."""
        return self._open_interval

    @property
    def intervals(self) -> List[float]:
        """Closed loss intervals, most recent first."""
        return list(self._intervals)

    def _weighted_average(self, intervals: Sequence[float]) -> float:
        if not intervals:
            return 0.0
        used = list(intervals)[: len(self.weights)]
        weights = self.weights[: len(used)]
        total_weight = sum(weights)
        return sum(w * i for w, i in zip(weights, used)) / total_weight

    def average_loss_interval(self) -> float:
        """Weighted average loss interval, including the open interval if that
        makes the average larger (i.e. the loss event rate smaller)."""
        if not self.has_loss:
            return 0.0
        closed = self._closed_average
        if closed is None:
            closed = self._closed_average = self._weighted_average(self._intervals)
            self._open_weight = sum(self.weights[: len(self._intervals) + 1])
        # The open interval taken as the newest, summed in the order
        # _weighted_average would sum it, so the result is the same float.
        with_open = (
            sum(map(mul, self.weights, chain((self._open_interval,), self._intervals)))
            / self._open_weight
        )
        return max(closed, with_open)

    @property
    def loss_event_rate(self) -> float:
        """Loss event rate ``p``: inverse of the average loss interval."""
        avg = self.average_loss_interval()
        if avg <= 0:
            return 0.0
        return min(1.0, 1.0 / avg)


class LossEventDetector:
    """Convert packet arrivals into loss events (one or more losses per RTT).

    The detector tracks the highest sequence number seen.  A gap in sequence
    numbers marks the skipped packets as lost; their send times are estimated
    by linear interpolation between the surrounding received packets.  A lost
    packet starts a new loss event only if its estimated send time is more
    than one RTT after the send time that started the current loss event.

    Reordered packets (arriving late, within a small window) are tolerated:
    if a "lost" packet later arrives it is ignored (the loss event remains),
    matching TFRC's behaviour of slight conservativeness under reordering.
    """

    def __init__(self, history: LossIntervalHistory, initial_rtt: float):
        if initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        self.history = history
        self.rtt = initial_rtt
        self._expected_seq: Optional[int] = None
        self._last_send_time: Optional[float] = None
        self._loss_event_start: Optional[float] = None
        self.packets_received = 0
        self.packets_lost = 0
        self.loss_events = 0
        self._seen_out_of_order = 0

    def update_rtt(self, rtt: float) -> None:
        """Use a new RTT estimate for subsequent loss aggregation."""
        if rtt > 0:
            self.rtt = rtt

    def on_packet(self, seq: int, send_time: float) -> int:
        """Process the arrival of data packet ``seq`` sent at ``send_time``.

        Returns the number of *new loss events* created by this arrival (0 or
        more), so callers can react (e.g. terminate slowstart).
        """
        new_events = 0
        if self._expected_seq is None:
            self._expected_seq = seq + 1
            self._last_send_time = send_time
            self.packets_received += 1
            self.history.record_packet()
            return 0
        if seq < self._expected_seq:
            # Late / duplicate packet: already counted as lost (or received).
            self._seen_out_of_order += 1
            return 0
        gap = seq - self._expected_seq
        if gap > 0:
            new_events = self._register_losses(gap, send_time)
        self.packets_received += 1
        self.history.record_packet()
        self._expected_seq = seq + 1
        self._last_send_time = send_time
        return new_events

    def on_in_order_packet(self, seq: int, send_time: float, rtt: float) -> bool:
        """Fast path: consume ``seq`` if it is exactly the expected packet.

        Returns False, having changed nothing, on the first packet, a gap or
        a reordering; the caller then takes :meth:`update_rtt` and
        :meth:`on_packet`.  For the expected packet those two create no loss
        event, and this does their bookkeeping in one call instead of three.
        """
        if seq != self._expected_seq:
            return False
        if rtt > 0:
            self.rtt = rtt
        self.packets_received += 1
        self.history._open_interval += 1.0
        self._expected_seq = seq + 1
        self._last_send_time = send_time
        return True

    # ------------------------------------------------------------ internals

    def _register_losses(self, count: int, next_send_time: float) -> int:
        """Mark ``count`` consecutive packets (before the arrival) as lost."""
        self.packets_lost += count
        prev_time = self._last_send_time if self._last_send_time is not None else next_send_time
        new_events = 0
        for i in range(count):
            # Interpolate the send time of the i-th missing packet.
            fraction = (i + 1) / (count + 1)
            est_send = prev_time + fraction * (next_send_time - prev_time)
            if self._loss_event_start is None or est_send - self._loss_event_start > self.rtt:
                self.history.record_loss_event()
                self._loss_event_start = est_send
                self.loss_events += 1
                new_events += 1
            # Losses within one RTT of the loss-event start are aggregated.
        return new_events

    @property
    def expected_seq(self) -> Optional[int]:
        """Next sequence number the detector expects (None before 1st packet)."""
        return self._expected_seq


def initial_loss_interval(
    packet_size: float, rtt: float, rate_at_first_loss: float, overshoot: float = 2.0
) -> float:
    """Synthetic first loss interval from the rate at the first loss event.

    Appendix B: slowstart overshoots to at most twice the bottleneck
    bandwidth, so the bottleneck is approximated by half the rate at which the
    first loss occurred; the corresponding loss event rate from the inverse of
    the simplified TCP equation gives the initial interval ``l_0 = 1/p``.

    Parameters
    ----------
    packet_size:
        Packet size in bytes.
    rtt:
        The receiver's current RTT estimate in seconds.
    rate_at_first_loss:
        Receive rate (bytes/s) when the first loss event occurred.
    overshoot:
        Assumed slowstart overshoot factor (2 in the paper).
    """
    if rate_at_first_loss <= 0:
        raise ValueError("rate_at_first_loss must be positive")
    bottleneck_estimate = rate_at_first_loss / overshoot
    # The paper suggests the closed-form inverse of the simplified equation;
    # at very low rates (loss caused by competing traffic while the flow
    # itself is slow) that inverse exceeds one and would seed a degenerate
    # one-packet interval, so fall back to inverting the full model, which
    # always yields a loss rate that reproduces the target rate.
    p = mathis_loss_rate(packet_size, rtt, bottleneck_estimate)
    if p >= 1.0:
        p = padhye_loss_rate(packet_size, rtt, bottleneck_estimate)
    return max(1.0, 1.0 / p)


def rescale_factor_for_rtt(initial_rtt: float, measured_rtt: float) -> float:
    """Factor applied to the synthetic first interval when the real RTT arrives.

    Appendix B: a loss interval derived with a too-large initial RTT is too
    large; once the real RTT ``R`` is known the interval must be scaled by
    ``(R / R_init)^2`` so that the calculated rate stays consistent.
    """
    if initial_rtt <= 0 or measured_rtt <= 0:
        raise ValueError("RTTs must be positive")
    return (measured_rtt / initial_rtt) ** 2
