"""TFMCC receiver agent.

Each receiver measures its loss event rate and round-trip time, computes the
TCP-friendly rate from the control equation, and participates in the biased
feedback-suppression protocol:

* when a new feedback round starts (indicated by the round id in data
  packets), a receiver whose calculated rate is below the current sending
  rate draws a biased exponential feedback timer;
* echoed feedback from other receivers (carried in data packets) cancels the
  timer according to the cancellation rule;
* the current limiting receiver (CLR) bypasses suppression entirely and
  reports roughly once per RTT.

Feedback reports are unicast to the sender and carry everything the sender
needs for rate control, echo scheduling and sender-side RTT measurement.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.config import TFMCCConfig
from repro.core.equations import padhye_throughput
from repro.core.feedback import FeedbackTimerPolicy, slowstart_bias_ratio
from repro.core.headers import DataHeader, FeedbackHeader
from repro.core.loss_history import (
    LossEventDetector,
    LossIntervalHistory,
    initial_loss_interval,
    rescale_factor_for_rtt,
)
from repro.core.rtt import ReceiverRTTEstimator
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.monitor import FlowRecorder, ThroughputMonitor
from repro.simulator.node import Agent
from repro.simulator.packet import Packet, PacketType

#: Size of a TFMCC feedback packet in bytes (comparable to a TCP ACK plus the
#: report fields).
FEEDBACK_PACKET_SIZE = 60

#: Number of recent packets over which the receive rate is measured.
RECEIVE_RATE_WINDOW = 16


class TFMCCReceiver(Agent):
    """A TFMCC receiver.

    Parameters
    ----------
    sim:
        The simulator.
    receiver_id:
        Unique identifier of this receiver; also used as the agent flow id.
    session_flow_id:
        Flow id of the TFMCC session (the sender's flow id); feedback packets
        are addressed to this flow so the sender agent receives them.
    sender_node:
        Node id of the sender (destination of unicast feedback).
    group_id:
        Multicast group of the session.
    config:
        Protocol configuration.
    monitor:
        Optional throughput monitor; received data bytes are recorded under
        ``receiver_id``.
    clock_offset:
        Offset of this receiver's clock relative to the sender (exercises the
        skew cancellation in the one-way-delay RTT adjustment).
    """

    def __init__(
        self,
        sim: Simulator,
        receiver_id: str,
        session_flow_id: str,
        sender_node: str,
        group_id: str,
        config: Optional[TFMCCConfig] = None,
        monitor: Optional[ThroughputMonitor] = None,
        clock_offset: float = 0.0,
    ):
        super().__init__(sim, receiver_id)
        self.receiver_id = receiver_id
        self.session_flow_id = session_flow_id
        self.sender_node = sender_node
        self.group_id = group_id
        self.config = config if config is not None else TFMCCConfig()
        self.monitor = monitor
        # The monitor's recorder for receiver_id, fetched on the first packet.
        self._bins: Optional[FlowRecorder] = None

        cfg = self.config
        self.rtt = ReceiverRTTEstimator(
            initial_rtt=cfg.initial_rtt,
            clr_gain=cfg.clr_rtt_gain,
            receiver_gain=cfg.receiver_rtt_gain,
            one_way_gain=cfg.one_way_rtt_gain,
            clock_offset=clock_offset,
        )
        self.history = LossIntervalHistory(cfg.loss_interval_weights)
        self.detector = LossEventDetector(self.history, cfg.initial_rtt)
        self.policy = FeedbackTimerPolicy(
            rng=sim.rng,
            receiver_estimate=cfg.receiver_estimate,
            bias_method=cfg.bias_method,
            offset_fraction=cfg.offset_fraction,
            cancellation_delta=cfg.cancellation_delta,
            truncation_high=cfg.rate_truncation_high,
            truncation_low=cfg.rate_truncation_low,
        )

        # Session state learnt from data packets.
        self.current_send_rate: float = 0.0  # bytes/s
        self.current_round: int = -1
        self.sender_slowstart: bool = True
        self.is_clr: bool = False
        self.max_rtt: float = cfg.max_rtt
        self._last_data_timestamp: float = 0.0
        self._last_data_arrival: float = 0.0
        self._history_seeded_with_initial_rtt = False
        self._history_rescaled = False

        # Receive-rate measurement over a sliding window; the byte total is
        # maintained incrementally so the hot path never re-sums the window.
        self._arrivals: Deque[Tuple[float, int]] = deque(maxlen=RECEIVE_RATE_WINDOW)
        self._arrival_bytes = 0

        # Feedback state.
        self._feedback_timer: Optional[EventHandle] = None
        self._last_clr_feedback_time: float = -1e9
        self.feedback_sent = 0
        self.feedback_suppressed = 0
        self.active = True

        # Statistics.
        self.packets_received = 0
        self.bytes_received = 0

        # Optional structured trace sink (repro.metrics.trace.TraceRecorder).
        self.probe = None

    # ------------------------------------------------------------ measurements

    @property
    def loss_event_rate(self) -> float:
        """Current loss event rate ``p`` measured by this receiver."""
        return self.history.loss_event_rate

    @property
    def has_experienced_loss(self) -> bool:
        return self.history.has_loss

    def receive_rate(self) -> float:
        """Receive rate in bytes/s measured over the recent arrival window."""
        arrivals = self._arrivals
        if len(arrivals) < 2:
            if self.current_send_rate > 0:
                return self.current_send_rate
            return 0.0
        t_first, first_size = arrivals[0]
        duration = self.sim.now - t_first
        if duration <= 0:
            return self.current_send_rate
        # The first packet's bytes "opened" the window; exclude them so the
        # rate is bytes transferred per elapsed time.
        total = self._arrival_bytes - first_size
        return max(total / duration, 0.0)

    def calculated_rate(self) -> float:
        """TCP-friendly rate for this receiver in bytes/s.

        Before the first loss event the equation is undefined; the receiver
        then reports (a multiple of) its receive rate, which is what the
        slowstart mechanism needs.
        """
        if self.history.has_loss:
            return padhye_throughput(
                self.config.packet_size, self.rtt.rtt, self.history.loss_event_rate
            )
        return self.config.slowstart_overshoot * max(self.receive_rate(), 1.0)

    # ------------------------------------------------------------ data path

    def receive(self, packet: Packet) -> None:
        if not self.active or packet.ptype is not PacketType.DATA:
            return
        header = packet.payload
        if not isinstance(header, DataHeader):
            return
        now = self.sim.now
        size = packet.size
        timestamp = header.timestamp
        receiver_id = self.receiver_id
        rtt = self.rtt
        self.packets_received += 1
        self.bytes_received += size
        bins = self._bins
        if bins is not None and now < bins.end:
            bins.counts[-1] += size  # still in the newest bin
        elif self.monitor is not None:
            if bins is None:
                self._bins = bins = self.monitor.recorder(receiver_id)
            bins.add(size, now)
        arrivals = self._arrivals
        if len(arrivals) == RECEIVE_RATE_WINDOW:
            # deque(maxlen) is about to evict the oldest entry.
            self._arrival_bytes -= arrivals[0][1]
        arrivals.append((now, size))
        self._arrival_bytes += size
        self._last_data_timestamp = timestamp
        self._last_data_arrival = now

        # --- session state from the header
        self.current_send_rate = header.send_rate
        self.sender_slowstart = header.is_slowstart
        self.max_rtt = header.max_rtt
        is_clr = header.clr_id == receiver_id
        if is_clr != self.is_clr:
            self.is_clr = is_clr
            rtt.set_is_clr(is_clr)

        # --- RTT measurement / adjustment
        if header.echo_receiver_id == receiver_id:
            if self.probe is not None and not rtt.has_valid_measurement:
                self.probe.emit("rtt_acquired", now, receiver_id)
            rtt.update_from_echo(now, header.echo_timestamp, header.echo_delay)
            rtt.record_one_way_reference(timestamp, now)
            self._maybe_rescale_history()
        else:
            rtt.adjust_from_one_way_delay(timestamp, now)
        # --- loss detection.  An in-order arrival (the common case) only
        # advances the detector; the loss history is consulted only when a
        # gap or reordering sends the packet down the full path.  The rate
        # seeding the loss history is computed only when the first loss
        # event actually occurs; neither the RTT update nor the detector
        # touches the arrival window, so the value matches what a per-packet
        # snapshot would have produced.
        detector = self.detector
        seq = header.seq
        if not detector.on_in_order_packet(seq, timestamp, rtt.rtt):
            detector.update_rtt(rtt.rtt)
            history = self.history
            had_loss_before = history.has_loss
            new_loss_events = detector.on_packet(seq, timestamp)
            if new_loss_events > 0:
                if not had_loss_before:
                    self._seed_loss_history(self.receive_rate())
                if self.probe is not None:
                    self.probe.emit(
                        "loss_event", now, receiver_id, new_loss_events, history.loss_event_rate
                    )

        # --- feedback round handling
        if header.round_id != self.current_round:
            self._start_round(header.round_id)
        if self._feedback_timer is not None and header.fb_rate is not None:
            self._process_suppression_echo(header)

        # --- CLR immediate feedback
        if is_clr:
            interval = self.config.sender_report_interval_rtts * rtt.rtt
            if now - self._last_clr_feedback_time >= interval:
                self._send_feedback(immediate=True)

    # ------------------------------------------------------------ loss history

    def _seed_loss_history(self, rate_at_first_loss: float) -> None:
        """Initialise the loss history at the first loss event (Appendix B)."""
        rate = max(rate_at_first_loss, 1.0)
        interval = initial_loss_interval(
            self.config.packet_size,
            self.rtt.rtt,
            rate,
            overshoot=self.config.slowstart_overshoot,
        )
        self.history.seed_first_interval(interval)
        self._history_seeded_with_initial_rtt = not self.rtt.has_valid_measurement

    def _maybe_rescale_history(self) -> None:
        """Appendix B: rescale the synthetic first interval after the first
        real RTT measurement replaces the (too large) initial RTT."""
        if (
            self._history_seeded_with_initial_rtt
            and not self._history_rescaled
            and self.rtt.has_valid_measurement
        ):
            factor = rescale_factor_for_rtt(self.config.initial_rtt, self.rtt.rtt)
            self.history.scale_intervals(factor)
            self._history_rescaled = True

    # ------------------------------------------------------------ feedback

    def _start_round(self, round_id: int) -> None:
        """Start a new feedback round: cancel old timer, maybe arm a new one."""
        self.current_round = round_id
        self._cancel_timer()
        if self.is_clr:
            return  # the CLR reports outside the suppression mechanism
        ratio = self._bias_ratio()
        if ratio >= 1.0 and not self.sender_slowstart:
            # Nothing to report: calculated rate is not below the sending rate.
            return
        max_delay = self.config.feedback_delay_for_rate(
            max(self.current_send_rate * 8.0, 1.0)
        )
        decision = self.policy.draw(max_delay, ratio)
        self._feedback_timer = self.sim.schedule(decision.delay, self._on_feedback_timer)

    def _bias_ratio(self) -> float:
        """Ratio used to bias the feedback timer (Sections 2.5.1 and 2.6)."""
        if self.current_send_rate <= 0:
            return 1.0
        if self.sender_slowstart and not self.history.has_loss:
            return slowstart_bias_ratio(self.receive_rate(), self.current_send_rate)
        return max(0.0, min(1.0, self.calculated_rate() / self.current_send_rate))

    def _process_suppression_echo(self, header: DataHeader) -> None:
        """Cancel a pending feedback timer if echoed feedback suppresses us."""
        if (
            self._feedback_timer is None
            or not self._feedback_timer.pending
            or header.fb_rate is None
            or header.fb_round != self.current_round
            or header.fb_receiver_id == self.receiver_id
        ):
            return
        if self.sender_slowstart and self.history.has_loss and not header.fb_has_loss:
            # A loss report can only be suppressed by other loss reports.
            return
        own_rate = self.calculated_rate()
        if self.policy.cancels(own_rate, header.fb_rate):
            self._cancel_timer()
            self.feedback_suppressed += 1
            if self.probe is not None:
                self.probe.emit("suppressed", self.sim.now, self.receiver_id, self.current_round)

    def _on_feedback_timer(self) -> None:
        self._feedback_timer = None
        self._send_feedback(immediate=False)

    def _cancel_timer(self) -> None:
        if self._feedback_timer is not None:
            self._feedback_timer.cancel()
            self._feedback_timer = None

    def _send_feedback(self, immediate: bool, is_leave: bool = False) -> None:
        now = self.sim.now
        echo_delay = now - self._last_data_arrival if self._last_data_arrival > 0 else 0.0
        header = FeedbackHeader(
            receiver_id=self.receiver_id,
            round_id=self.current_round,
            timestamp=self.rtt.local_time(now),
            calculated_rate=self.calculated_rate(),
            receive_rate=self.receive_rate(),
            have_rtt=self.rtt.has_valid_measurement,
            rtt=self.rtt.rtt,
            loss_event_rate=self.history.loss_event_rate,
            has_loss=self.history.has_loss,
            echo_timestamp=self._last_data_timestamp,
            echo_delay=echo_delay,
            is_leave=is_leave,
        )
        packet = Packet(
            src=self.node_id,
            dst=self.sender_node,
            flow_id=self.session_flow_id,
            size=FEEDBACK_PACKET_SIZE,
            ptype=PacketType.FEEDBACK,
            seq=self.feedback_sent,
            payload=header,
        )
        self.send(packet)
        self.feedback_sent += 1
        if immediate:
            self._last_clr_feedback_time = now

    # ------------------------------------------------------------ lifecycle

    def leave(self) -> None:
        """Send a leave report and stop processing packets.

        The caller is responsible for removing the receiver from the
        multicast group (see :class:`repro.session.TFMCCSession`).
        """
        if not self.active:
            return
        self._send_feedback(immediate=True, is_leave=True)
        self._cancel_timer()
        self.active = False
