"""TFRC receiver: loss measurement and once-per-RTT feedback."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.config import TFMCCConfig
from repro.core.loss_history import LossEventDetector, LossIntervalHistory, initial_loss_interval
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.node import Agent
from repro.simulator.packet import Packet, PacketType
from repro.tfrc.headers import TFRCDataHeader, TFRCFeedbackHeader

FEEDBACK_PACKET_SIZE = 48
RECEIVE_RATE_WINDOW = 16


class TFRCReceiver(Agent):
    """Receiver half of a unicast TFRC flow.

    The receiver measures the loss event rate exactly as a TFMCC receiver
    does (shared loss-history code), measures its receive rate, and sends a
    feedback report once per RTT (the RTT estimate is taken from the data
    header, since in TFRC it is the sender that measures the RTT).
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        sender_node: str,
        config: Optional[TFMCCConfig] = None,
        monitor: Optional[ThroughputMonitor] = None,
    ):
        super().__init__(sim, flow_id)
        self.sender_node = sender_node
        self.config = config if config is not None else TFMCCConfig()
        self.monitor = monitor
        self.history = LossIntervalHistory(self.config.loss_interval_weights)
        self.detector = LossEventDetector(self.history, self.config.initial_rtt)
        # Arrival window with its byte total kept incrementally, so the hot
        # path never re-sums the window.
        self._arrivals: Deque[Tuple[float, int]] = deque(maxlen=RECEIVE_RATE_WINDOW)
        self._arrival_bytes = 0
        self._feedback_timer: Optional[EventHandle] = None
        self._last_data_timestamp = 0.0
        self._last_data_arrival = 0.0
        self._rtt_from_sender = self.config.initial_rtt
        self.packets_received = 0
        self.feedback_sent = 0
        # Optional TraceRecorder (same pattern as the TFMCC receiver).
        self.probe = None

    def receive_rate(self) -> float:
        """Receive rate in bytes/s over the recent arrival window."""
        if len(self._arrivals) < 2:
            return 0.0
        t_first, first_size = self._arrivals[0]
        duration = self.sim.now - t_first
        if duration <= 0:
            return 0.0
        total = self._arrival_bytes - first_size
        return max(total / duration, 0.0)

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not PacketType.DATA:
            return
        header = packet.payload
        if not isinstance(header, TFRCDataHeader):
            return
        now = self.sim.now
        size = packet.size
        self.packets_received += 1
        if self.monitor is not None:
            self.monitor.record(self.flow_id, size)
        arrivals = self._arrivals
        if len(arrivals) == RECEIVE_RATE_WINDOW:
            # deque(maxlen) is about to evict the oldest entry.
            self._arrival_bytes -= arrivals[0][1]
        arrivals.append((now, size))
        self._arrival_bytes += size
        self._last_data_timestamp = header.timestamp
        self._last_data_arrival = now
        rtt = self._rtt_from_sender = max(header.rtt_estimate, 1e-4)
        # An in-order arrival only advances the detector.  The rate seeding
        # the history is read at the first loss event; the detector does not
        # touch the arrival window, so it equals a snapshot taken before.
        detector = self.detector
        if not detector.on_in_order_packet(header.seq, header.timestamp, rtt):
            detector.update_rtt(rtt)
            had_loss = self.history.has_loss
            new_events = detector.on_packet(header.seq, header.timestamp)
            if new_events > 0:
                first_loss = not had_loss
                if first_loss:
                    interval = initial_loss_interval(
                        self.config.packet_size, rtt, max(self.receive_rate(), 1.0)
                    )
                    self.history.seed_first_interval(interval)
                # Seed before emitting so the traced rate is the post-seed
                # value (same ordering as the TFMCC receiver).
                if self.probe is not None:
                    self.probe.emit(
                        "loss_event", now, self.flow_id, new_events, self.history.loss_event_rate
                    )
                if first_loss:
                    # Losses must be reported without delay.
                    self._send_feedback()
                    return
        if self._feedback_timer is None or not self._feedback_timer.pending:
            self._feedback_timer = self.sim.schedule(self._rtt_from_sender, self._send_feedback)

    def _send_feedback(self) -> None:
        now = self.sim.now
        header = TFRCFeedbackHeader(
            timestamp=now,
            echo_timestamp=self._last_data_timestamp,
            echo_delay=now - self._last_data_arrival,
            receive_rate=self.receive_rate(),
            loss_event_rate=self.history.loss_event_rate,
            has_loss=self.history.has_loss,
        )
        self.send(
            Packet(
                src=self.node_id,
                dst=self.sender_node,
                flow_id=self.flow_id,
                size=FEEDBACK_PACKET_SIZE,
                ptype=PacketType.FEEDBACK,
                seq=self.feedback_sent,
                payload=header,
            )
        )
        self.feedback_sent += 1
