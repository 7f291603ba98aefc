"""Greedy TCP Reno sender.

The sender models ns-2's one-way TCP agent: an infinite (FTP-like) source,
segment-based sequence numbers, cumulative ACKs, slow start, congestion
avoidance, fast retransmit / fast recovery and an exponential-backoff
retransmission timer with Jacobson RTT estimation and Karn's rule.  The
timer is a deadline: an ACK moves it without touching the event heap.
"""

from __future__ import annotations

from typing import Optional

from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.node import Agent
from repro.simulator.packet import Packet, PacketType
from repro.tcp.segments import TCPAck, TCPSegment

DATA, ACK = PacketType.DATA, PacketType.ACK

# Sizes follow common simulation practice: 1000-byte segments, 40-byte ACKs.
DEFAULT_SEGMENT_SIZE = 1000
ACK_SIZE = 40


class TCPRenoSender(Agent):
    """TCP Reno sender with an always-backlogged application.

    Parameters
    ----------
    sim:
        Simulator.
    flow_id:
        Flow identifier; the matching :class:`~repro.tcp.sink.TCPSink` must be
        attached under the same flow id at ``dst``.
    dst:
        Destination node id.
    segment_size:
        Segment size in bytes.
    initial_cwnd:
        Initial congestion window in segments.
    max_cwnd:
        Upper bound on the congestion window (receiver window).
    monitor:
        Optional throughput monitor; the *sink* records received bytes, but
        the sender records goodput-relevant retransmission statistics here.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        dst: str,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        initial_cwnd: float = 2.0,
        max_cwnd: float = 10000.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        monitor: Optional[ThroughputMonitor] = None,
    ):
        super().__init__(sim, flow_id)
        self.dst = dst
        self.segment_size = segment_size
        self.monitor = monitor
        # Congestion control state (in segments).
        self.cwnd = float(initial_cwnd)
        self.initial_cwnd = float(initial_cwnd)
        self.ssthresh = float(max_cwnd)
        self.max_cwnd = float(max_cwnd)
        # Sequence state.
        self.next_seq = 0  # next new segment to send
        self.highest_acked = -1  # highest cumulatively acked segment
        self.dup_acks = 0
        self.in_fast_recovery = False
        self.recovery_point = -1
        # RTT estimation (Jacobson) and RTO management.
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.rto = 3.0
        self.backoff = 1
        self._rto_timer: Optional[EventHandle] = None
        self._rto_deadline = 0.0
        # Statistics.
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.acks_received = 0
        self.running = False
        self._stop_at: Optional[float] = None

    # ------------------------------------------------------------ lifecycle

    def start(self, at: float = 0.0) -> None:
        """Start the flow at simulation time ``at``."""
        self.sim.schedule_at(max(at, self.sim.now), self._begin)

    def stop(self, at: Optional[float] = None) -> None:
        """Stop the flow at time ``at`` (immediately if None)."""
        if at is None or at <= self.sim.now:
            self._halt()
        else:
            self.sim.schedule_at(at, self._halt)

    def _begin(self) -> None:
        self.running = True
        self._send_allowed()
        self._restart_rto_timer()

    def _halt(self) -> None:
        self.running = False
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    # ------------------------------------------------------------ sending

    @property
    def flight_size(self) -> int:
        """Number of unacknowledged segments in flight."""
        return self.next_seq - (self.highest_acked + 1)

    def _send_allowed(self) -> None:
        """Send as many new segments as the window allows (back to back)."""
        if not self.running:
            return
        limit = self.highest_acked + 1 + int(min(self.cwnd, self.max_cwnd))
        while self.next_seq < limit:
            self._transmit(self.next_seq, False)
            self.next_seq += 1

    def _transmit(self, seq: int, retransmit: bool) -> None:
        header = TCPSegment(seq, self.sim.now, retransmit)
        size = self.segment_size
        self.send(Packet(self.node_id, self.dst, self.flow_id, size, DATA, None, seq, 0.0, header))
        self.segments_sent += 1
        if retransmit:
            self.retransmits += 1

    # ------------------------------------------------------------ receiving

    def receive(self, packet: Packet) -> None:
        """Handle an incoming ACK."""
        if not self.running or packet.ptype is not ACK:
            return
        ack: TCPAck = packet.payload
        self.acks_received += 1
        if ack.ack - 1 > self.highest_acked:
            self._handle_new_ack(ack)
        else:
            self._handle_dup_ack(ack)
        self._send_allowed()

    def _handle_new_ack(self, ack: TCPAck) -> None:
        newly_acked = (ack.ack - 1) - self.highest_acked
        self.highest_acked = ack.ack - 1
        self.dup_acks = 0
        # RTT sampling, Karn's rule: never sample from echoed retransmits.
        if not ack.echoed_retransmit:
            self._update_rtt(self.sim.now - ack.echo_timestamp)
        self.backoff = 1
        if self.in_fast_recovery:
            if self.highest_acked >= self.recovery_point:
                # Full ACK: leave fast recovery.
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ACK (NewReno-style): retransmit next hole.
                self.cwnd = max(self.ssthresh, self.cwnd - newly_acked + 1)
                self._transmit(self.highest_acked + 1, retransmit=True)
        else:
            for _ in range(newly_acked):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0  # slow start
                else:
                    self.cwnd += 1.0 / self.cwnd  # congestion avoidance
            self.cwnd = min(self.cwnd, self.max_cwnd)
        self._restart_rto_timer()

    def _handle_dup_ack(self, ack: TCPAck) -> None:
        self.dup_acks += 1
        if self.in_fast_recovery:
            # Window inflation keeps the pipe full during recovery.
            self.cwnd += 1.0
            return
        if self.dup_acks == 3:
            # Fast retransmit.
            self.ssthresh = max(self.flight_size / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self.in_fast_recovery = True
            self.recovery_point = self.next_seq - 1
            self._transmit(self.highest_acked + 1, retransmit=True)
            self._restart_rto_timer()

    # ------------------------------------------------------------ timers

    def _update_rtt(self, sample: float) -> None:
        if sample <= 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(self.max_rto, max(self.min_rto, self.srtt + 4.0 * self.rttvar))

    def _restart_rto_timer(self) -> None:
        timer = self._rto_timer
        if not self.running:
            if timer is not None:
                timer.cancel()
            return
        self._rto_deadline = deadline = self.sim.now + self.rto * self.backoff
        if timer is None or not timer.pending or deadline < timer[0]:
            # reschedule_at() cancels a pending timer and reuses a fired one.
            self._rto_timer = self.sim.reschedule_at(timer, deadline, self._on_timeout)

    def _on_timeout(self) -> None:
        if not self.running:
            return
        sim, deadline = self.sim, self._rto_deadline
        if sim.now < deadline:  # an ACK moved the deadline on
            self._rto_timer = sim.reschedule_at(self._rto_timer, deadline, self._on_timeout)
            return
        if self.flight_size <= 0:
            # Nothing outstanding; just re-arm.
            self._restart_rto_timer()
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_fast_recovery = False
        self.backoff = min(self.backoff * 2, 64)
        # Go-back-N from the first unacked segment.
        self.next_seq = self.highest_acked + 1
        self._transmit(self.next_seq, retransmit=True)
        self.next_seq += 1
        self._restart_rto_timer()
