"""TFMCC sender agent.

The sender multicasts data packets at its current rate and adjusts that rate
from receiver reports:

* the **current limiting receiver (CLR)** -- the receiver believed to have
  the lowest expected throughput -- reports without suppression and directly
  drives the rate (immediate decrease, increase limited by the equation and,
  after a CLR change, by one packet per RTT);
* reports from other receivers indicating a lower rate trigger an immediate
  rate reduction and a CLR change;
* the sender manages feedback rounds, echoes the lowest-rate feedback of the
  current round in data packets (for suppression), and schedules one
  RTT-measurement echo per data packet according to the priority rules of
  Section 2.4.2;
* during **slowstart** the rate target is a multiple of the minimum receive
  rate reported by any receiver, and slowstart ends at the first loss report;
* a CLR that stops reporting for a configurable number of feedback delays is
  timed out; an explicit leave report removes it immediately (with the
  optional Appendix C "previous CLR" memory).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import TFMCCConfig
from repro.core.headers import DataHeader, FeedbackHeader
from repro.core.rtt import SenderRTTEstimator
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.node import Agent
from repro.simulator.packet import Packet, PacketType

# Echo priority classes (Section 2.4.2); lower value = higher priority.
PRIORITY_NEW_CLR = 0
PRIORITY_NO_RTT = 1
PRIORITY_HAS_RTT = 2
PRIORITY_CLR = 3


@dataclass
class _EchoRequest:
    """Pending RTT-measurement echo for one receiver report."""

    receiver_id: str
    feedback_timestamp: float
    received_at: float
    priority: int
    reported_rate: float


@dataclass
class _ReceiverRecord:
    """What the sender remembers about a receiver from its reports."""

    receiver_id: str
    rate: float
    rtt: float
    have_rtt: bool
    has_loss: bool
    last_report_time: float
    receive_rate: float = 0.0


@dataclass
class _CLRMemory:
    """Appendix C: remembered previous CLR."""

    receiver_id: str
    rate: float
    stored_at: float


class TFMCCSender(Agent):
    """The TFMCC sender.

    Parameters
    ----------
    sim:
        Simulator.
    flow_id:
        Session flow id; receivers address their feedback to this flow.
    group_id:
        Multicast group the data packets are sent to.
    config:
        Protocol configuration.
    monitor:
        Optional monitor that records *sent* bytes under ``flow_id`` (receiver
        monitors record delivered bytes).
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        group_id: str,
        config: Optional[TFMCCConfig] = None,
        monitor: Optional[ThroughputMonitor] = None,
    ):
        super().__init__(sim, flow_id)
        self.group_id = group_id
        self.config = config if config is not None else TFMCCConfig()
        self.monitor = monitor
        cfg = self.config

        # Rate control state (rates in bytes per second).
        self.current_rate: float = cfg.initial_rate_packets * cfg.packet_size / cfg.initial_rtt
        self.target_rate: float = self.current_rate
        self.in_slowstart: bool = True
        self.min_rate: float = cfg.packet_size / (2.0 * cfg.feedback_delay)

        # CLR state.
        self.clr_id: Optional[str] = None
        self.clr_rate: float = math.inf
        self.clr_rtt: float = cfg.max_rtt
        self.clr_last_report: float = -math.inf
        self._previous_clr: Optional[_CLRMemory] = None
        self._increase_limited: bool = False

        # Feedback round state.
        self.round_id: int = 0
        self._round_best_rate: Optional[float] = None
        self._round_best_receiver: Optional[str] = None
        self._round_best_has_loss: bool = False
        self._round_timer: Optional[EventHandle] = None
        self._round_feedback = 0
        self._round_nonclr_feedback = 0

        # Optional structured trace sink (repro.metrics.trace.TraceRecorder);
        # None keeps every probe branch to a single attribute test.
        self.probe = None

        # Slowstart bookkeeping: minimum receive rate reported this round.
        self._slowstart_min_receive: Optional[float] = None

        # Echo scheduling: a heap ordered by (priority, reported rate,
        # arrival order) — equivalent to the stable sort-and-pop it replaces,
        # without re-sorting on every data packet.
        self._echo_queue: List[tuple] = []
        self._echo_count = 0
        self._clr_echo: Optional[_EchoRequest] = None

        # Receiver knowledge.
        self.receivers: Dict[str, _ReceiverRecord] = {}
        self.sender_rtt = SenderRTTEstimator()

        # Transmission loop.
        self._send_timer: Optional[EventHandle] = None
        self.running = False
        self.seq = 0

        # Statistics.
        self.packets_sent = 0
        self.bytes_sent = 0
        self.feedback_received = 0
        self.clr_changes = 0
        self.slowstart_exited_at: Optional[float] = None

    # ------------------------------------------------------------ lifecycle

    def start(self, at: float = 0.0) -> None:
        """Start the session at simulation time ``at``."""
        self.sim.schedule_at(max(at, self.sim.now), self._begin)

    def stop(self, at: Optional[float] = None) -> None:
        """Stop sending at time ``at`` (immediately if None)."""
        if at is None or at <= self.sim.now:
            self._halt()
        else:
            self.sim.schedule_at(at, self._halt)

    def _begin(self) -> None:
        self.running = True
        self._schedule_round_end()
        self._send_next_packet()

    def _halt(self) -> None:
        self.running = False
        if self._send_timer is not None:
            self._send_timer.cancel()
            self._send_timer = None
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    # ------------------------------------------------------------ rate control

    @property
    def current_rate_bps(self) -> float:
        """Current sending rate in bits per second."""
        return self.current_rate * 8.0

    def _packet_interval(self) -> float:
        return self.config.packet_size / max(self.current_rate, self.min_rate)

    def _clamp_rate(self, rate: float) -> float:
        return max(rate, self.min_rate)

    def _reduce_rate(self, rate: float) -> None:
        """Immediately reduce the sending rate (and target) to ``rate``."""
        rate = self._clamp_rate(rate)
        if rate < self.current_rate:
            self.current_rate = rate
        self.target_rate = rate

    def _set_target_rate(self, rate: float, limit_increase: bool) -> None:
        """Set the target rate; increases may be limited to 1 pkt/RTT per RTT."""
        rate = self._clamp_rate(rate)
        if rate <= self.current_rate:
            self._reduce_rate(rate)
            return
        if limit_increase:
            rtt = self.clr_rtt if self.clr_rtt > 0 else self.config.max_rtt
            max_increase = (
                self.config.clr_increase_limit_packets_per_rtt * self.config.packet_size / rtt
            )
            # The limit is per RTT; CLR reports arrive about once per RTT, and
            # the no-CLR increase path applies it once per RTT as well.
            rate = min(rate, self.current_rate + max_increase)
        self.target_rate = rate

    def _adjust_rate_towards_target(self, dt: float) -> None:
        """Move the current rate towards the target over roughly one RTT."""
        if self.target_rate <= self.current_rate:
            self.current_rate = max(self.target_rate, self.min_rate)
            return
        rtt = self.clr_rtt if self.clr_rtt > 0 else self.config.max_rtt
        fraction = min(1.0, dt / rtt)
        self.current_rate = min(
            self.target_rate, self.current_rate + (self.target_rate - self.current_rate) * fraction
        )

    # ------------------------------------------------------------ transmission

    def _send_next_packet(self) -> None:
        if not self.running:
            return
        interval = self._packet_interval()
        self._transmit_data_packet()
        self._adjust_rate_towards_target(interval)
        self._check_clr_timeout()
        # Recurring-timer fast path: the fired handle is reused in place.
        self._send_timer = self.sim.reschedule(
            self._send_timer, self._packet_interval(), self._send_next_packet
        )

    def _transmit_data_packet(self) -> None:
        echo = self._pop_echo()
        header = DataHeader(
            seq=self.seq,
            timestamp=self.sim.now,
            send_rate=self.current_rate,
            round_id=self.round_id,
            max_rtt=self.config.max_rtt,
            is_slowstart=self.in_slowstart,
            clr_id=self.clr_id,
            echo_receiver_id=echo.receiver_id if echo else None,
            echo_timestamp=echo.feedback_timestamp if echo else 0.0,
            echo_delay=(self.sim.now - echo.received_at) if echo else 0.0,
            fb_receiver_id=self._round_best_receiver,
            fb_rate=self._round_best_rate,
            fb_round=self.round_id if self._round_best_rate is not None else None,
            fb_has_loss=self._round_best_has_loss,
        )
        packet = Packet(
            src=self.node_id,
            dst=None,
            flow_id=self.flow_id,
            size=self.config.packet_size,
            ptype=PacketType.DATA,
            group=self.group_id,
            seq=self.seq,
            payload=header,
        )
        self.send(packet)
        self.seq += 1
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if self.monitor is not None:
            self.monitor.record(self.flow_id, packet.size)

    def _pop_echo(self) -> Optional[_EchoRequest]:
        """Pick the highest-priority pending echo (ties: lowest reported rate)."""
        if self._echo_queue:
            return heapq.heappop(self._echo_queue)[3]
        return self._clr_echo

    # ------------------------------------------------------------ feedback rounds

    def _round_duration(self) -> float:
        """Length of a feedback round: the feedback delay plus one max RTT."""
        delay = self.config.feedback_delay_for_rate(self.current_rate_bps)
        return delay + self.config.max_rtt

    def _schedule_round_end(self) -> None:
        # reschedule() cancels a still-pending timer and reuses a fired one.
        self._round_timer = self.sim.reschedule(
            self._round_timer, self._round_duration(), self._end_round
        )

    def _end_round(self) -> None:
        if not self.running:
            return
        # Slowstart: apply the round's minimum receive rate before resetting.
        if self.in_slowstart and self._slowstart_min_receive is not None:
            target = self.config.slowstart_overshoot * self._slowstart_min_receive
            self._set_target_rate(target, limit_increase=False)
        # No-CLR additive increase: with no limiting receiver known the rate
        # creeps up by at most one packet per RTT so that low-rate receivers
        # start reporting and a CLR is found.
        if self.clr_id is None and not self.in_slowstart:
            rtt = self.config.max_rtt
            per_round = (
                self.config.clr_increase_limit_packets_per_rtt
                * self.config.packet_size
                * (self._round_duration() / rtt)
                / rtt
            )
            self._set_target_rate(self.current_rate + per_round * rtt, limit_increase=False)
        if self.probe is not None:
            self.probe.emit(
                "round",
                self.sim.now,
                self.flow_id,
                self.round_id,
                self.current_rate_bps,
                self._round_feedback,
                self._round_nonclr_feedback,
            )
        self._round_feedback = 0
        self._round_nonclr_feedback = 0
        self.round_id += 1
        self._round_best_rate = None
        self._round_best_receiver = None
        self._round_best_has_loss = False
        self._slowstart_min_receive = None
        self._schedule_round_end()

    # ------------------------------------------------------------ feedback handling

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not PacketType.FEEDBACK:
            return
        header = packet.payload
        if not isinstance(header, FeedbackHeader):
            return
        self.feedback_received += 1
        now = self.sim.now
        self._round_feedback += 1
        is_clr_report = header.receiver_id == self.clr_id
        if not is_clr_report:
            self._round_nonclr_feedback += 1
        if self.probe is not None:
            self.probe.emit("feedback", now, self.flow_id, header.receiver_id, is_clr_report)
        if header.is_leave:
            self._handle_leave(header)
            return

        adjusted_rate = self._adjusted_rate(header, now)
        record = _ReceiverRecord(
            receiver_id=header.receiver_id,
            rate=adjusted_rate,
            rtt=header.rtt,
            have_rtt=header.have_rtt,
            has_loss=header.has_loss,
            last_report_time=now,
            receive_rate=header.receive_rate,
        )
        self.receivers[header.receiver_id] = record

        # Track the round's best (lowest) feedback for the suppression echo.
        if self._round_best_rate is None or adjusted_rate < self._round_best_rate:
            self._round_best_rate = adjusted_rate
            self._round_best_receiver = header.receiver_id
            self._round_best_has_loss = header.has_loss

        # Slowstart bookkeeping.
        if self.in_slowstart:
            if header.has_loss:
                self._exit_slowstart()
            else:
                rate = max(header.receive_rate, 1.0)
                if self._slowstart_min_receive is None or rate < self._slowstart_min_receive:
                    self._slowstart_min_receive = rate

        is_new_clr = self._update_clr(header, adjusted_rate, now)
        self._queue_echo(header, now, is_new_clr, adjusted_rate)

    def _adjusted_rate(self, header: FeedbackHeader, now: float) -> float:
        """Rate from a report, adjusted with a sender-side RTT if necessary."""
        if header.have_rtt or not header.has_loss:
            return header.calculated_rate
        measured = self.sender_rtt.update(
            header.receiver_id, now, header.echo_timestamp, header.echo_delay
        )
        return self.sender_rtt.adjust_reported_rate(
            header.calculated_rate, header.rtt, measured
        )

    def _update_clr(self, header: FeedbackHeader, rate: float, now: float) -> bool:
        """Update CLR selection and the sending rate.  Returns True on CLR change."""
        receiver = header.receiver_id
        if self.in_slowstart and not header.has_loss:
            return False

        if self.clr_id is None:
            self._switch_clr(receiver, rate, header.rtt, now)
            self._reduce_rate(min(rate, self.current_rate))
            return True

        if receiver == self.clr_id:
            self.clr_last_report = now
            self.clr_rate = rate
            if header.have_rtt:
                self.clr_rtt = header.rtt
            self._set_target_rate(rate, limit_increase=self._increase_limited)
            if self._increase_limited and self.target_rate >= rate:
                self._increase_limited = False
            self._maybe_restore_previous_clr(now)
            return False

        if rate < self._effective_clr_rate():
            # A lower-rate receiver takes over as CLR; reduce immediately.
            self._remember_clr(now)
            self._switch_clr(receiver, rate, header.rtt, now)
            self._reduce_rate(rate)
            return True
        return False

    def _effective_clr_rate(self) -> float:
        """The rate the current CLR limits us to (current rate if unknown)."""
        if math.isinf(self.clr_rate):
            return self.current_rate
        return min(self.clr_rate, max(self.current_rate, self.target_rate))

    def _switch_clr(self, receiver: str, rate: float, rtt: float, now: float) -> None:
        if self.clr_id != receiver:
            self.clr_changes += 1
            self._increase_limited = True
            if self.probe is not None:
                self.probe.emit("clr_change", now, self.flow_id, receiver, rate * 8.0)
        self.clr_id = receiver
        self.clr_rate = rate
        self.clr_rtt = rtt if rtt > 0 else self.config.max_rtt
        self.clr_last_report = now

    def _remember_clr(self, now: float) -> None:
        if self.config.remember_previous_clr and self.clr_id is not None:
            self._previous_clr = _CLRMemory(self.clr_id, self.clr_rate, now)

    def _maybe_restore_previous_clr(self, now: float) -> None:
        """Appendix C: switch back to the stored CLR if it is still lower."""
        if not self.config.remember_previous_clr or self._previous_clr is None:
            return
        memory = self._previous_clr
        timeout = self.config.previous_clr_timeout_rtts * max(self.clr_rtt, 1e-3)
        if now - memory.stored_at > timeout:
            self._previous_clr = None
            return
        if memory.rate < self.clr_rate and memory.receiver_id in self.receivers:
            self._switch_clr(memory.receiver_id, memory.rate, self.clr_rtt, now)
            self._reduce_rate(memory.rate)
            self._previous_clr = None

    def _handle_leave(self, header: FeedbackHeader) -> None:
        self.receivers.pop(header.receiver_id, None)
        if header.receiver_id == self.clr_id:
            self._drop_clr()

    def _check_clr_timeout(self) -> None:
        if self.clr_id is None:
            return
        timeout = self.config.clr_timeout_feedback_delays * self.config.feedback_delay_for_rate(
            self.current_rate_bps
        )
        if self.sim.now - self.clr_last_report > timeout:
            self.receivers.pop(self.clr_id, None)
            self._drop_clr()

    def _drop_clr(self) -> None:
        """The CLR left or timed out: promote the next-lowest known receiver."""
        self.clr_id = None
        self.clr_rate = math.inf
        candidates = [r for r in self.receivers.values() if r.has_loss or not self.in_slowstart]
        if candidates:
            best = min(candidates, key=lambda r: r.rate)
            self._switch_clr(best.receiver_id, best.rate, best.rtt, self.sim.now)
            # The new CLR may allow a much higher rate: increase gradually.
            self._set_target_rate(best.rate, limit_increase=True)
        # Otherwise stay CLR-less; _end_round applies the additive increase.

    def _exit_slowstart(self) -> None:
        if self.in_slowstart:
            self.in_slowstart = False
            self.slowstart_exited_at = self.sim.now
            if self.probe is not None:
                self.probe.emit(
                    "slowstart_exit", self.sim.now, self.flow_id, self.current_rate_bps
                )

    # ------------------------------------------------------------ echo scheduling

    def _queue_echo(
        self, header: FeedbackHeader, now: float, is_new_clr: bool, rate: float
    ) -> None:
        if is_new_clr:
            priority = PRIORITY_NEW_CLR
        elif not header.have_rtt:
            priority = PRIORITY_NO_RTT
        elif header.receiver_id == self.clr_id:
            priority = PRIORITY_CLR
        else:
            priority = PRIORITY_HAS_RTT
        request = _EchoRequest(
            receiver_id=header.receiver_id,
            feedback_timestamp=header.timestamp,
            received_at=now,
            priority=priority,
            reported_rate=rate,
        )
        if header.receiver_id == self.clr_id:
            # The CLR's last report fills any data packet without a pending echo.
            self._clr_echo = request
        if priority != PRIORITY_CLR:
            count = self._echo_count
            self._echo_count = count + 1
            heapq.heappush(self._echo_queue, (priority, rate, count, request))
