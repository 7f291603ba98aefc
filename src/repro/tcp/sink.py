"""TCP sink: cumulative acknowledgements and goodput accounting."""

from __future__ import annotations

from typing import Optional, Set

from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.node import Agent
from repro.simulator.packet import Packet
from repro.tcp.segments import TCPAck, TCPSegment
from repro.tcp.reno import ACK, ACK_SIZE, DATA


class TCPSink(Agent):
    """Receiver side of a TCP flow.

    Sends an immediate cumulative ACK for every data segment received (no
    delayed ACKs, matching ns-2's default one-way TCP sink) and records
    goodput in an optional :class:`ThroughputMonitor`.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        src: str,
        monitor: Optional[ThroughputMonitor] = None,
    ):
        super().__init__(sim, flow_id)
        self.src = src
        self.monitor = monitor
        self.next_expected = 0
        self._out_of_order: Set[int] = set()
        self.segments_received = 0
        self.bytes_received = 0
        self.duplicate_segments = 0

    def receive(self, packet: Packet) -> None:
        if packet.ptype is not DATA:
            return
        segment: TCPSegment = packet.payload
        self.segments_received += 1
        if segment.seq < self.next_expected or segment.seq in self._out_of_order:
            self.duplicate_segments += 1
        else:
            self.bytes_received += packet.size
            if self.monitor is not None:
                self.monitor.record(self.flow_id, packet.size)
            if segment.seq == self.next_expected:
                self.next_expected += 1
                while self.next_expected in self._out_of_order:
                    self._out_of_order.discard(self.next_expected)
                    self.next_expected += 1
            else:
                self._out_of_order.add(segment.seq)
        seq = self.next_expected
        ack = TCPAck(seq, segment.timestamp, segment.is_retransmit)
        self.send(Packet(self.node_id, self.src, self.flow_id, ACK_SIZE, ACK, None, seq, 0.0, ack))
