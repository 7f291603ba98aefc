"""Tests for the unicast TFRC baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TFMCCConfig
from repro.core.loss_history import initial_loss_interval
from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.node import Agent
from repro.simulator.packet import Packet
from repro.simulator.topology import Network
from repro.tfrc.headers import TFRCDataHeader
from repro.tfrc.receiver import TFRCReceiver
from repro.tfrc.sender import TFRCSender


def build_tfrc_flow(sim, bandwidth=2e6, delay=0.02, loss=0.0, queue_limit=50):
    net = Network(sim)
    net.add_duplex_link("a", "b", bandwidth, delay, queue_limit, loss)
    monitor = ThroughputMonitor(sim, interval=1.0)
    config = TFMCCConfig()
    sender = TFRCSender(sim, "tfrc", "b", config=config, monitor=monitor)
    receiver = TFRCReceiver(sim, "tfrc", "a", config=config, monitor=monitor)
    net.attach("a", sender)
    net.attach("b", receiver)
    return net, monitor, sender, receiver


def test_tfrc_fills_clean_bottleneck():
    sim = Simulator(seed=1)
    net, monitor, sender, receiver = build_tfrc_flow(sim, bandwidth=2e6)
    sender.start(0.0)
    sim.run(until=60.0)
    achieved = monitor.average_throughput("tfrc", 20.0, 60.0)
    assert achieved > 0.5 * 2e6


def test_tfrc_slowstart_doubles_until_loss():
    sim = Simulator(seed=2)
    net, monitor, sender, receiver = build_tfrc_flow(sim, bandwidth=10e6, queue_limit=500)
    sender.start(0.0)
    sim.run(until=3.0)
    rate_at_3s = sender.current_rate_bps
    # Well before any loss the rate has grown beyond the initial
    # one-packet-per-RTT rate (16 kbit/s) and keeps growing.
    assert rate_at_3s > 3 * (1000 * 8 / 0.5)
    assert sender.in_slowstart
    sim.run(until=6.0)
    assert sender.current_rate_bps > rate_at_3s


def test_tfrc_reacts_to_random_loss():
    sim_low = Simulator(seed=3)
    _, mon_low, s_low, _ = build_tfrc_flow(sim_low, bandwidth=50e6, loss=0.01)
    s_low.start(0.0)
    sim_low.run(until=60.0)
    sim_high = Simulator(seed=3)
    _, mon_high, s_high, _ = build_tfrc_flow(sim_high, bandwidth=50e6, loss=0.05)
    s_high.start(0.0)
    sim_high.run(until=60.0)
    low_loss_rate = mon_low.average_throughput("tfrc", 20.0, 60.0)
    high_loss_rate = mon_high.average_throughput("tfrc", 20.0, 60.0)
    assert high_loss_rate < low_loss_rate


def test_tfrc_rtt_measured_from_reports():
    sim = Simulator(seed=4)
    net, monitor, sender, receiver = build_tfrc_flow(sim, bandwidth=5e6, delay=0.05)
    sender.start(0.0)
    sim.run(until=20.0)
    assert sender.rtt is not None
    assert 0.08 < sender.rtt < 0.4


def test_tfrc_no_feedback_timer_halves_rate():
    sim = Simulator(seed=5)
    net, monitor, sender, receiver = build_tfrc_flow(sim, bandwidth=5e6)
    sender.start(0.0)
    sim.run(until=10.0)
    rate_before = sender.current_rate
    # Cut the feedback path completely.
    net.link_between("b", "a").set_loss_rate(0.999999)
    sim.run(until=30.0)
    assert sender.current_rate < rate_before


def test_tfrc_stop():
    sim = Simulator(seed=6)
    net, monitor, sender, receiver = build_tfrc_flow(sim)
    sender.start(0.0)
    sender.stop(at=5.0)
    sim.run(until=10.0)
    sent = sender.packets_sent
    sim.run(until=15.0)
    assert sender.packets_sent == sent


# ------------------------------------------- receiver fast path vs the old path


class SlowPathTFRCReceiver(TFRCReceiver):
    """The receiver as it was before the in-order fast path: every packet
    re-sums the arrival window and runs ``update_rtt`` + ``on_packet``."""

    def receive_rate(self):
        if len(self._arrivals) < 2:
            return 0.0
        t_first, first_size = self._arrivals[0]
        duration = self.sim.now - t_first
        if duration <= 0:
            return 0.0
        total = sum(size for _t, size in self._arrivals) - first_size
        return max(total / duration, 0.0)

    def receive(self, packet):
        header = packet.payload
        now = self.sim.now
        self.packets_received += 1
        self._arrivals.append((now, packet.size))
        self._last_data_timestamp = header.timestamp
        self._last_data_arrival = now
        self._rtt_from_sender = max(header.rtt_estimate, 1e-4)
        self.detector.update_rtt(self._rtt_from_sender)
        rate_before = self.receive_rate()
        had_loss = self.history.has_loss
        new_events = self.detector.on_packet(header.seq, header.timestamp)
        if new_events > 0 and not had_loss:
            interval = initial_loss_interval(
                self.config.packet_size, self._rtt_from_sender, max(rate_before, 1.0)
            )
            self.history.seed_first_interval(interval)
            self._send_feedback()
            return
        if self._feedback_timer is None or not self._feedback_timer.pending:
            self._feedback_timer = self.sim.schedule(self._rtt_from_sender, self._send_feedback)


def _drive_tfrc_receiver(arrivals, receiver_class):
    """Deliver ``(seq, size)`` data packets 10 ms apart; return what the
    receiver measured and every report it sent."""
    sim = Simulator(seed=7)
    net = Network(sim)
    net.add_duplex_link("a", "b", 1e7, 0.01)
    reports = []

    class Reports(Agent):
        def receive(self, packet):
            reports.append((sim.now, packet.payload))

    net.attach("a", Reports(sim, "tfrc"))
    receiver = receiver_class(sim, "tfrc", "a")
    net.attach("b", receiver)
    rates = []

    def deliver(seq, size):
        header = TFRCDataHeader(
            seq=seq, timestamp=sim.now - 0.02, rtt_estimate=0.05, send_rate=50_000.0
        )
        receiver.receive(Packet(src="a", dst="b", flow_id="tfrc", size=size, seq=seq,
                                payload=header))
        rates.append(receiver.receive_rate())

    for index, (seq, size) in enumerate(arrivals):
        sim.schedule_at(0.05 + index * 0.01, deliver, seq, size)
    sim.run()
    history = receiver.history
    return {
        "loss_events": receiver.detector.loss_events,
        "packets_lost": receiver.detector.packets_lost,
        "intervals": history.intervals,
        "open_interval": history.open_interval,
        "loss_event_rate": history.loss_event_rate,
        "feedback_sent": receiver.feedback_sent,
        "receive_rate": receiver.receive_rate(),
        "rates": rates,
        "reports": [(t, h.receive_rate, h.loss_event_rate, h.has_loss) for t, h in reports],
    }


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 1, 1, 1, 1, 2, 3, 12, 0, -1, -2]),  # gaps, duplicates, reorders
            st.sampled_from([40, 576, 1000, 1500]),
        ),
        min_size=20,  # longer than the 16-packet arrival window
        max_size=120,
    )
)
def test_tfrc_receiver_fast_path_matches_the_old_path(steps):
    arrivals, seq = [], 0
    for step, size in steps:
        seq = max(seq + step, 0)
        arrivals.append((seq, size))
    fast = _drive_tfrc_receiver(arrivals, TFRCReceiver)
    assert fast == _drive_tfrc_receiver(arrivals, SlowPathTFRCReceiver)
    assert fast["feedback_sent"] > 0


def test_tfrc_receiver_fast_path_sees_the_first_loss_and_later_ones():
    seqs = list(range(20)) + list(range(22, 40)) + [42, 40, 41] + list(range(43, 60)) + [59]
    arrivals = [(seq, 1000) for seq in seqs + [75] + list(range(76, 120))]
    fast = _drive_tfrc_receiver(arrivals, TFRCReceiver)
    assert fast == _drive_tfrc_receiver(arrivals, SlowPathTFRCReceiver)
    assert fast["loss_events"] >= 3 and len(fast["intervals"]) >= 2
