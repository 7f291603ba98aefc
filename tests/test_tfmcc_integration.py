"""Integration tests for the TFMCC sender/receiver on the packet simulator."""

import pytest

from repro import (
    Network,
    Simulator,
    TCPRenoSender,
    TCPSink,
    TFMCCConfig,
    TFMCCSession,
    ThroughputMonitor,
)


def single_bottleneck_session(seed=1, bandwidth=2e6, receivers=2, config=None):
    sim = Simulator(seed=seed)
    net = Network.dumbbell(sim, 1, max(receivers, 1), bandwidth, 0.02, bandwidth * 10, 0.001)
    monitor = ThroughputMonitor(sim, interval=1.0)
    session = TFMCCSession(sim, net, sender_node="src0", config=config, monitor=monitor)
    rcvs = [session.add_receiver(f"dst{i}") for i in range(receivers)]
    session.start(0.0)
    return sim, net, monitor, session, rcvs


def test_single_receiver_converges_near_bottleneck():
    sim, net, monitor, session, rcvs = single_bottleneck_session(seed=1, receivers=1)
    sim.run(until=60.0)
    achieved = monitor.average_throughput(rcvs[0].receiver_id, 20.0, 60.0)
    assert achieved > 0.5 * 2e6
    assert session.sender.packets_sent > 100


def test_slowstart_exits_on_first_loss():
    sim, net, monitor, session, rcvs = single_bottleneck_session(seed=2, receivers=1)
    sim.run(until=60.0)
    assert not session.sender.in_slowstart
    assert session.sender.slowstart_exited_at is not None
    assert rcvs[0].has_experienced_loss


def test_receiver_measures_rtt_via_echo():
    sim, net, monitor, session, rcvs = single_bottleneck_session(seed=3, receivers=2)
    sim.run(until=40.0)
    for receiver in rcvs:
        assert receiver.rtt.has_valid_measurement
        # Base RTT ~44 ms; with queueing it stays well below the 500 ms default.
        assert 0.01 < receiver.rtt.rtt < 0.45


def test_clr_is_selected():
    sim, net, monitor, session, rcvs = single_bottleneck_session(seed=4, receivers=2)
    sim.run(until=40.0)
    assert session.sender.clr_id in {r.receiver_id for r in rcvs}


def test_sender_tracks_worst_receiver_on_lossy_star():
    # Two receivers: one on a clean link, one behind 5 % loss.  The sender
    # must pick the lossy receiver as CLR and keep the rate near its
    # calculated rate, well below the clean receiver's potential.
    sim = Simulator(seed=5)
    net = Network(sim)
    net.add_duplex_link("source", "hub", 20e6, 0.001)
    net.add_duplex_link("hub", "clean", 10e6, 0.02)
    net.add_duplex_link("hub", "lossy", 10e6, 0.02, loss_rate=0.05)
    monitor = ThroughputMonitor(sim, interval=1.0)
    session = TFMCCSession(sim, net, sender_node="source", monitor=monitor)
    clean = session.add_receiver("clean", receiver_id="clean-rcv")
    lossy = session.add_receiver("lossy", receiver_id="lossy-rcv")
    session.start(0.0)
    sim.run(until=80.0)
    assert session.sender.clr_id == "lossy-rcv"
    assert lossy.loss_event_rate > clean.loss_event_rate
    # The sending rate is far below the clean 10 Mbit/s path capacity.
    assert session.sender.current_rate_bps < 4e6


def test_rate_drops_when_lossy_receiver_joins_and_recovers_after_leave():
    sim = Simulator(seed=6)
    net = Network(sim)
    net.add_duplex_link("source", "hub", 20e6, 0.001)
    net.add_duplex_link("hub", "clean", 4e6, 0.02)
    net.add_duplex_link("hub", "lossy", 4e6, 0.02, loss_rate=0.08)
    monitor = ThroughputMonitor(sim, interval=1.0)
    session = TFMCCSession(sim, net, sender_node="source", monitor=monitor)
    session.add_receiver("clean", receiver_id="clean-rcv")
    session.start(0.0)
    session.add_receiver_at(40.0, "lossy", receiver_id="lossy-rcv")
    session.remove_receiver_at(80.0, "lossy-rcv")
    sim.run(until=120.0)
    before = monitor.average_throughput("clean-rcv", 20.0, 40.0)
    during = monitor.average_throughput("clean-rcv", 55.0, 80.0)
    after = monitor.average_throughput("clean-rcv", 100.0, 120.0)
    assert during < before  # the lossy receiver drags the rate down
    assert after > during  # and the rate recovers after it leaves


def test_feedback_suppression_limits_report_volume():
    # Eight receivers behind one bottleneck experience the same congestion;
    # suppression must keep the total feedback volume far below one report
    # per receiver per round.
    sim, net, monitor, session, rcvs = single_bottleneck_session(seed=7, receivers=8)
    sim.run(until=60.0)
    total_feedback = sum(r.feedback_sent for r in rcvs)
    total_suppressed = sum(r.feedback_suppressed for r in rcvs)
    assert total_suppressed > 0
    # The CLR reports ~once per RTT; everyone else must send far fewer.
    non_clr = [r for r in rcvs if r.receiver_id != session.sender.clr_id]
    assert all(r.feedback_sent < session.sender.feedback_received / 2 for r in non_clr)
    assert total_feedback < session.sender.packets_sent


def test_tfmcc_is_roughly_tcp_friendly_on_shared_bottleneck():
    sim = Simulator(seed=8)
    net = Network.dumbbell(sim, 4, 4, 4e6, 0.02, 40e6, 0.001)
    monitor = ThroughputMonitor(sim, interval=1.0)
    session = TFMCCSession(sim, net, sender_node="src0", monitor=monitor)
    receiver = session.add_receiver("dst0")
    session.start(0.0)
    for i in range(1, 4):
        tcp = TCPRenoSender(sim, f"tcp{i}", f"dst{i}", monitor=monitor)
        net.attach(f"src{i}", tcp)
        net.attach(f"dst{i}", TCPSink(sim, f"tcp{i}", f"src{i}", monitor=monitor))
        tcp.start(0.0)
    sim.run(until=90.0)
    tfmcc = monitor.average_throughput(receiver.receiver_id, 30.0, 90.0)
    tcp = sum(monitor.average_throughput(f"tcp{i}", 30.0, 90.0) for i in range(1, 4)) / 3
    # Medium-term throughput within a factor ~2.5 of TCP (paper: close to 1).
    assert tfmcc < 2.5 * tcp
    assert tfmcc > tcp / 3.5


def test_clr_timeout_promotes_another_receiver():
    # The CLR's node silently disappears (link becomes a blackhole) without a
    # leave report: the sender must eventually time it out and promote the
    # other receiver.
    sim = Simulator(seed=9)
    net = Network(sim)
    net.add_duplex_link("source", "hub", 20e6, 0.001)
    net.add_duplex_link("hub", "a", 2e6, 0.02, loss_rate=0.03)
    fwd, bwd = net.add_duplex_link("hub", "b", 2e6, 0.02, loss_rate=0.06)
    monitor = ThroughputMonitor(sim, interval=1.0)
    config = TFMCCConfig(clr_timeout_feedback_delays=3.0)
    session = TFMCCSession(sim, net, sender_node="source", config=config, monitor=monitor)
    session.add_receiver("a", receiver_id="rcv-a")
    session.add_receiver("b", receiver_id="rcv-b")
    session.start(0.0)

    def blackhole():
        fwd.set_loss_rate(0.999999)
        bwd.set_loss_rate(0.999999)

    sim.schedule(40.0, blackhole)
    sim.run(until=40.0)
    assert session.sender.clr_id == "rcv-b"  # the worse receiver is CLR
    sim.run(until=100.0)
    assert session.sender.clr_id != "rcv-b"


def test_session_bookkeeping():
    sim, net, monitor, session, rcvs = single_bottleneck_session(seed=10, receivers=3)
    sim.run(until=30.0)
    assert any(r.rtt.has_valid_measurement for r in session.receivers.values())
    assert session.average_receive_rate_bps(10.0, 30.0) > 0
    assert len(session.receiver_list) == 3


def test_remember_previous_clr_option_runs():
    config = TFMCCConfig(remember_previous_clr=True)
    sim, net, monitor, session, rcvs = single_bottleneck_session(
        seed=11, receivers=2, config=config
    )
    sim.run(until=40.0)
    assert session.sender.packets_sent > 50
    assert not session.sender.in_slowstart
