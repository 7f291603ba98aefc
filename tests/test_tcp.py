"""Tests for the TCP Reno substrate."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.topology import Network
from repro.tcp.reno import TCPRenoSender
from repro.tcp.sink import TCPSink


def build_flow(sim, bandwidth=1e6, delay=0.02, queue_limit=25, loss=0.0):
    net = Network(sim)
    net.add_duplex_link("a", "b", bandwidth, delay, queue_limit, loss)
    monitor = ThroughputMonitor(sim, interval=0.5)
    sender = TCPRenoSender(sim, "tcp", "b", monitor=monitor)
    sink = TCPSink(sim, "tcp", "a", monitor=monitor)
    net.attach("a", sender)
    net.attach("b", sink)
    return net, monitor, sender, sink


def test_slow_start_doubles_window_per_rtt():
    sim = Simulator(seed=1)
    net, monitor, sender, sink = build_flow(sim, bandwidth=100e6, delay=0.05, queue_limit=1000)
    sender.start(0.0)
    sim.run(until=0.45)  # four RTTs of ~0.1 s
    # cwnd starts at 2 and roughly doubles each RTT: expect at least 16.
    assert sender.cwnd >= 16


def test_fills_bottleneck_without_loss_links():
    sim = Simulator(seed=2)
    net, monitor, sender, sink = build_flow(sim, bandwidth=1e6, delay=0.02)
    sender.start(0.0)
    sim.run(until=30.0)
    goodput = monitor.average_throughput("tcp", 5.0, 30.0)
    assert goodput == pytest.approx(1e6, rel=0.05)


def test_fast_retransmit_recovers_from_queue_drops():
    sim = Simulator(seed=3)
    net, monitor, sender, sink = build_flow(sim, bandwidth=1e6, delay=0.02, queue_limit=10)
    sender.start(0.0)
    sim.run(until=20.0)
    assert sender.retransmits > 0
    # Queue overflows are handled by fast retransmit, not timeouts.
    assert sender.timeouts <= 2
    assert monitor.average_throughput("tcp", 5.0, 20.0) > 0.8e6


def test_random_loss_reduces_throughput():
    sim_clean = Simulator(seed=4)
    _, mon_clean, s_clean, _ = build_flow(sim_clean, bandwidth=10e6, delay=0.05)
    s_clean.start(0.0)
    sim_clean.run(until=20.0)
    sim_lossy = Simulator(seed=4)
    _, mon_lossy, s_lossy, _ = build_flow(sim_lossy, bandwidth=10e6, delay=0.05, loss=0.02)
    s_lossy.start(0.0)
    sim_lossy.run(until=20.0)
    clean = mon_clean.average_throughput("tcp", 5.0, 20.0)
    lossy = mon_lossy.average_throughput("tcp", 5.0, 20.0)
    assert lossy < 0.6 * clean


def test_timeout_recovers_after_blackout():
    sim = Simulator(seed=5)
    net, monitor, sender, sink = build_flow(sim, bandwidth=1e6, delay=0.02)
    link = net.link_between("a", "b")
    sender.start(0.0)

    def blackout_on():
        link.set_loss_rate(0.999999)

    def blackout_off():
        link.set_loss_rate(0.0)

    sim.schedule(5.0, blackout_on)
    sim.schedule(7.0, blackout_off)
    sim.run(until=25.0)
    assert sender.timeouts >= 1
    # The flow recovers after the blackout ends.
    assert monitor.average_throughput("tcp", 15.0, 25.0) > 0.5e6


def test_rtt_estimation_reasonable():
    sim = Simulator(seed=6)
    net, monitor, sender, sink = build_flow(sim, bandwidth=10e6, delay=0.05, queue_limit=50)
    sender.start(0.0)
    sim.run(until=5.0)
    assert sender.srtt is not None
    # Base RTT is 100 ms; queueing can add up to 50 packets * 0.8 ms.
    assert 0.09 < sender.srtt < 0.35


def test_two_flows_share_bottleneck_fairly():
    sim = Simulator(seed=7)
    net = Network.dumbbell(sim, 2, 2, 2e6, 0.02, 20e6, 0.001)
    monitor = ThroughputMonitor(sim, interval=1.0)
    flows = []
    for i in range(2):
        sender = TCPRenoSender(sim, f"tcp{i}", f"dst{i}", monitor=monitor)
        sink = TCPSink(sim, f"tcp{i}", f"src{i}", monitor=monitor)
        net.attach(f"src{i}", sender)
        net.attach(f"dst{i}", sink)
        sender.start(0.0)
        flows.append(sender)
    sim.run(until=40.0)
    rates = [monitor.average_throughput(f"tcp{i}", 10.0, 40.0) for i in range(2)]
    assert sum(rates) == pytest.approx(2e6, rel=0.1)
    assert 0.5 < rates[0] / rates[1] < 2.0


def test_sink_counts_duplicates():
    sim = Simulator(seed=8)
    net, monitor, sender, sink = build_flow(sim, bandwidth=1e6, delay=0.02, queue_limit=5)
    sender.start(0.0)
    sim.run(until=10.0)
    # Retransmissions after spurious drops may duplicate segments at the sink;
    # the sink must not count them as new goodput.
    assert sink.bytes_received <= sink.segments_received * sender.segment_size


def test_stop_halts_transmission():
    sim = Simulator(seed=9)
    net, monitor, sender, sink = build_flow(sim)
    sender.start(0.0)
    sender.stop(at=5.0)
    sim.run(until=10.0)
    sent_before = sender.segments_sent
    sim.run(until=12.0)
    assert sender.segments_sent == sent_before
