"""Tests for the unicast TFRC baseline."""

import pytest

from repro.core.config import TFMCCConfig
from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.topology import Network
from repro.tfrc.receiver import TFRCReceiver
from repro.tfrc.sender import TFRCSender


def build_tfrc_flow(sim, bandwidth=2e6, delay=0.02, loss=0.0, queue_limit=50):
    net = Network(sim)
    net.add_duplex_link("a", "b", bandwidth, delay, queue_limit, loss)
    net.build_routes()
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
