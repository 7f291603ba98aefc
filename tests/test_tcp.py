"""Tests for the TCP Reno substrate."""

import inspect
import textwrap

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.channel.models import ChannelModel
from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.topology import Network
from repro.tcp import reno
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


# ------------------------------------------------- the RTO deadline vs eager restarts


class EagerRTOSender(TCPRenoSender):
    """The sender before the retransmission timer became a deadline: every
    restart cancels the pending timer and pushes a new one.  ``_on_timeout``
    is inherited: ``_rto_deadline`` stays 0.0 here, so its early-fire branch
    never runs and it is the eager sender's handler verbatim."""

    def _restart_rto_timer(self):
        if not self.running:
            if self._rto_timer is not None:
                self._rto_timer.cancel()
            return
        # reschedule() cancels a pending timer and reuses a fired one.
        self._rto_timer = self.sim.reschedule(
            self._rto_timer, self.rto * self.backoff, self._on_timeout
        )


class ScriptedDrops(ChannelModel):
    """Drops the offered packets whose 0-based index is in ``drops`` and logs
    every offered packet as ``(now, seq, is_retransmit)``."""

    def __init__(self, drops):
        self.drops = drops
        self.offered = []

    def should_drop(self, rng, now=0.0, packet=None):
        header = packet.payload
        self.offered.append((now, packet.seq, getattr(header, "is_retransmit", None)))
        return len(self.offered) - 1 in self.drops


#: Drop bursts ``(first offered packet, length)`` on one direction.
_BURSTS = st.lists(st.tuples(st.integers(0, 400), st.integers(1, 12)), max_size=6)


def _indices(bursts):
    return frozenset(start + k for start, length in bursts for k in range(length))


def rto_run(sender_class, data_bursts, ack_bursts, bandwidth=1e6, delay=0.02, until=12.0):
    """Segments offered to the data link, ACKs offered back, and the sender's counters."""
    sim = Simulator(seed=1)
    net = Network(sim)
    data = ScriptedDrops(_indices(data_bursts))
    acks = ScriptedDrops(_indices(ack_bursts))
    net.add_link("a", "b", bandwidth, delay, 20, channel=data)
    net.add_link("b", "a", bandwidth, delay, 20, channel=acks)
    sender = net.attach("a", sender_class(sim, "tcp", "b"))
    net.attach("b", TCPSink(sim, "tcp", "a"))
    sender.start(0.0)
    sim.run(until=until)
    counters = (sender.timeouts, sender.retransmits, sender.segments_sent, sender.cwnd)
    return data.offered, acks.offered, counters


@settings(max_examples=60, deadline=None)
@given(data_bursts=_BURSTS, ack_bursts=_BURSTS, bandwidth=st.sampled_from([2e5, 1e6, 5e6]))
def test_the_rto_deadline_sends_what_eager_restarts_send(data_bursts, ack_bursts, bandwidth):
    deadline = rto_run(TCPRenoSender, data_bursts, ack_bursts, bandwidth)
    assert deadline == rto_run(EagerRTOSender, data_bursts, ack_bursts, bandwidth)


def lazy_earlier_deadline_restart():
    """Mutant: a restart re-arms only a timer that is not pending, so a
    deadline that moves earlier keeps the later timer."""
    source = textwrap.dedent(inspect.getsource(TCPRenoSender._restart_rto_timer))
    old = "if timer is None or not timer.pending or deadline < timer[0]:"
    assert old in source
    namespace = {}
    exec(source.replace(old, "if timer is None or not timer.pending:"), vars(reno), namespace)
    return namespace["_restart_rto_timer"]


#: The first RTT sample cuts the RTO from its initial 3 s, so the deadline
#: moves before the pending timer (at 0.048 s); the drop bursts then need
#: timeouts, which the mutant takes late.
_RTO_WITNESS = ([(30, 6)], [(40, 30)])


def test_the_rto_witness_passes_unmutated():
    assert rto_run(TCPRenoSender, *_RTO_WITNESS) == rto_run(EagerRTOSender, *_RTO_WITNESS)


def test_the_comparison_catches_a_restart_that_ignores_an_earlier_deadline(monkeypatch):
    monkeypatch.setattr(TCPRenoSender, "_restart_rto_timer", lazy_earlier_deadline_restart())
    assert rto_run(TCPRenoSender, *_RTO_WITNESS) != rto_run(EagerRTOSender, *_RTO_WITNESS)


@pytest.mark.slow
def test_generator_reaches_drops_that_catch_the_earlier_deadline_mutant(monkeypatch):
    monkeypatch.setattr(TCPRenoSender, "_restart_rto_timer", lazy_earlier_deadline_restart())
    find(
        st.tuples(_BURSTS, _BURSTS, st.sampled_from([2e5, 1e6, 5e6])),
        lambda case: rto_run(TCPRenoSender, *case) != rto_run(EagerRTOSender, *case),
        settings=settings(max_examples=2000, database=None, deadline=None),
    )
