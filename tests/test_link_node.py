"""Tests for links, nodes and forwarding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Agent, Node
from repro.simulator.packet import Packet, PacketType
from repro.simulator.queues import DropTailQueue
from repro.simulator.topology import Network


class RecordingAgent(Agent):
    """Agent that records every packet (and its arrival time) it receives."""

    def __init__(self, sim, flow_id):
        super().__init__(sim, flow_id)
        self.received = []

    def receive(self, packet):
        self.received.append((self.sim.now, packet))


def two_node_network(sim, bandwidth=1e6, delay=0.01, queue_limit=10, loss=0.0, jitter=0.0):
    net = Network(sim)
    net.add_duplex_link("a", "b", bandwidth, delay, queue_limit, loss, jitter=jitter)
    return net


def test_transmission_and_propagation_delay():
    sim = Simulator(seed=1)
    net = two_node_network(sim, bandwidth=1e6, delay=0.05)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    packet = Packet(src="a", dst="b", flow_id="flow", size=1000)
    sim.schedule(0.0, sender.send, packet)
    sim.run()
    assert len(receiver.received) == 1
    arrival, _ = receiver.received[0]
    # 1000 bytes at 1 Mbit/s = 8 ms serialisation + 50 ms propagation.
    assert arrival == pytest.approx(0.058, abs=1e-9)


def test_back_to_back_packets_are_serialised():
    sim = Simulator(seed=1)
    net = two_node_network(sim, bandwidth=1e6, delay=0.0)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    for i in range(3):
        sim.schedule(0.0, sender.send, Packet(src="a", dst="b", flow_id="flow", size=1000, seq=i))
    sim.run()
    times = [t for t, _ in receiver.received]
    assert times == pytest.approx([0.008, 0.016, 0.024])


def test_queue_overflow_drops_packets():
    sim = Simulator(seed=1)
    net = two_node_network(sim, bandwidth=1e5, delay=0.0, queue_limit=2)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    for i in range(10):
        sim.schedule(0.0, sender.send, Packet(src="a", dst="b", flow_id="flow", size=1000, seq=i))
    sim.run()
    link = net.link_between("a", "b")
    # One in transmission + 2 queued; the other 7 are dropped.
    assert len(receiver.received) == 3
    assert link.queue_drops == 7


def test_random_loss_drops_roughly_expected_fraction():
    sim = Simulator(seed=7)
    net = two_node_network(sim, bandwidth=100e6, delay=0.0, queue_limit=10000, loss=0.3)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    total = 2000
    for i in range(total):
        sim.schedule(i * 1e-4, sender.send, Packet(src="a", dst="b", flow_id="flow", size=100, seq=i))
    sim.run()
    fraction_lost = 1.0 - len(receiver.received) / total
    assert 0.25 < fraction_lost < 0.35


def test_jitter_preserves_fifo_order():
    sim = Simulator(seed=3)
    net = two_node_network(sim, bandwidth=1e6, delay=0.01, jitter=0.01)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    for i in range(50):
        sim.schedule(i * 0.001, sender.send, Packet(src="a", dst="b", flow_id="flow", size=500, seq=i))
    sim.run()
    seqs = [p.seq for _t, p in receiver.received]
    assert seqs == sorted(seqs)


def test_multi_hop_forwarding():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_duplex_link("a", "m", 1e6, 0.01)
    net.add_duplex_link("m", "b", 1e6, 0.01)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    sim.schedule(0.0, sender.send, Packet(src="a", dst="b", flow_id="flow", size=1000))
    sim.run()
    assert len(receiver.received) == 1
    assert net.node("m").packets_forwarded == 1


def test_unroutable_packet_is_counted_not_crashing():
    sim = Simulator(seed=1)
    net = two_node_network(sim)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    sim.schedule(0.0, sender.send, Packet(src="a", dst="nowhere", flow_id="flow", size=100))
    sim.run()
    assert net.node("a").packets_unroutable == 1


def test_packet_to_unknown_flow_discarded():
    sim = Simulator(seed=1)
    net = two_node_network(sim)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    sim.schedule(0.0, sender.send, Packet(src="a", dst="b", flow_id="other-flow", size=100))
    sim.run()  # no agent for "other-flow" at b: silently dropped


def test_duplicate_flow_attachment_rejected():
    sim = Simulator(seed=1)
    node = Node(sim, "x")
    node.attach_agent(RecordingAgent(sim, "f"))
    with pytest.raises(ValueError):
        node.attach_agent(RecordingAgent(sim, "f"))


def test_link_statistics():
    sim = Simulator(seed=1)
    net = two_node_network(sim, bandwidth=1e6, delay=0.0)
    receiver = RecordingAgent(sim, "flow")
    net.attach("b", receiver)
    sender = RecordingAgent(sim, "flow")
    net.attach("a", sender)
    for i in range(4):
        sim.schedule(0.0, sender.send, Packet(src="a", dst="b", flow_id="flow", size=1000, seq=i))
    sim.run()
    link = net.link_between("a", "b")
    assert link.packets_sent == 4
    assert link.bytes_sent == 4000
    assert link.bytes_per_flow["flow"] == 4000
    assert link.utilisation(0.032) == pytest.approx(1.0, rel=0.01)


def test_link_parameter_validation():
    sim = Simulator(seed=1)
    a, b = Node(sim, "a"), Node(sim, "b")
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=0, delay=0.01)
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=1e6, delay=-1)
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=1e6, delay=0.01, loss_rate=1.5)
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=1e6, delay=0.01, jitter=-0.1)


# ------------------------------------------------------ merged link event


def wired_link(bandwidth=1e6, delay=0.05, queue_limit=50):
    """One a->b link with a sink recording flows "f" and "g"; returns (sim, link, sink)."""
    sim = Simulator(seed=1)
    net = Network(sim)
    link = net.add_link("a", "b", bandwidth, delay, queue_limit=queue_limit)
    sink = RecordingAgent(sim, "f")
    net.attach("b", sink)
    other = RecordingAgent(sim, "g")  # a second flow, logged in arrival order
    other.received = sink.received
    net.attach("b", other)
    return sim, link, sink


def data(seq=0, size=1000, flow="f"):
    return Packet(src="a", dst="b", flow_id=flow, size=size, seq=seq)


def test_set_delay_mid_frame_applies_to_subsequent_frames_only():
    """The live-mutation promise: a frame being serialised keeps the delay it
    started with (the old finish event read ``delay`` when the frame ended)."""
    sim, link, sink = wired_link(bandwidth=1e6, delay=0.05)
    sim.schedule_at(0.0, link.enqueue, data(0))  # on the serialiser until 8 ms
    sim.schedule_at(0.004, link.enqueue, data(1))  # waits, starts at 8 ms
    sim.schedule_at(0.004, link.set_delay, 0.2)
    sim.run()
    assert [t for t, _ in sink.received] == [0.008 + 0.05, (0.008 + 0.008) + 0.2]


def test_set_bandwidth_mid_frame_applies_to_subsequent_frames_only():
    sim, link, sink = wired_link(bandwidth=1e6, delay=0.05)
    sim.schedule_at(0.0, link.enqueue, data(0))
    sim.schedule_at(0.004, link.enqueue, data(1))
    sim.schedule_at(0.004, link.set_bandwidth, 2e6)
    sim.run()
    # Frame 0 still takes 8 ms; frame 1 starts then and takes 4 ms.
    assert [t for t, _ in sink.received] == [0.008 + 0.05, (0.008 + 0.004) + 0.05]


def test_set_down_mid_frame_drops_exactly_that_frame():
    sim, link, sink = wired_link(bandwidth=1e6, delay=0.05)
    sim.schedule_at(0.0, link.enqueue, data(0))
    sim.schedule_at(0.004, link.set_down)
    sim.run()
    assert sink.received == []
    assert link.down_drops == 1
    assert (link.packets_sent, link.bytes_sent) == (0, 0)
    assert link.bytes_per_flow.get("f", 0) == 0
    assert not link.busy
    # The link is usable again after set_up(), from an idle serialiser.
    link.set_up()
    sim.schedule_at(1.0, link.enqueue, data(1))
    sim.run()
    assert [(t, p.seq) for t, p in sink.received] == [(1.0 + 0.008 + 0.05, 1)]
    assert (link.packets_sent, link.bytes_sent) == (1, 1000)


def test_set_down_still_delivers_packets_on_the_wire():
    sim, link, sink = wired_link(bandwidth=1e6, delay=0.05)
    sim.schedule_at(0.0, link.enqueue, data(0))  # fully serialised at 8 ms
    sim.schedule_at(0.02, link.set_down)  # propagating: already on the wire
    sim.run()
    assert [(t, p.seq) for t, p in sink.received] == [(0.008 + 0.05, 0)]
    assert link.down_drops == 0
    assert (link.packets_sent, link.bytes_sent) == (1, 1000)


def test_idle_link_costs_one_event_per_packet_and_a_busy_one_two():
    sim, link, sink = wired_link(bandwidth=1e6, delay=0.0)
    for i in range(10):  # spaced wider than the 8 ms frame: never waits
        sim.schedule_at(i * 0.01, link.enqueue, data(i))
    sim.run()
    assert len(sink.received) == 10
    assert sim.events_processed == 10 + 10  # 10 offers + 10 arrivals, no drain

    sim, link, sink = wired_link(bandwidth=1e6, delay=0.0)
    for i in range(10):  # back to back: 9 of them wait behind the first
        sim.schedule_at(0.0, link.enqueue, data(i))
    sim.run()
    assert [p.seq for _t, p in sink.received] == list(range(10))
    assert sim.events_processed == 10 + 10 + 9  # one drain per waiting packet


# ------------------------------------------------- independent FIFO oracle


def fifo_oracle(offers, bandwidth, delay):
    """Analytic single-server FIFO: ``[(tx_end, delivery, size, flow), ...]``.

    Written from the model, not from the Link: a frame starts when it is
    offered or when the previous one leaves the serialiser, whichever is
    later, holds it for ``8 * size / bandwidth`` and arrives ``delay`` later.
    """
    departures, end = [], 0.0
    for arrive, size, flow in offers:
        start = max(arrive, end)
        end = start + size * 8.0 / bandwidth
        departures.append((end, end + delay, size, flow))
    return departures


def check_against_oracle(offers, bandwidth, delay, until):
    sim, link, sink = wired_link(bandwidth, delay, queue_limit=max(len(offers), 1))
    for seq, (arrive, size, flow) in enumerate(offers):
        sim.schedule_at(arrive, link.enqueue, data(seq, size, flow))
    expected = fifo_oracle(offers, bandwidth, delay)

    sim.run(until=until)
    # At `until` a frame counts as sent once its last bit left the serialiser.
    sent = [d for d in expected if d[0] <= until]
    assert link.packets_sent == len(sent)
    assert link.bytes_sent == sum(size for _e, _d, size, _f in sent)
    per_flow = {}
    for _end, _delivery, size, flow in sent:
        per_flow[flow] = per_flow.get(flow, 0) + size
    assert {f: b for f, b in link.bytes_per_flow.items() if b} == per_flow
    # Events at exactly `until` have not run yet.
    assert [t for t, _p in sink.received] == [d[1] for d in expected if d[1] < until]

    sim.run()  # ... and the rest of the run is unaffected by the pause
    assert [(t, p.seq) for t, p in sink.received] == [
        (d[1], seq) for seq, d in enumerate(expected)
    ]
    assert link.packets_sent == len(offers)
    assert link.queue_drops == 0


def test_fifo_oracle_until_mid_frame_and_zero_delay():
    offers = [(0.0, 1000, "f"), (0.001, 500, "g"), (0.030, 1500, "f")]
    # 10 ms: frame 0 done at 8 ms, frame 1 (8..12 ms) is mid-frame.
    check_against_oracle(offers, 1e6, 0.05, until=0.010)
    check_against_oracle(offers, 1e6, 0.0, until=0.010)
    # Exactly the instant frame 0 leaves the serialiser.
    check_against_oracle(offers, 1e6, 0.0, until=0.008)


@settings(max_examples=150, deadline=None)
@given(
    offers=st.lists(
        st.tuples(
            # A millisecond grid (and frame times that are multiples of it)
            # makes ties between offers, drains and arrivals common.
            st.integers(0, 60).map(lambda ms: ms * 0.001),
            st.sampled_from([125, 250, 500, 1000, 1500]),
            st.sampled_from(["f", "g"]),
        ),
        min_size=1,
        max_size=25,
    ).map(lambda offers: sorted(offers, key=lambda offer: offer[0])),
    delay=st.sampled_from([0.0, 0.001, 0.0137]),
    until=st.one_of(
        st.floats(0.0, 0.2, allow_nan=False),
        st.integers(0, 24),  # mid-frame of the n-th offered packet
    ),
)
def test_link_matches_fifo_oracle(offers, delay, until):
    bandwidth = 1e6
    if isinstance(until, int):
        end = fifo_oracle(offers, bandwidth, delay)[until % len(offers)][0]
        size = offers[until % len(offers)][1]
        until = end - 0.5 * (size * 8.0 / bandwidth)
    check_against_oracle(offers, bandwidth, delay, until)
