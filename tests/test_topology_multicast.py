"""Tests for topology construction, routing and multicast trees."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.multicast import MulticastGroup
from repro.simulator.node import Agent
from repro.simulator.packet import Packet
from repro.simulator.topology import LinkSpec, Network


class RecordingAgent(Agent):
    def __init__(self, sim, flow_id):
        super().__init__(sim, flow_id)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


class TestTopology:
    def test_dumbbell_structure(self):
        sim = Simulator(seed=1)
        net = Network.dumbbell(sim, 3, 2, 1e6, 0.02, 10e6, 0.001)
        assert "router_left" in net.nodes and "router_right" in net.nodes
        assert all(f"src{i}" in net.nodes for i in range(3))
        assert all(f"dst{i}" in net.nodes for i in range(2))
        # Routes: src0 reaches dst1 via router_left.
        assert net.node("src0").routes["dst1"] == "router_left"

    def test_star_structure(self):
        sim = Simulator(seed=1)
        specs = [LinkSpec(1e6, 0.01), LinkSpec(2e6, 0.02, loss_rate=0.1)]
        net = Network.star(sim, 2, specs)
        assert net.link_between("hub", "leaf1").loss_rate == pytest.approx(0.1)
        assert net.node("source").routes["leaf0"] == "hub"

    def test_path_and_delay(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_duplex_link("a", "b", 1e6, 0.01)
        net.add_duplex_link("b", "c", 1e6, 0.02)
        net.build_routes()
        assert net.path("a", "c") == ["a", "b", "c"]
        assert net.path_delay("a", "c") == pytest.approx(0.03)

    def test_routes_follow_lowest_delay(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_duplex_link("a", "b", 1e6, 0.1)
        net.add_duplex_link("a", "m", 1e6, 0.01)
        net.add_duplex_link("m", "b", 1e6, 0.01)
        net.build_routes()
        assert net.node("a").routes["b"] == "m"

    def test_asymmetric_reverse_loss(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        fwd, bwd = net.add_duplex_link("a", "b", 1e6, 0.01)
        bwd.set_loss_rate(0.2)  # what a direction="reverse" link_update does
        assert fwd.loss_rate == 0.0
        assert bwd.loss_rate == pytest.approx(0.2)

    def test_add_node_idempotent(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        first = net.add_node("x")
        assert net.add_node("x") is first


class TestMulticast:
    def build(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        # source - hub - {leaf0, leaf1, leaf2}
        net.add_duplex_link("source", "hub", 10e6, 0.001)
        for i in range(3):
            net.add_duplex_link("hub", f"leaf{i}", 1e6, 0.01)
        net.build_routes()
        return sim, net

    def test_tree_covers_only_members(self):
        sim, net = self.build()
        group = MulticastGroup(net, "g", "source")
        a0 = RecordingAgent(sim, "r0")
        net.attach("leaf0", a0)
        group.join("leaf0", a0)
        edges = group.tree_edges()
        assert ("source", "hub") in edges
        assert ("hub", "leaf0") in edges
        assert ("hub", "leaf1") not in edges

    def test_delivery_to_all_members(self):
        sim, net = self.build()
        group = MulticastGroup(net, "g", "source")
        sender = RecordingAgent(sim, "s")
        net.attach("source", sender)
        agents = []
        for i in range(3):
            agent = RecordingAgent(sim, f"r{i}")
            net.attach(f"leaf{i}", agent)
            group.join(f"leaf{i}", agent)
            agents.append(agent)
        sim.schedule(
            0.0, sender.send, Packet(src="source", dst=None, flow_id="s", size=1000, group="g")
        )
        sim.run()
        assert all(len(a.received) == 1 for a in agents)

    def test_shared_branch_single_copy(self):
        sim, net = self.build()
        group = MulticastGroup(net, "g", "source")
        sender = RecordingAgent(sim, "s")
        net.attach("source", sender)
        for i in range(3):
            agent = RecordingAgent(sim, f"r{i}")
            net.attach(f"leaf{i}", agent)
            group.join(f"leaf{i}", agent)
        sim.schedule(
            0.0, sender.send, Packet(src="source", dst=None, flow_id="s", size=1000, group="g")
        )
        sim.run()
        # Only one copy crosses the shared source->hub link.
        assert net.link_between("source", "hub").packets_sent == 1
        # Three copies leave the hub, one per leaf.
        hub_sent = sum(net.link_between("hub", f"leaf{i}").packets_sent for i in range(3))
        assert hub_sent == 3

    def test_leave_prunes_branch(self):
        sim, net = self.build()
        group = MulticastGroup(net, "g", "source")
        sender = RecordingAgent(sim, "s")
        net.attach("source", sender)
        a0 = RecordingAgent(sim, "r0")
        a1 = RecordingAgent(sim, "r1")
        net.attach("leaf0", a0)
        net.attach("leaf1", a1)
        group.join("leaf0", a0)
        group.join("leaf1", a1)
        group.leave("leaf1", a1)
        sim.schedule(
            0.0, sender.send, Packet(src="source", dst=None, flow_id="s", size=1000, group="g")
        )
        sim.run()
        assert len(a0.received) == 1
        assert len(a1.received) == 0
        assert ("hub", "leaf1") not in group.tree_edges()

    def test_member_count_tracks_membership(self):
        sim, net = self.build()
        group = MulticastGroup(net, "g", "source")
        a0 = RecordingAgent(sim, "r0")
        net.attach("leaf0", a0)
        group.join("leaf0", a0)
        assert group.member_count == 1
        group.leave("leaf0", a0)
        assert group.member_count == 0

    def test_sender_local_member_not_delivered_to_itself(self):
        sim, net = self.build()
        group = MulticastGroup(net, "g", "source")
        sender = RecordingAgent(sim, "s")
        net.attach("source", sender)
        group.join("source", sender)
        sim.schedule(
            0.0, sender.send, Packet(src="source", dst=None, flow_id="s", size=100, group="g")
        )
        sim.run()
        assert sender.received == []


class TestDeterministicForwardingOrder:
    def test_mcast_routes_are_tuples_in_join_order(self):
        sim = Simulator(seed=1)
        net = Network.star(sim, num_leaves=4)
        group = MulticastGroup(net, "g", "source")
        agents = [RecordingAgent(sim, f"r{i}") for i in range(4)]
        # Join in an order that differs from the leaf naming order.
        for i in (2, 0, 3, 1):
            net.attach(f"leaf{i}", agents[i])
            group.join(f"leaf{i}", agents[i])
        routes = net.node("hub").mcast_routes["g"]
        assert isinstance(routes, tuple)
        assert routes == ("leaf2", "leaf0", "leaf3", "leaf1")

    def test_unicast_routes_match_networkx_shortest_paths(self):
        sim = Simulator(seed=1)
        net = Network.dumbbell(sim, 3, 3, 1e6, 0.02, 10e6, 0.001)
        nx = pytest.importorskip("networkx")

        graph = nx.Graph()
        for link in net.links:
            graph.add_edge(link.src.node_id, link.dst.node_id, delay=link.delay)
        expected = dict(nx.all_pairs_dijkstra_path(graph, weight="delay"))
        for src, node in net.nodes.items():
            for dst, hop in node.routes.items():
                assert expected[src][dst][1] == hop

    def test_path_matches_installed_forwarding_route(self):
        # path() must walk the same next-hop tables packets use, including
        # tie-breaking: the dumbbell has many equal-delay candidate routes.
        sim = Simulator(seed=1)
        net = Network.dumbbell(sim, 3, 3, 1e6, 0.02, 10e6, 0.001)
        for src in net.nodes:
            for dst in net.nodes:
                if src == dst:
                    continue
                path = net.path(src, dst)
                assert path[0] == src and path[-1] == dst
                # Follow the forwarding tables hop by hop.
                walked = [src]
                while walked[-1] != dst:
                    walked.append(net.node(walked[-1]).routes[dst])
                assert walked == path
