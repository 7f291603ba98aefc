"""Tests for topology construction, routing and multicast trees."""

import contextlib
import heapq
import random
from unittest import mock

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.multicast import MulticastGroup
from repro.simulator.node import Agent, Node
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
        assert net.path("a", "c") == ["a", "b", "c"]
        assert net.path_delay("a", "c") == pytest.approx(0.03)

    def test_routes_follow_lowest_delay(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_duplex_link("a", "b", 1e6, 0.1)
        net.add_duplex_link("a", "m", 1e6, 0.01)
        net.add_duplex_link("m", "b", 1e6, 0.01)
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


def _dumbbell(sim):
    net = Network.dumbbell(sim, 2, 5, 1e6, 0.02, 10e6, 0.001)
    return net, "src0", [f"dst{i}" for i in (3, 0, 4, 1, 0, 2)]  # dst0 twice


def _star(sim):
    net = Network.star(sim, num_leaves=6)
    return net, "source", [f"leaf{i}" for i in (2, 5, 0, 3, 1, 4)]


def _chain(sim):
    net = Network(sim)
    hops = [f"n{i}" for i in range(7)]
    for a, b in zip(hops, hops[1:]):
        net.add_duplex_link(a, b, 1e6, 0.01)
    return net, "n0", ["n6", "n2", "n4", "n0", "n5"]  # one member at the source


class TestBatchedGraft:
    """``MulticastGroup.batch`` grafts once and ends where per-join grafting ends."""

    def populate(self, topology, batched):
        sim = Simulator(seed=1)
        net, source, member_nodes = topology(sim)
        group = MulticastGroup(net, "g", source)
        grafts = []  # member count at every rebuild that was not deferred
        real = group._rebuild_tree
        group._rebuild_tree = lambda: (
            group._batching or grafts.append(group.member_count),
            real(),
        )
        agents = []
        with group.batch() if batched else contextlib.nullcontext():
            for i, node_id in enumerate(member_nodes):
                agent = RecordingAgent(sim, f"r{i}")
                net.attach(node_id, agent)
                group.join(node_id, agent)
                agents.append((node_id, agent))
            group.leave(*agents.pop(1))
        return net, group, agents, grafts

    @staticmethod
    def routes(net):
        return {node_id: dict(node.mcast_routes) for node_id, node in net.nodes.items()}

    @pytest.mark.parametrize("topology", [_dumbbell, _star, _chain])
    def test_batched_joins_leave_the_forwarding_state_of_sequential_joins(self, topology):
        seq_net, _group, _agents, seq_grafts = self.populate(topology, batched=False)
        net, group, agents, grafts = self.populate(topology, batched=True)
        assert self.routes(net) == self.routes(seq_net)
        assert any(self.routes(net).values())
        assert [node_id for node_id, _ in group.members] == [n for n, _ in agents]
        # One graft on leaving the block, none inside it.
        assert len(grafts) == 1 and len(seq_grafts) == len(agents) + 2

    @pytest.mark.parametrize("topology", [_dumbbell, _star, _chain])
    def test_joins_and_leaves_after_the_block_graft_one_by_one(self, topology):
        net, group, agents, grafts = self.populate(topology, batched=True)
        node_id, agent = agents[0]
        before = self.routes(net)
        group.leave(node_id, agent)
        pruned = self.routes(net)
        assert pruned != before and len(grafts) == 2
        group.join(node_id, agent)
        assert len(grafts) == 3
        # Re-joining appends: same tree edges, this member now grafted last.
        assert group.tree_edges() == {
            (hop, nxt) for hop, entry in before.items() for nxt in entry.get("g", ())
        }

    def test_block_grafts_even_when_it_raises(self):
        sim = Simulator(seed=1)
        net, source, member_nodes = _star(sim)
        group = MulticastGroup(net, "g", source)
        agent = RecordingAgent(sim, "r0")
        net.attach(member_nodes[0], agent)
        with pytest.raises(RuntimeError):
            with group.batch():
                group.join(member_nodes[0], agent)
                raise RuntimeError("build failed")
        assert ("hub", member_nodes[0]) in group.tree_edges()

    def test_exact_build_grafts_each_session_once(self, monkeypatch):
        from repro.scenarios import get_scenario
        from repro.scenarios.build import build_scenario

        grafts = []
        real = MulticastGroup._rebuild_tree
        monkeypatch.setattr(
            MulticastGroup,
            "_rebuild_tree",
            lambda group: (
                group._batching or grafts.append(group.member_count),
                real(group),
            ),
        )
        spec = get_scenario("scaling").spec(num_receivers=40, duration=1.0)
        built = build_scenario(spec, seed=1)
        # Once for the empty group, once for all forty build-time receivers.
        assert grafts == [0, 40]
        (entry,) = built.network.node("router_right").mcast_routes.values()
        assert entry == tuple(f"dst{i}" for i in range(40))


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
            for dst in net.nodes:
                if dst != src:
                    assert expected[src][dst][1] == node.routes[dst]

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


# ------------------------------------------------------- on-demand unicast routes


def all_pairs_routes(net):
    """The per-source routing tables every node held before routes were
    computed on demand: one Dijkstra from every node, ties broken by
    discovery order, keeping the first hop towards each destination."""
    tables = {}
    for source in net.nodes:
        dist, first_hops, done, counter = {source: 0.0}, {source: None}, set(), 0
        heap = [(0.0, counter, source)]
        while heap:
            d, _tie, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, edge in net.adj[u].items():
                if v in done or edge.get("down"):
                    continue
                if v not in dist or d + edge["delay"] < dist[v]:
                    dist[v] = d + edge["delay"]
                    first_hops[v] = v if first_hops[u] is None else first_hops[u]
                    counter += 1
                    heapq.heappush(heap, (dist[v], counter, v))
        tables[source] = {dst: hop for dst, hop in first_hops.items() if hop is not None}
    return tables


#: Exact ties (whole milliseconds) and float near-ties: 0.1 + 0.2 is
#: 0.30000000000000004, one ulp above 0.3.
DELAYS = st.sampled_from([0.001, 0.002, 0.003, 0.1, 0.2, 0.3, 0.1 + 0.2])


@st.composite
def graphs(draw):
    """A connected graph: a random spanning tree plus extra edges, inserted
    in a random order (insertion order is what breaks ties)."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges = draw(st.permutations(sorted(edges)))
    return [(f"n{a}", f"n{b}", draw(DELAYS)) for a, b in edges]


def assert_routes_match_oracle(net):
    expected = all_pairs_routes(net)
    for src, node in net.nodes.items():
        for dst in net.nodes:
            hop = expected[src].get(dst)
            assert node.routes.get(dst) == hop, (src, dst)
            assert (dst in node.routes) == (hop is not None)


class TestOnDemandRouting:
    @staticmethod
    def build(edges):
        net = Network(Simulator(seed=1))
        for a, b, delay in edges:
            net.add_duplex_link(a, b, 1e6, delay)
        return net

    @settings(max_examples=150, deadline=None)
    @given(edges=graphs(), data=st.data())
    def test_next_hops_equal_the_all_pairs_table_under_dynamics(self, edges, data):
        net = self.build(edges)
        assert_routes_match_oracle(net)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["fail", "restore", "delay"]),
                    st.integers(0, len(edges) - 1),
                    DELAYS,
                ),
                max_size=6,
            )
        )
        for kind, index, delay in ops:
            a, b, _delay = edges[index]
            if kind == "fail":
                net.fail_link(a, b)
            elif kind == "restore":
                net.restore_link(a, b)
            else:
                net.set_link_delay(a, b, delay)
            # Every table is full from the previous check: stale entries fail.
            assert_routes_match_oracle(net)

    @settings(max_examples=100, deadline=None)
    @given(edges=graphs(), seed=st.integers(0, 2**32 - 1))
    def test_path_is_the_forwarding_walk_where_paths_are_unique(self, edges, seed):
        rng = random.Random(seed)
        net = self.build([(a, b, rng.uniform(0.001, 0.1)) for a, b, _delay in edges])
        for src in net.nodes:
            for dst in net.nodes:
                walked = [src]
                while walked[-1] != dst:
                    walked.append(net.node(walked[-1]).routes[dst])
                assert walked == net.path(src, dst)

    def test_an_exact_tie_takes_the_source_trees_first_hop(self):
        # Two equal branches.  The tree rooted at d reaches s through a
        # (a-d was inserted first); s's own tree reaches d through b.
        net = self.build([("s", "b", 0.01), ("s", "a", 0.01), ("a", "d", 0.01), ("b", "d", 0.01)])
        assert net.shortest_path_tree("d")["s"] == "a"
        assert net.node("s").routes["d"] == "b" == all_pairs_routes(net)["s"]["d"]
        assert net.path("s", "d") == ["s", "b", "d"]

    def test_a_float_near_tie_takes_the_source_trees_first_hop(self):
        # n3 reaches n1 directly (0.1 + 0.2) or through n2 (0.1, then 0.2):
        # the same length, whose float sums differ in the last ulp
        # depending on the end they are summed from.
        net = self.build(
            [("n1", "n3", 0.1 + 0.2), ("n0", "n1", 0.3), ("n1", "n2", 0.2), ("n2", "n3", 0.1)]
        )
        assert net.node("n3").routes["n0"] == all_pairs_routes(net)["n3"]["n0"]

    def test_a_route_looked_up_before_a_new_link_is_recomputed(self):
        net = self.build([("a", "b", 0.1), ("b", "c", 0.1)])
        assert net.node("a").routes["c"] == "b"
        net.add_duplex_link("a", "c", 1e6, 0.05)
        assert net.node("a").routes["c"] == "c"

    def test_a_node_outside_a_network_routes_nowhere(self):
        node = Node(Simulator(seed=1), "x")
        assert node.routes.get("y") is None and "y" not in node.routes
        with pytest.raises(KeyError):
            node.routes["y"]

    def test_exact_scaling_build_runs_one_dijkstra_not_one_per_node(self, monkeypatch):
        from repro.scenarios import get_scenario
        from repro.scenarios.build import build_scenario

        calls = []
        real = Network._dijkstra
        monkeypatch.setattr(
            Network, "_dijkstra", lambda net, *args: calls.append(args) or real(net, *args)
        )
        n = 2000
        built = build_scenario(get_scenario("scaling").spec(num_receivers=n, duration=1.0), seed=1)
        built.sim.run(until=1.0)
        assert len(calls) <= 3  # all-pairs routing ran n + 3 = 2,003
        filled = sum(len(node.routes) for node in built.network.nodes.values())
        assert filled <= 2 * n


# ------------------------------------------------------- the unicast hop table


def parent_forward_unicast(node, packet):
    """``Node._forward_unicast`` before the hop table, verbatim but for the
    ``packets_forwarded`` increment (that count is now read off the links)."""
    if packet.dst == node.node_id:
        node._deliver(packet)
        return
    try:
        next_hop = node.routes[packet.dst]
    except KeyError:
        node.packets_unroutable += 1
        return
    link = node.links.get(next_hop)
    if link is None:
        node.packets_unroutable += 1
        return
    link.enqueue(packet)


class ParentForwarding(dict):
    """Stands in for a node's hop table: every lookup forwards the parent way."""

    def __init__(self, node):
        super().__init__()
        self.node = node

    def __getitem__(self, dst):
        return lambda packet: parent_forward_unicast(self.node, packet)


_fail_link = Network.fail_link


def fail_link_keeping_hops(net, a, b):
    """Mutant: ``fail_link`` leaves every filled hop table as it was."""
    kept = {node_id: dict(node.hops) for node_id, node in net.nodes.items()}
    _fail_link(net, a, b)
    for node_id, node in net.nodes.items():
        node.hops.update(kept[node_id])


_HOP_OPS = st.lists(
    st.tuples(
        st.sampled_from(["send", "send", "send", "fail", "restore", "delay"]),
        st.integers(0, 20),
        st.integers(0, 20),
        DELAYS,
        st.sampled_from([0.0, 0.001, 0.05, 0.5]),
    ),
    min_size=1,
    max_size=25,
)


def hop_walk(edges, ops, oracle):
    """Every hop each packet takes (``(uid, link)``), what each node received
    and the node counters, with the hop table or the parent forwarding."""
    sim = Simulator(seed=1)
    net = Network(sim)
    for a, b, delay in edges:
        net.add_duplex_link(a, b, 1e6, delay, 5)
    names = sorted(net.nodes)
    agents = {name: net.attach(name, RecordingAgent(sim, "f")) for name in names}
    if oracle:
        for node in net.nodes.values():
            node.hops = ParentForwarding(node)
    hops = []
    real_enqueue = Link.enqueue

    def enqueue(link, packet):
        hops.append((packet.uid, link.name))
        return real_enqueue(link, packet)

    with mock.patch.object(Link, "enqueue", enqueue):
        for kind, i, j, delay, wait in ops:
            a, b, _delay = edges[i % len(edges)]
            if kind == "send":
                src, dst = names[i % len(names)], (names + ["nowhere"])[j % (len(names) + 1)]
                agents[src].send(Packet(src=src, dst=dst, flow_id="f", size=500))
            elif kind == "fail":
                net.fail_link(a, b)
            elif kind == "restore":
                net.restore_link(a, b)
            else:
                net.set_link_delay(a, b, delay)
            sim.run(until=sim.now + wait)
        sim.run()
    received = {name: [(p.uid, p.src) for p in agent.received] for name, agent in agents.items()}
    counters = {
        name: (node.packets_forwarded, node.packets_delivered, node.packets_unroutable)
        for name, node in net.nodes.items()
    }
    return hops, received, counters


#: Two paths from n0 to n2; failing the short one while n0 has already
#: forwarded over it must send the next packet round the long one.
_HOP_WITNESS = (
    [("n0", "n1", 0.001), ("n1", "n2", 0.001), ("n0", "n3", 0.1), ("n3", "n2", 0.1)],
    [("send", 0, 2, 0.1, 0.5), ("fail", 0, 0, 0.1, 0.0), ("send", 0, 2, 0.1, 0.5)],
)


class TestHopTable:
    @settings(max_examples=100, deadline=None)
    @given(edges=graphs(), ops=_HOP_OPS)
    def test_packets_take_the_hops_of_the_parent_forwarding_under_dynamics(self, edges, ops):
        assert hop_walk(edges, ops, oracle=False) == hop_walk(edges, ops, oracle=True)

    def test_the_witness_passes_unmutated(self):
        walk = hop_walk(*_HOP_WITNESS, oracle=False)
        assert walk == hop_walk(*_HOP_WITNESS, oracle=True)
        assert [link for _uid, link in walk[0]] == ["n0->n1", "n1->n2", "n0->n3", "n3->n2"]

    def test_the_comparison_catches_a_hop_table_fail_link_does_not_clear(self):
        with mock.patch.object(Network, "fail_link", fail_link_keeping_hops):
            assert hop_walk(*_HOP_WITNESS, oracle=False) != hop_walk(*_HOP_WITNESS, oracle=True)

    @pytest.mark.slow
    def test_generator_reaches_dynamics_that_catch_the_uncleared_hop_table(self):
        with mock.patch.object(Network, "fail_link", fail_link_keeping_hops):
            find(
                st.tuples(graphs(), _HOP_OPS),
                lambda case: hop_walk(*case, oracle=False) != hop_walk(*case, oracle=True),
                settings=settings(max_examples=2000, database=None, deadline=None),
            )

    def test_a_node_counts_what_it_offers_its_links(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.add_duplex_link("a", "b", 1e5, 0.01, 2)
        sender = net.attach("a", RecordingAgent(sim, "f"))
        for _ in range(6):  # one on the serialiser, two queued, three dropped
            sender.send(Packet(src="a", dst="b", flow_id="f", size=1000))
        node = net.node("a")
        assert node.packets_forwarded == 6
        net.fail_link("a", "b")  # the queue and the frame become down drops
        assert node.packets_forwarded == 6
        sender.send(Packet(src="a", dst="b", flow_id="f", size=1000))
        assert node.packets_forwarded == 6 and node.packets_unroutable == 1
