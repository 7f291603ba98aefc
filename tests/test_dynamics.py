"""Tests for the time-scripted network dynamics subsystem.

Covers the live-mutation link APIs, topology-change propagation (route
rebuild + multicast re-graft), the ``DynamicsSpec`` scenario layer, the
dotted-path ``with_overrides`` helper, the unified path queries, dynamic
membership determinism and the four dynamics scenarios.
"""

import json

import pytest

from repro.scenarios.build import build_scenario, run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import (
    CustomSpec,
    DuplexLinkSpec,
    DynamicsSpec,
    FlowSpec,
    GilbertElliottSpec,
    MetricsSpec,
    NetworkEventSpec,
    ReceiverSpec,
    ScenarioSpec,
)
from repro.session import TFMCCSession
from repro.simulator.engine import Simulator
from repro.simulator.multicast import MulticastGroup
from repro.simulator.node import Agent, RoutingError
from repro.simulator.packet import Packet
from repro.simulator.topology import Network


class RecordingAgent(Agent):
    def __init__(self, sim, flow_id):
        super().__init__(sim, flow_id)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def diamond_network(sim):
    """src - a - dst with a slower backup path via b."""
    net = Network(sim)
    net.add_duplex_link("src", "a", 1e6, 0.01)
    net.add_duplex_link("a", "dst", 1e6, 0.01)
    net.add_duplex_link("src", "b", 1e6, 0.02)
    net.add_duplex_link("b", "dst", 1e6, 0.02)
    return net


# --------------------------------------------------------------- link mutation


class TestLinkMutation:
    def test_set_bandwidth_changes_serialisation_of_later_packets(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        link = net.add_link("a", "b", 1e6, 0.0)
        sink = RecordingAgent(sim, "f")
        net.attach("b", sink)
        link.enqueue(Packet(src="a", dst="b", flow_id="f", size=1000))
        sim.run()
        first_arrival = sim.now  # 8 ms serialisation at 1 Mbit/s
        assert first_arrival == pytest.approx(0.008)
        link.set_bandwidth(2e6)
        link.enqueue(Packet(src="a", dst="b", flow_id="f", size=1000))
        sim.run()
        assert sim.now - first_arrival == pytest.approx(0.004)
        assert len(sink.received) == 2

    def test_set_bandwidth_rejects_nonpositive(self):
        sim = Simulator(seed=1)
        link = Network(sim).add_link("a", "b", 1e6, 0.0)
        with pytest.raises(ValueError):
            link.set_bandwidth(0.0)

    def test_set_loss_rate_clears_loss_model(self):
        from repro.simulator.link import GilbertElliottLoss

        sim = Simulator(seed=1)
        link = Network(sim).add_link("a", "b", 1e6, 0.0)
        bursty = GilbertElliottLoss(0.1, 0.5)
        link.set_channel(bursty)
        assert link.channel is bursty and link.loss_rate == 0.0
        # Replacing a stateful loss process discards its state, so the
        # replacement announces itself.
        with pytest.warns(RuntimeWarning, match="replaces the active"):
            link.set_loss_rate(0.25)
        assert link.channel is not bursty
        assert link.loss_rate == pytest.approx(0.25)

    def test_down_link_flushes_queue_and_refuses_packets(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        link = net.add_link("a", "b", 1e5, 0.001)  # slow: queue builds up
        sink = RecordingAgent(sim, "f")
        net.attach("b", sink)
        for _ in range(5):
            link.enqueue(Packet(src="a", dst="b", flow_id="f", size=1000))
        assert link.queue_length == 4  # one in serialisation
        link.set_down()
        assert link.queue_length == 0
        # 4 queued + 1 mid-serialisation dropped.
        assert link.down_drops == 5
        assert not link.busy
        assert link.enqueue(Packet(src="a", dst="b", flow_id="f", size=1000)) is False
        assert link.down_drops == 6
        sim.run()
        assert sink.received == []  # nothing survived the failure

    def test_link_recovers_after_set_up(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        link = net.add_link("a", "b", 1e6, 0.001)
        sink = RecordingAgent(sim, "f")
        net.attach("b", sink)
        link.set_down()
        link.set_up()
        assert link.enqueue(Packet(src="a", dst="b", flow_id="f", size=1000)) is True
        sim.run()
        assert len(sink.received) == 1
        assert link.total_drops == 0


# ------------------------------------------------------------ network dynamics


class TestNetworkDynamics:
    def test_fail_link_reroutes_unicast(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        assert net.path("src", "dst") == ["src", "a", "dst"]
        net.fail_link("a", "dst")
        assert net.path("src", "dst") == ["src", "b", "dst"]
        assert net.node("src").routes["dst"] == "b"
        net.restore_link("a", "dst")
        assert net.path("src", "dst") == ["src", "a", "dst"]

    def test_fail_link_regrafts_multicast_tree(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        group = MulticastGroup(net, "g", "src")
        rcv = RecordingAgent(sim, "r")
        net.attach("dst", rcv)
        group.join("dst", rcv)
        assert ("a", "dst") in group.tree_edges()
        net.fail_link("a", "dst")
        assert group.tree_edges() == {("src", "b"), ("b", "dst")}
        # Delivery continues over the new tree.
        sender = RecordingAgent(sim, "s")
        net.attach("src", sender)
        sender.send(Packet(src="src", dst=None, flow_id="r", size=100, group="g"))
        sim.run()
        assert len(rcv.received) == 1

    def test_fail_link_unknown_pair_raises(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        with pytest.raises(RoutingError, match="no link"):
            net.fail_link("src", "dst")

    def test_path_raises_when_partitioned(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        net.fail_link("a", "dst")
        net.fail_link("b", "dst")
        with pytest.raises(RoutingError, match="no path"):
            net.path("src", "dst")
        # Forwarding drops rather than crashes: the packet counts as unroutable.
        sender = RecordingAgent(sim, "f")
        net.attach("src", sender)
        sender.send(Packet(src="src", dst="dst", flow_id="f", size=100))
        sim.run()
        assert net.node("src").packets_unroutable == 1
        assert net.node("src").packets_forwarded == 0

    def test_path_unknown_node_raises(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        with pytest.raises(RoutingError, match="unknown node"):
            net.path("src", "nope")
        with pytest.raises(RoutingError, match="unknown node"):
            net.path("nope", "src")

    def test_path_delay_raises_on_inconsistent_topology(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        # Corrupt the topology: routing edge exists but the link is gone.
        del net.nodes["a"].links["dst"]
        with pytest.raises(RoutingError, match="inconsistent topology"):
            net.path_delay("src", "dst")

    def test_set_link_delay_changes_routing_weight(self):
        sim = Simulator(seed=1)
        net = diamond_network(sim)
        assert net.path("src", "dst") == ["src", "a", "dst"]
        net.set_link_delay("a", "dst", 0.2)
        assert net.path("src", "dst") == ["src", "b", "dst"]
        assert net.path_delay("src", "dst") == pytest.approx(0.04)

    def test_route_rebuild_probe_events(self):
        from repro.metrics.trace import TraceRecorder

        sim = Simulator(seed=1)
        net = diamond_network(sim)
        net.probe = TraceRecorder()
        net.fail_link("a", "dst")
        net.restore_link("a", "dst")
        kinds = [e[1] for e in net.probe.events("route_rebuild")]
        assert kinds == ["link_down:a<->dst", "link_up:a<->dst"]


# ----------------------------------------------------------- dynamic membership


class TestDynamicMembership:
    @staticmethod
    def _interleaved_run():
        sim = Simulator(seed=7)
        net = Network.star(sim, num_leaves=5)
        group = MulticastGroup(net, "g", "source")
        agents = [RecordingAgent(sim, f"r{i}") for i in range(5)]
        for i in range(5):
            net.attach(f"leaf{i}", agents[i])
        snapshots = []
        for op, i in [
            ("join", 2), ("join", 0), ("leave", 2), ("join", 4),
            ("join", 1), ("leave", 0), ("join", 3), ("join", 2),
        ]:
            if op == "join":
                group.join(f"leaf{i}", agents[i])
            else:
                group.leave(f"leaf{i}", agents[i])
            snapshots.append(tuple(net.node("hub").mcast_routes.get("g", ())))
        return snapshots

    def test_regraft_order_is_deterministic_under_interleaved_churn(self):
        first = self._interleaved_run()
        second = self._interleaved_run()
        assert first == second
        # Forwarding order follows the surviving-join order, not leaf naming.
        assert first[-1] == ("leaf4", "leaf1", "leaf3", "leaf2")

    def test_receiver_double_leave_sends_one_leave_report(self):
        sim = Simulator(seed=1)
        net = Network.dumbbell(sim, 1, 2, 1e6, 0.02, 10e6, 0.001)
        session = TFMCCSession(sim, net, sender_node="src0")
        receiver = session.add_receiver("dst0", receiver_id="r0")
        session.start(0.0)
        sim.run(until=3.0)
        sent_before = receiver.feedback_sent
        session.remove_receiver("r0")
        assert receiver.feedback_sent == sent_before + 1  # the leave report
        assert receiver.active is False
        # Double leave: no second report, no error.
        session.remove_receiver("r0")
        receiver.leave()
        assert receiver.feedback_sent == sent_before + 1
        sim.run(until=4.0)
        assert "r0" not in session.sender.receivers


# ------------------------------------------------------------------ spec layer


def _two_path_spec(**kwargs):
    links = (
        DuplexLinkSpec("src", "r1", 8e6, 0.001),
        DuplexLinkSpec("r1", "r2", 4e6, 0.01),
        DuplexLinkSpec("r1", "r3", 2e6, 0.01),
        DuplexLinkSpec("r3", "r2", 0.5e6, 0.03),
        DuplexLinkSpec("r2", "rcv", 8e6, 0.001),
    )
    defaults = dict(
        name="two-path",
        duration=12.0,
        topology=CustomSpec(extra_links=links),
        flows=(FlowSpec(kind="tfmcc", src="src", receivers=(ReceiverSpec(node="rcv"),)),),
        metrics=MetricsSpec(with_trace=True),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestDynamicsSpec:
    def test_json_round_trip(self):
        spec = _two_path_spec(
            dynamics=DynamicsSpec(
                events=(
                    NetworkEventSpec(at=4.0, kind="link_down", a="r1", b="r2"),
                    NetworkEventSpec(at=6.0, kind="link_up", a="r1", b="r2"),
                    NetworkEventSpec(
                        at=8.0,
                        kind="link_update",
                        a="r1",
                        b="r2",
                        bandwidth=1e6,
                        gilbert_elliott=GilbertElliottSpec(0.05, 0.4),
                        direction="forward",
                    ),
                    NetworkEventSpec(at=9.0, kind="receiver_join", node="rcv", receiver_id="x"),
                    NetworkEventSpec(at=10.0, kind="receiver_leave", receiver_id="x"),
                )
            )
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec

    def test_old_dicts_without_dynamics_still_load(self):
        data = _two_path_spec().to_dict()
        del data["dynamics"]
        spec = ScenarioSpec.from_dict(data)
        assert spec.dynamics.events == ()

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            NetworkEventSpec(at=1.0, kind="explode", a="x", b="y")
        with pytest.raises(ValueError, match="requires link endpoints"):
            NetworkEventSpec(at=1.0, kind="link_down", a="x")
        with pytest.raises(ValueError, match="changes nothing"):
            NetworkEventSpec(at=1.0, kind="link_update", a="x", b="y")
        with pytest.raises(ValueError, match="requires a node"):
            NetworkEventSpec(at=1.0, kind="receiver_join")
        with pytest.raises(ValueError, match="requires a receiver_id"):
            NetworkEventSpec(at=1.0, kind="receiver_leave")
        with pytest.raises(ValueError, match="both directions"):
            NetworkEventSpec(at=1.0, kind="link_update", a="x", b="y", delay=0.1, direction="forward")
        with pytest.raises(ValueError, match="whole duplex link"):
            NetworkEventSpec(at=1.0, kind="link_down", a="x", b="y", direction="forward")
        with pytest.raises(ValueError, match="must be >= 0"):
            NetworkEventSpec(at=-1.0, kind="link_down", a="x", b="y")

    def test_membership_events_require_a_tfmcc_flow(self):
        for kind, extra in (
            ("receiver_join", {"node": "rcv"}),
            ("receiver_leave", {"receiver_id": "x"}),
        ):
            with pytest.raises(ValueError, match="no TFMCC flow"):
                _two_path_spec(
                    flows=(FlowSpec(kind="tcp-reno", name="t0", src="src", dst="rcv"),),
                    dynamics=DynamicsSpec(
                        events=(NetworkEventSpec(at=2.0, kind=kind, **extra),)
                    ),
                )

    def test_scenario_rejects_event_after_duration(self):
        with pytest.raises(ValueError, match="never fires"):
            _two_path_spec(
                dynamics=DynamicsSpec(
                    events=(NetworkEventSpec(at=99.0, kind="link_down", a="r1", b="r2"),)
                )
            )

    def test_builder_rejects_unknown_link_endpoints(self):
        spec = _two_path_spec(
            dynamics=DynamicsSpec(
                events=(NetworkEventSpec(at=4.0, kind="link_down", a="r1", b="nope"),)
            )
        )
        with pytest.raises(ValueError, match="no link"):
            build_scenario(spec, seed=1)

    def test_link_failure_changes_delivery_and_counts_down_drops(self):
        spec = _two_path_spec(
            dynamics=DynamicsSpec(
                events=(NetworkEventSpec(at=5.0, kind="link_down", a="r1", b="r2"),)
            )
        )
        built = build_scenario(spec, seed=1)
        built.sim.run(until=spec.duration)
        assert built.network.path("src", "rcv") == ["src", "r1", "r3", "r2", "rcv"]
        record = built.collect()
        assert "down_drops" in record["links"]
        dyn = record["trace"]["dynamics"]
        assert dyn["events"] == [[5.0, "link_down", "r1<->r2"]]
        assert dyn["route_rebuilds"] == 1

    def test_membership_events_join_and_leave_receiver(self):
        spec = _two_path_spec(
            dynamics=DynamicsSpec(
                events=(
                    NetworkEventSpec(at=3.0, kind="receiver_join", node="rcv", receiver_id="late"),
                    NetworkEventSpec(at=9.0, kind="receiver_leave", receiver_id="late"),
                )
            )
        )
        built = build_scenario(spec, seed=1)
        assert built.receiver_ids[0][-1] == "late"
        built.sim.run(until=6.0)
        assert built.sessions[0].receivers["late"].active is True
        built.sim.run(until=spec.duration)
        assert built.sessions[0].receivers["late"].active is False
        record = built.collect()
        assert any(f["id"] == "late" for f in record["flows"])

    def test_dotted_overrides_reach_nested_fields(self):
        spec = _two_path_spec()
        out = spec.with_overrides(
            duration=20.0,
            **{
                "topology.extra_links.1.bandwidth": 9e6,
                "metrics.with_trace": False,
            },
        )
        assert out.duration == 20.0
        assert out.topology.extra_links[1].bandwidth == 9e6
        assert out.metrics.with_trace is False
        # The original is untouched (immutably rebuilt).
        assert spec.topology.extra_links[1].bandwidth == 4e6

    def test_dotted_override_errors_are_clear(self):
        spec = _two_path_spec()
        with pytest.raises(ValueError, match="no field 'bogus'"):
            spec.with_overrides(**{"topology.bogus": 1})
        with pytest.raises(ValueError, match="integer index"):
            spec.with_overrides(**{"topology.extra_links.x.bandwidth": 1})
        with pytest.raises(ValueError, match="out of range"):
            spec.with_overrides(**{"topology.extra_links.99.bandwidth": 1})
        with pytest.raises(ValueError, match="cannot descend"):
            spec.with_overrides(**{"duration.x": 1})
        # Validation of the rebuilt level still applies.
        lossy = _two_path_spec(
            flows=(
                FlowSpec(
                    kind="tfmcc",
                    src="src",
                    receivers=(ReceiverSpec(node="rcv", join_at=1.0, leave_at=5.0),),
                ),
            )
        )
        with pytest.raises(ValueError, match="must be\n*.*after"):
            lossy.with_overrides(**{"flows.0.receivers.0.join_at": 8.0})

    def test_dotted_override_validates_rebuilt_scenario(self):
        spec = _two_path_spec(
            dynamics=DynamicsSpec(
                events=(NetworkEventSpec(at=10.0, kind="link_down", a="r1", b="r2"),)
            )
        )
        with pytest.raises(ValueError, match="never fires"):
            spec.with_overrides(duration=8.0)


# ----------------------------------------------------------- dynamics scenarios


class TestDynamicsScenarios:
    def test_registry_contains_dynamics_scenarios(self):
        from repro.scenarios.registry import scenario_names

        names = scenario_names()
        for expected in (
            "link_failure_reroute",
            "bandwidth_step",
            "loss_step_responsiveness",
            "receiver_churn",
        ):
            assert expected in names

    def test_link_failure_reroute_regrafts_and_hands_off_clr(self):
        spec = get_scenario("link_failure_reroute").spec()
        built = build_scenario(spec, seed=1)
        group = built.sessions[0].group
        built.sim.run(until=25.0)
        tree_before = group.tree_edges()
        assert ("core", "r2") in tree_before
        built.sim.run(until=30.0)  # past fail_at=26
        tree_after = group.tree_edges()
        assert ("core", "r2") not in tree_after
        assert ("r3", "r2") in tree_after
        built.sim.run(until=spec.duration)
        record = built.collect()
        dyn = record["trace"]["dynamics"]
        assert dyn["route_rebuilds"] == 2
        # The sender adopts the rerouted receiver as CLR within a few
        # feedback rounds (round = feedback_delay + max_rtt = 2.5 s).
        fail_t = dyn["events"][0][0]
        switches = [(t, r) for t, r, _flow in dyn["clr_switches"] if t >= fail_t]
        assert switches, "no CLR switch after the failure"
        t_switch, new_clr = switches[0]
        assert new_clr == built.receiver_ids[0][1]  # rcv_far's receiver id
        assert t_switch - fail_t < 5 * 2.5

    def test_bandwidth_step_reduces_rate(self):
        record = run_scenario(
            get_scenario("bandwidth_step").spec(restore_at=None, duration=40.0), seed=1
        )
        series = record["trace"]["dynamics"]["rate_series"]
        step_t = record["trace"]["dynamics"]["events"][0][0]
        post = [rate for t, rate, _flow in series if t >= step_t + 2.5]
        assert post and min(post) < 2e6 * 0.4 * 1.2

    def test_receiver_churn_rejects_join_without_room_to_leave(self):
        # A churner joining in the last second would get its (clamped)
        # leave scheduled before its join — must be rejected, not silently
        # mis-scheduled.
        with pytest.raises(ValueError, match="no room to leave"):
            get_scenario("receiver_churn").spec(num_churners=4, duration=17.9)
        with pytest.raises(ValueError, match="no room to leave"):
            get_scenario("receiver_churn").spec(num_churners=4, duration=15.0)

    def test_receiver_churn_hands_clr_back_after_leave(self):
        record = run_scenario(get_scenario("receiver_churn").spec(), seed=1)
        dyn = record["trace"]["dynamics"]
        kinds = [e[1] for e in dyn["events"]]
        assert kinds.count("receiver_join") == 6
        assert kinds.count("receiver_leave") == 6
        # All churners delivered traffic.
        churn_flows = [f for f in record["flows"] if f["id"].startswith("churn")]
        assert len(churn_flows) == 6
        assert all(f["avg_bps"] > 0 for f in churn_flows)

    def test_dynamics_runs_are_seed_deterministic(self):
        for name in ("link_failure_reroute", "receiver_churn"):
            spec = get_scenario(name).spec()
            first = run_scenario(spec, seed=3)
            second = run_scenario(spec, seed=3)
            assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
