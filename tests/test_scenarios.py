"""Tests for the declarative scenario subsystem.

Covers the spec family (JSON round-trips, validation), the builders (all
topology kinds, membership schedules, background traffic), the named
registry, and the Gilbert-Elliott loss model / background sources the
scenarios rely on.
"""

import json
import math
import random

import pytest

from repro.scenarios import (
    ChainSpec,
    CustomSpec,
    DuplexLinkSpec,
    EdgeSpec,
    FlowSpec,
    GilbertElliottSpec,
    ImpairmentSpec,
    MetricsSpec,
    ReceiverRun,
    ReceiverSpec,
    ScenarioSpec,
    StarSpec,
    build_network,
    build_scenario,
    get_scenario,
    run_scenario,
    scenario_names,
    scenarios,
)
from repro.scenarios.registry import gilbert_elliott_from_burst
from repro.simulator.engine import Simulator
from repro.simulator.link import GilbertElliottLoss
from repro.simulator.sources import CBRSource, OnOffSource, TrafficSink
from repro.simulator.topology import Network


TINY_KW = {"duration": 5.0}


# ----------------------------------------------------------------- spec layer


def test_spec_json_round_trip_all_topologies():
    ge = GilbertElliottSpec(p_good_bad=0.01, p_bad_good=0.2)
    specs = [
        get_scenario("fairness").spec(num_tcp=2),
        get_scenario("late-join").spec(),
        ScenarioSpec(
            name="star-test",
            duration=10.0,
            topology=StarSpec(
                leaves=(
                    EdgeSpec(bandwidth=1e6, delay=0.01),
                    EdgeSpec(
                        bandwidth=2e6,
                        delay=0.02,
                        impairment=ImpairmentSpec(gilbert_elliott=ge),
                    ),
                ),
            ),
            flows=(FlowSpec(kind="tfmcc", src="source", receivers=(ReceiverSpec(node="leaf0"),)),),
        ),
        ScenarioSpec(
            name="chain-test",
            duration=10.0,
            topology=ChainSpec(
                hops=(EdgeSpec(bandwidth=1e6, delay=0.01), EdgeSpec(bandwidth=5e5, delay=0.02)),
            ),
            flows=(FlowSpec(kind="tfmcc", src="n0", receivers=(ReceiverSpec(node="n2"),)),),
        ),
        ScenarioSpec(
            name="custom-test",
            duration=10.0,
            topology=CustomSpec(
                extra_links=(DuplexLinkSpec("a", "b", 1e6, 0.01),),
            ),
            flows=(FlowSpec(kind="cbr", name="bg", src="a", dst="b", params={"rate_bps": 1e5}),),
        ),
    ]
    for spec in specs:
        round_tripped = ScenarioSpec.from_json(spec.to_json())
        assert round_tripped == spec, spec.name


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(name="empty", duration=10.0, topology=CustomSpec())  # no traffic
    with pytest.raises(ValueError):
        get_scenario("fairness").spec(num_tcp=2).with_overrides(duration=-1.0)
    with pytest.raises(ValueError):
        FlowSpec(kind="bogus", name="x", src="a", dst="b", params={"rate_bps": 1e5})
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict(
            {"name": "x", "duration": 1.0, "topology": {"kind": "moebius"}}
        )


@pytest.mark.parametrize(
    "duration", [float("nan"), float("inf"), float("-inf"), True, "10"], ids=repr
)
def test_a_duration_that_never_ends_the_run_loop_is_refused(duration, capsys):
    """``time >= NaN`` is never true and ``inf`` is never reached, so the spec
    refuses them (and non-numbers) on every way in, naming the field."""
    from repro.cli import main

    match = "duration must be a positive finite number"
    spec = get_scenario("fairness").spec(num_tcp=2)
    with pytest.raises(ValueError, match=match):
        ScenarioSpec(name="x", duration=duration, topology=spec.topology, flows=spec.flows)
    with pytest.raises(ValueError, match=match):
        ScenarioSpec.from_dict({**spec.to_dict(), "duration": duration})
    with pytest.raises(ValueError, match=match):
        spec.with_overrides(duration=duration)
    with pytest.raises(ValueError, match=match):
        get_scenario("fairness").spec(duration=duration)
    with pytest.raises(ValueError, match="duration|bad parameter"):
        get_scenario("receiver_churn").spec(duration=duration)  # does arithmetic first
    assert main(["run", "fairness", "--set", f"duration={json.dumps(duration)}"]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [
        ("interval", float("nan")),
        ("interval", float("inf")),
        ("interval", 0.0),
        ("interval", True),
        ("interval", "1"),
        ("trace_queue_interval", float("nan")),
        ("trace_queue_interval", -0.5),
        ("warmup_fraction", 1.0),
        ("warmup_fraction", -0.1),
        ("warmup_fraction", float("nan")),
        ("warmup_fraction", False),
    ],
    ids=repr,
)
def test_metrics_spec_refuses_a_bad_period_or_warmup_by_name(name, value):
    """A NaN ``metrics.interval`` used to pass the spec and fail in the first
    throughput bin with ``cannot convert float NaN to integer``."""
    match = f"metrics.{name} must"
    with pytest.raises(ValueError, match=match):
        MetricsSpec(**{name: value})
    spec = get_scenario("fairness").spec(num_tcp=1)
    with pytest.raises(ValueError, match=match):
        spec.with_overrides(**{f"metrics.{name}": value})
    metrics = {**spec.to_dict()["metrics"], name: value}
    with pytest.raises(ValueError, match=match):
        ScenarioSpec.from_dict({**spec.to_dict(), "metrics": metrics})


def test_metrics_spec_bounds_that_stay_valid():
    assert MetricsSpec(interval=2, trace_queue_interval=1e-3, warmup_fraction=0).interval == 2
    assert MetricsSpec(warmup_fraction=0.999).warmup_fraction == 0.999


BAD_LINK_FIELDS = [
    ("bandwidth", float("nan")),
    ("bandwidth", float("inf")),
    ("bandwidth", 0.0),
    ("bandwidth", -1e6),
    ("bandwidth", True),
    ("bandwidth", "1e6"),
    ("delay", float("nan")),
    ("delay", float("inf")),
    ("delay", -1),
    ("delay", -1e-9),
    ("delay", None),
    ("queue_limit", 0),
    ("queue_limit", -5),
    ("queue_limit", True),
    ("queue_limit", 2.5),
    ("queue_limit", 50.0),
    ("queue_limit", "50"),
]


@pytest.mark.parametrize("name, value", BAD_LINK_FIELDS, ids=repr)
def test_an_edge_refuses_a_bandwidth_delay_or_queue_no_link_can_have(name, value):
    """``EdgeSpec(bandwidth=nan)`` used to construct and fail mid-run with
    ``cannot schedule event at nan``, naming no field."""
    match = f"edge.{name} must"
    with pytest.raises(ValueError, match=match):
        EdgeSpec(**{"bandwidth": 1e6, "delay": 0.01, name: value})
    spec = get_scenario("bursty-loss").spec()  # an explicit leaf tuple
    with pytest.raises(ValueError, match=match):
        spec.with_overrides(**{f"topology.leaves.1.{name}": value})
    data = spec.to_dict()
    data["topology"]["leaves"][1][name] = value
    with pytest.raises(ValueError, match=match):
        ScenarioSpec.from_dict(data)
    run = get_scenario("wireless_last_hop").spec()  # one leaf run
    with pytest.raises(ValueError, match=match):
        run.with_overrides(**{f"topology.leaves.edge.{name}": value})


@pytest.mark.parametrize("name, value", BAD_LINK_FIELDS, ids=repr)
def test_a_duplex_link_refuses_a_bandwidth_delay_or_queue_no_link_can_have(name, value):
    match = f"link a-b.{name} must"
    with pytest.raises(ValueError, match=match):
        DuplexLinkSpec(**{"a": "a", "b": "b", "bandwidth": 1e6, "delay": 0.01, name: value})
    spec = get_scenario("late-join").spec()
    match = f"link router_right-slow_tail.{name} must"
    with pytest.raises(ValueError, match=match):
        spec.with_overrides(**{f"topology.extra_links.0.{name}": value})
    data = spec.to_dict()
    data["topology"]["extra_links"][0][name] = value
    with pytest.raises(ValueError, match=match):
        ScenarioSpec.from_dict(data)


@pytest.mark.parametrize(
    "name, value",
    [
        ("p_good_bad", 1.5),
        ("p_good_bad", -0.01),
        ("p_bad_good", float("nan")),
        ("loss_good", True),
        ("loss_bad", 1.0000001),
        ("loss_bad", "1"),
    ],
    ids=repr,
)
def test_gilbert_elliott_spec_refuses_a_probability_outside_0_1(name, value):
    """``GilbertElliottSpec(p_good_bad=1.5)`` used to construct and fail only
    when the channel was built."""
    match = f"gilbert_elliott.{name} must be a probability"
    with pytest.raises(ValueError, match=match):
        GilbertElliottSpec(**{"p_good_bad": 0.1, "p_bad_good": 0.5, name: value})
    spec = get_scenario("bursty-loss").spec()
    key = f"topology.leaves.{len(spec.topology.leaves) - 1}.impairment.gilbert_elliott.{name}"
    with pytest.raises(ValueError, match=match):
        spec.with_overrides(**{key: value})
    data = spec.to_dict()
    data["topology"]["leaves"][-1]["impairment"]["gilbert_elliott"][name] = value
    with pytest.raises(ValueError, match=match):
        ScenarioSpec.from_dict(data)


def test_link_bounds_that_stay_valid():
    assert EdgeSpec(bandwidth=1, delay=0, queue_limit=1).delay == 0
    assert DuplexLinkSpec("a", "b", 2_000_000, 0.0, queue_limit=1).bandwidth == 2_000_000
    ge = GilbertElliottSpec(p_good_bad=0, p_bad_good=1, loss_good=0.0, loss_bad=1.0)
    assert ge.build().stationary_loss_rate == 0.0


def test_a_nan_event_time_is_refused():
    """A heap cannot order NaN: the event would fire at an arbitrary point
    (measured: before t = 0) with ``now = nan``."""
    nan = float("nan")
    spec = get_scenario("bandwidth_step").spec()
    with pytest.raises(ValueError, match="event.at must"):
        spec.with_overrides(**{"dynamics.events.0.at": nan})
    with pytest.raises(ValueError, match="flow.start must"):
        spec.with_overrides(**{"flows.0.start": nan})
    with pytest.raises(ValueError, match="flow.stop must"):
        spec.with_overrides(**{"flows.0.stop": nan})


def test_receiver_spec_rejects_leave_before_join():
    with pytest.raises(ValueError, match="leave_at"):
        ReceiverSpec(node="dst0", join_at=30.0, leave_at=20.0)
    from repro.session import TFMCCSession
    from repro.simulator.topology import Network as Net

    sim = Simulator(seed=1)
    net = Net.dumbbell(sim, 1, 1, 1e6, 0.01, 10e6, 0.001)
    session = TFMCCSession(sim, net, sender_node="src0")
    with pytest.raises(ValueError, match="leave_at"):
        session.add_receiver_at(30.0, "dst0", leave_at=20.0)


def test_background_traffic_with_zero_fraction_runs():
    spec = get_scenario("background-traffic").spec(bg_fraction=0.0, duration=4.0)
    assert not [f for f in spec.flows if f.kind == "onoff"]
    record = run_scenario(spec, seed=1)
    assert record["tfmcc_mean_bps"] > 0


def test_spec_from_dict_rejects_unknown_fields():
    spec = get_scenario("fairness").spec(num_tcp=2)
    data = spec.to_dict()
    data["metrics"]["frobnicate"] = True
    with pytest.raises(ValueError, match="frobnicate"):
        ScenarioSpec.from_dict(data)


# ------------------------------------------------------------------ registry


def test_registry_contains_paper_and_new_scenarios():
    names = scenario_names()
    for expected in (
        "fairness",
        "individual-bottlenecks",
        "scaling",
        "late-join",
        "responsiveness",
        "bursty-loss",
        "background-traffic",
        "flash-crowd",
        "link_failure_reroute",
        "bandwidth_step",
        "loss_step_responsiveness",
        "receiver_churn",
        "tfmcc_vs_tfrc",
        "protocol_mix",
        "rtt_acquisition",
        "rtt_step",
        "slowstart",
        "return_path_traffic",
        "lossy_return_paths",
        "increasing_congestion",
    ):
        assert expected in names
    assert len(scenarios()) == len(names)


def test_registry_unknown_name_and_param():
    with pytest.raises(KeyError, match="available"):
        get_scenario("nope")
    with pytest.raises(ValueError, match="unknown parameters"):
        get_scenario("fairness").spec(bogus_param=1)


def test_every_registered_scenario_builds_and_runs():
    for factory in scenarios():
        spec = factory.spec()
        if not spec.dynamics:
            # Static scenarios shrink to a smoke-test duration; dynamics
            # schedules are anchored at absolute times, so those scenarios
            # run at their (still CLI-sized) default length.
            spec = spec.with_overrides(duration=4.0)
        record = run_scenario(spec, seed=1)
        assert record["scenario"] == spec.name
        assert record["events"] > 0
        assert record["flows"], spec.name


def test_every_topology_spec_names_exactly_the_nodes_it_builds():
    """``node_families`` is what lets a scenario be refused before it is built."""
    topologies = {factory.spec().topology for factory in scenarios()}
    topologies.add(ChainSpec(hops=()))
    topologies.add(StarSpec(leaves=()))
    for topology in topologies:
        named, numbered = topology.node_families()
        spelt_out = set(named)
        for prefix, count in numbered.items():
            spelt_out.update(f"{prefix}{i}" for i in range(count))
        built = set(build_network(Simulator(seed=1), topology).nodes)
        assert spelt_out == built, topology.kind


@pytest.mark.parametrize("engine", ["exact", "cohort"])
def test_a_flow_on_a_node_the_topology_lacks_is_refused(engine):
    if engine == "cohort":
        pytest.importorskip("numpy")

    def scaling(num_receivers, **overrides):
        spec = get_scenario("scaling").spec(num_receivers=num_receivers, duration=5.0)
        return spec.with_overrides(**{"engine.kind": engine, **overrides})

    # Used to run with tfmcc0-rcv2/3 on fresh isolated nodes at 0 bit/s.
    with pytest.raises(ValueError, match="flow 'tfmcc0' is on node 'dst3'.*dumbbell"):
        run_scenario(scaling(4, **{"topology.num_right": 2}), seed=1)
    # The cohort engine prunes unused dst nodes; its members still need theirs.
    with pytest.raises(ValueError, match="flow 'tfmcc0' is on node 'dst999'"):
        run_scenario(scaling(1000, **{"topology.num_right": 10}), seed=1)
    explicit = tuple(ReceiverSpec(f"dst{i}") for i in range(1000))
    with pytest.raises(ValueError, match="flow 'tfmcc0' is on node 'dst10'"):
        run_scenario(
            scaling(1000, **{"topology.num_right": 10, "flows.0.receivers": explicit}), seed=1
        )
    for key, node in [
        ("flows.0.src", "src1"),
        ("flows.0.receivers.node", "dst0{}"),
        ("flows.0.receivers.node", "host{}"),
        ("flows.0.receivers.first", 1),
    ]:
        with pytest.raises(ValueError, match="flow 'tfmcc0' is on node"):
            run_scenario(scaling(4, **{key: node}), seed=1)
    # A run over individually named nodes (a custom topology) is spelt out.
    tails = get_scenario("individual-bottlenecks").spec(num_receivers=3, duration=5.0)
    tails = tails.with_overrides(**{"engine.kind": engine})
    on_a_run = tails.with_overrides(**{"flows.0.receivers": ReceiverRun("rcv{}", 3)})
    assert run_scenario(on_a_run, seed=1)["flows"] == run_scenario(tails, seed=1)["flows"]
    with pytest.raises(ValueError, match="flow 'tfmcc0' is on node 'rcv3'.*custom"):
        run_scenario(on_a_run.with_overrides(**{"flows.0.receivers.count": 4}), seed=1)
    fairness = get_scenario("fairness").spec(num_tcp=2, duration=5.0)
    with pytest.raises(ValueError, match="flow 'tcp1' is on node 'dst01'"):
        run_scenario(fairness.with_overrides(**{"engine.kind": engine, "flows.1.dst": "dst01"}))
    churn = get_scenario("receiver_churn").spec()
    index = next(i for i, e in enumerate(churn.dynamics.events) if e.kind == "receiver_join")
    with pytest.raises(ValueError, match="receiver_join event at t=.* is on node 'nowhere'"):
        run_scenario(
            churn.with_overrides(
                **{"engine.kind": engine, f"dynamics.events.{index}.node": "nowhere"}
            )
        )


# ------------------------------------------------------------------ builders


def test_build_fairness_scenario_topology_and_flows():
    spec = get_scenario("fairness").spec(num_tcp=3, **TINY_KW)
    built = build_scenario(spec, seed=1)
    # Dumbbell nodes exist and the session has its receiver.
    for node in ("src0", "dst0", "router_left", "router_right", "src3", "dst3"):
        assert node in built.network.nodes
    assert built.receiver_ids == [["tfmcc0-rcv0"]]
    built.run()
    record = built.collect()
    kinds = {f["kind"] for f in record["flows"]}
    assert kinds == {"tfmcc", "tcp"}
    assert record["tfmcc_mean_bps"] > 0
    assert record["tcp_mean_bps"] > 0


def test_chain_topology_runs_traffic_end_to_end():
    spec = ScenarioSpec(
        name="chain-test",
        duration=6.0,
        topology=ChainSpec(
            hops=(EdgeSpec(bandwidth=2e6, delay=0.005), EdgeSpec(bandwidth=1e6, delay=0.01)),
        ),
        flows=(FlowSpec(kind="tfmcc", src="n0", receivers=(ReceiverSpec(node="n2"),)),),
        metrics=MetricsSpec(warmup_fraction=0.3),
    )
    record = run_scenario(spec, seed=4)
    assert record["tfmcc_mean_bps"] > 0


def test_membership_schedule_join_and_leave():
    spec = get_scenario("flash-crowd").spec(
        num_receivers=3, join_at=2.0, join_spread=0.5, duration=6.0
    )
    built = build_scenario(spec, seed=5)
    session = built.sessions[0]
    assert len(session.receivers) == 1  # only rcv0 before the crowd arrives
    built.run()
    assert len(session.receivers) == 4
    assert built.receiver_ids[0][0] == "rcv0"
    assert built.receiver_ids[0][1] == "crowd0"


def test_explicit_zero_jitter_is_honoured():
    spec = ScenarioSpec(
        name="jitter-test",
        duration=5.0,
        topology=StarSpec(
            leaves=(
                EdgeSpec(bandwidth=1e6, delay=0.01),  # jitter unset -> default
                EdgeSpec(bandwidth=1e6, delay=0.01, impairment=ImpairmentSpec(jitter=0.0)),
            ),
        ),
        flows=(FlowSpec(kind="tfmcc", src="source", receivers=(ReceiverSpec(node="leaf0"),)),),
    )
    built = build_scenario(spec, seed=1)
    assert built.network.link_between("leaf0", "hub").jitter > 0.0
    assert built.network.link_between("leaf1", "hub").jitter == 0.0


def test_join_at_is_honoured_when_sender_starts_late():
    spec = ScenarioSpec(
        name="late-start-test",
        duration=8.0,
        topology=StarSpec(leaves=(EdgeSpec(bandwidth=1e6, delay=0.01),) * 2),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                start=4.0,
                receivers=(
                    ReceiverSpec(node="leaf0"),
                    ReceiverSpec(node="leaf1", receiver_id="later", join_at=2.0),
                ),
            ),
        ),
    )
    built = build_scenario(spec, seed=1)
    session = built.sessions[0]
    assert len(session.receivers) == 1  # join_at=2.0 is scheduled, not immediate
    built.sim.run(until=3.0)
    assert "later" in session.receivers  # joined at its declared time


def test_background_traffic_scenario_delivers_background_bytes():
    spec = get_scenario("background-traffic").spec(duration=6.0, bg_fraction=0.4)
    built = build_scenario(spec, seed=6)
    built.run()
    record = built.collect()
    bg_flows = [f for f in record["flows"] if f["kind"] == "background"]
    assert bg_flows and all(f["avg_bps"] > 0 for f in bg_flows)
    for _source, sink in built.background.values():
        assert sink.bytes_received > 0


def test_with_series_metric():
    spec = get_scenario("fairness").spec(num_tcp=2, with_series=True, **TINY_KW)
    record = run_scenario(spec, seed=2)
    assert "series" in record
    assert "tfmcc0-rcv0" in record["series"]
    assert len(record["series"]["tfmcc0-rcv0"]) >= 4


# --------------------------------------------------------- Gilbert-Elliott


def test_gilbert_elliott_validation_and_stationary_rate():
    with pytest.raises(ValueError):
        GilbertElliottLoss(p_good_bad=1.5, p_bad_good=0.1)
    ge = GilbertElliottLoss(p_good_bad=0.02, p_bad_good=0.18)
    assert ge.stationary_loss_rate == pytest.approx(0.1)
    spec = gilbert_elliott_from_burst(loss_rate=0.05, burst_length=10.0)
    assert spec.build().stationary_loss_rate == pytest.approx(0.05)
    with pytest.raises(ValueError):
        gilbert_elliott_from_burst(loss_rate=0.0, burst_length=4.0)
    with pytest.raises(ValueError):
        gilbert_elliott_from_burst(loss_rate=0.1, burst_length=0.5)


@pytest.mark.parametrize(
    "loss_rate,burst_length", [(0.9, 1), (0.5, 0.999), (0.1, math.nan), (0.1, math.inf)]
)
def test_bursty_loss_refuses_a_burst_no_markov_chain_has(loss_rate, burst_length):
    # loss_rate / (1 - loss_rate) > burst_length used to give p_good_bad > 1,
    # and a NaN burst length got past `burst_length < 1.0`.
    with pytest.raises(ValueError, match="burst_length") as raised:
        get_scenario("bursty-loss").spec(loss_rate=loss_rate, burst_length=burst_length)
    assert "p_good_bad" not in str(raised.value)
    if loss_rate == 0.9:
        assert "loss_rate" in str(raised.value)
    spec = gilbert_elliott_from_burst(loss_rate=0.5, burst_length=1.0)  # the boundary holds
    assert spec.p_good_bad == 1.0 and spec.build().stationary_loss_rate == pytest.approx(0.5)


def test_gilbert_elliott_losses_are_bursty():
    """Same average loss rate, very different clustering."""
    rng = random.Random(99)
    spec = gilbert_elliott_from_burst(loss_rate=0.05, burst_length=10.0)
    ge = GilbertElliottLoss(spec.p_good_bad, spec.p_bad_good)
    n = 200_000
    drops = [ge.should_drop(rng) for _ in range(n)]
    rate = sum(drops) / n
    assert 0.03 < rate < 0.07  # matches the configured average

    # Mean length of consecutive-drop runs: ~1 for Bernoulli, ~burst here.
    runs, current = [], 0
    for d in drops:
        if d:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    mean_burst = sum(runs) / len(runs)
    assert mean_burst > 4.0


def test_link_uses_gilbert_elliott_model():
    sim = Simulator(seed=3)
    net = Network(sim)
    net.add_duplex_link(
        "a",
        "b",
        1e6,
        0.01,
        channel_factory=lambda: GilbertElliottLoss(0.05, 0.2),
    )
    forward = net.link_between("a", "b")
    backward = net.link_between("b", "a")
    assert forward.channel is not backward.channel  # independent state

    source = CBRSource(sim, "cbr", "b", rate_bps=4e5, packet_size=500)
    sink = TrafficSink(sim, "cbr")
    net.attach("a", source)
    net.attach("b", sink)
    source.start(0.0)
    sim.run(until=20.0)
    assert forward.random_drops > 0
    # All sent packets are either delivered, dropped by the loss model, or
    # still in flight / queued when the simulation stops.
    in_flight = source.packets_sent - sink.packets_received - forward.random_drops
    assert 0 <= in_flight <= forward.queue_length + 2


# ----------------------------------------------------------------- sources


def _two_node_net(sim):
    net = Network(sim)
    net.add_duplex_link("a", "b", 10e6, 0.001)
    return net


def test_cbr_source_rate_and_stop():
    sim = Simulator(seed=1)
    net = _two_node_net(sim)
    source = CBRSource(sim, "cbr", "b", rate_bps=8e5, packet_size=1000)
    sink = TrafficSink(sim, "cbr")
    net.attach("a", source)
    net.attach("b", sink)
    source.start(1.0)
    source.stop(6.0)
    sim.run(until=10.0)
    # 800 kbit/s for 5 s = 500 kB = 500 packets (plus the t=6.0 edge packet).
    assert source.packets_sent == pytest.approx(500, abs=2)
    assert sink.bytes_received == source.bytes_sent  # lossless link
    with pytest.raises(ValueError):
        CBRSource(sim, "bad", "b", rate_bps=0.0)


def test_onoff_source_duty_cycle():
    sim = Simulator(seed=2)
    net = _two_node_net(sim)
    source = OnOffSource(
        sim,
        "onoff",
        "b",
        rate_bps=8e5,
        packet_size=1000,
        on_time=1.0,
        off_time=1.0,
        exponential=False,
    )
    sink = TrafficSink(sim, "onoff")
    net.attach("a", source)
    net.attach("b", sink)
    source.start(0.0)
    sim.run(until=20.0)
    # 50 % duty cycle: about half the bytes a pure CBR source would send.
    expected = 8e5 / 8.0 * 20.0 * 0.5
    assert sink.bytes_received == pytest.approx(expected, rel=0.1)


def test_onoff_exponential_is_seed_deterministic():
    def run(seed):
        sim = Simulator(seed=seed)
        net = _two_node_net(sim)
        source = OnOffSource(sim, "onoff", "b", rate_bps=4e5, on_time=0.5, off_time=0.5)
        sink = TrafficSink(sim, "onoff")
        net.attach("a", source)
        net.attach("b", sink)
        source.start(0.0)
        sim.run(until=15.0)
        return sink.bytes_received

    assert run(7) == run(7)
    assert run(7) != run(8)
