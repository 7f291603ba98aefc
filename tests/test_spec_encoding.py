"""The canonical spec encoding: an oracle, pinned identities and cost guards.

``ScenarioSpec.to_dict`` used to be ``dataclasses.asdict``, which deep-copies
every receiver: on a 100k-receiver spec the cache key cost twice the
simulation.  It is now a hand-written walker, and these tests hold it to
three things:

* it produces what ``asdict`` produced (the old implementation is kept here
  as the reference), so no fingerprint moved;
* the fingerprints of the registry scenarios equal the table generated at
  the last commit that still used ``asdict`` (``tests/data/fingerprints.json``);
* its cost per receiver, counted in calls (deterministic, unlike wall
  clock), stays a small constant — in the encoder and in the cohort build.

A flow's receivers have two spellings, an explicit tuple and one
:class:`ReceiverRun`, and so do a star's leaves (an explicit tuple and one
:class:`LeafRun`).  A run behaves as the tuple it stands for and builds the
same simulation, under a canonical encoding and fingerprint of its own; the
``scaling`` and ``wireless_last_hop`` factories emit runs, so the explicit
path is exercised here on hand-expanded specs.
"""

import cProfile
import dataclasses
import glob
import json
import os
import pstats
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    encode_record,
    fingerprint_spec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.cache import canonical_json
from repro.scenarios.spec import (
    ChainSpec,
    ChannelSpec,
    CustomSpec,
    DumbbellSpec,
    DuplexLinkSpec,
    DynamicsSpec,
    EdgeSpec,
    EngineSpec,
    FlowSpec,
    GilbertElliottSpec,
    ImpairmentSpec,
    LeafRun,
    MetricsSpec,
    MobilitySpec,
    NetworkEventSpec,
    ReceiverRun,
    ReceiverSpec,
    ScenarioSpec,
    StarSpec,
    WaypointSpec,
)

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src", "repro")
PINNED_PATH = os.path.join(HERE, "data", "fingerprints.json")


def reference_to_dict(spec):
    """``ScenarioSpec.to_dict`` as it was while it used ``dataclasses.asdict``."""
    data = dataclasses.asdict(spec)
    data["topology"] = dataclasses.asdict(spec.topology)
    data["topology"]["kind"] = spec.topology.kind
    return data


def assert_encodes_like_asdict(spec):
    encoded, reference = spec.to_dict(), reference_to_dict(spec)
    assert encoded == reference  # also tells tuples from lists
    assert list(encoded) == list(reference)
    assert canonical_json(encoded) == canonical_json(reference)
    assert ScenarioSpec.from_dict(encoded) == spec


def registry_variants(name):
    spec = get_scenario(name).spec()
    return {"exact": spec, "cohort": spec.with_overrides(**{"engine.kind": "cohort"})}


def expanded(spec):
    """``spec`` with every run written out as the tuple it stands for."""
    flows = tuple(dataclasses.replace(f, receivers=tuple(f.receivers)) for f in spec.flows)
    topology = spec.topology
    if isinstance(topology, StarSpec):
        topology = dataclasses.replace(topology, leaves=tuple(topology.leaves))
    return dataclasses.replace(spec, flows=flows, topology=topology)


# ---------------------------------------------------------------- the oracle


@pytest.mark.parametrize("name", scenario_names())
def test_registry_scenarios_encode_like_asdict(name):
    for spec in registry_variants(name).values():
        assert_encodes_like_asdict(spec)


fractions = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=0.001, max_value=1e8, allow_nan=False)
nodes = st.sampled_from(["source", "hub", "leaf0", "leaf1", "n0", "n1", "dst0", "récv"])

gilbert_elliotts = st.builds(
    GilbertElliottSpec,
    p_good_bad=fractions,
    p_bad_good=fractions,
    loss_good=fractions,
    loss_bad=fractions,
)
channels = st.one_of(
    st.builds(lambda rate: ChannelSpec("bernoulli", {"loss_rate": rate}), fractions),
    st.builds(
        lambda a, b: ChannelSpec("gilbert_elliott", {"p_good_bad": a, "p_bad_good": b}),
        fractions,
        fractions,
    ),
    st.builds(
        lambda snr, modulation: ChannelSpec(
            "snr_per", {"snr_db": snr, "modulation": modulation}
        ),
        st.floats(min_value=-5.0, max_value=30.0, allow_nan=False),
        st.sampled_from(["bpsk", "qpsk"]),
    ),
    st.builds(lambda d: ChannelSpec("snr_per", {"distance": d}), positive),
)
jitters = st.one_of(st.none(), fractions)
impairments = st.one_of(
    st.builds(ImpairmentSpec, loss_rate=fractions, jitter=jitters),
    st.builds(ImpairmentSpec, jitter=jitters, gilbert_elliott=gilbert_elliotts),
    st.builds(ImpairmentSpec, jitter=jitters, channel=channels),
)
edges = st.builds(
    EdgeSpec,
    bandwidth=positive,
    delay=fractions,
    queue_limit=st.integers(1, 500),
    impairment=impairments,
)
links = st.builds(
    DuplexLinkSpec, a=nodes, b=nodes, bandwidth=positive, delay=fractions, impairment=impairments
)
extra_links = st.lists(links, max_size=3).map(tuple)
leaf_runs = st.builds(LeafRun, edge=edges, count=st.integers(1, 6))
topologies = st.one_of(
    st.builds(
        StarSpec,
        leaves=st.one_of(st.lists(edges, min_size=1, max_size=4).map(tuple), leaf_runs),
        jitter=jitters,
        extra_links=extra_links,
    ),
    st.builds(
        ChainSpec,
        hops=st.lists(edges, min_size=1, max_size=4).map(tuple),
        jitter=jitters,
        extra_links=extra_links,
    ),
    st.builds(CustomSpec, extra_links=st.lists(links, min_size=1, max_size=4).map(tuple)),
    st.builds(
        DumbbellSpec,
        num_right=st.integers(1, 8),
        access_queue_limit=st.one_of(st.none(), st.integers(1, 99)),
        access_jitter=jitters,
    ),
)


@st.composite
def receivers(draw):
    join_at = draw(st.one_of(st.just(0.0), times))
    stay = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=20.0)))
    return ReceiverSpec(
        node=draw(nodes),
        receiver_id=draw(st.one_of(st.none(), st.sampled_from(["late-rcv", "r1", "über"]))),
        join_at=join_at,
        leave_at=None if stay is None else join_at + stay,
    )


tfmcc_params = st.fixed_dictionaries(
    {},
    optional={
        "max_rtt": st.floats(min_value=0.05, max_value=1.0),
        "packet_size": st.integers(200, 1500),
        "loss_interval_weights": st.just([5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
        "bias_method": st.sampled_from(["none", "offset", "modified_offset"]),
    },
)


receiver_tuples = st.lists(receivers(), max_size=5).map(tuple)
receiver_runs = st.builds(
    ReceiverRun,
    node=st.sampled_from(["dst{}", "leaf{}", "n{}", "récv-{}-b"]),
    count=st.integers(1, 6),
    first=st.integers(0, 3),
)


def tfmcc_flows(params, receivers=st.one_of(receiver_tuples, receiver_runs)):
    return st.builds(
        FlowSpec,
        kind=st.just("tfmcc"),
        src=nodes,
        receivers=receivers,
        start=times,
        params=params,
    )


def unicast_flows(*kinds):
    return st.builds(FlowSpec, kind=st.sampled_from(kinds), src=nodes, dst=nodes)


background_flows = st.one_of(
    st.builds(
        FlowSpec,
        kind=st.just("cbr"),
        src=nodes,
        dst=nodes,
        params=st.fixed_dictionaries(
            {"rate_bps": positive}, optional={"packet_size": st.integers(64, 1500)}
        ),
    ),
    st.builds(
        FlowSpec,
        kind=st.just("onoff"),
        src=nodes,
        dst=nodes,
        params=st.fixed_dictionaries(
            {"rate_bps": positive},
            optional={"on_time": positive, "off_time": positive, "exponential": st.booleans()},
        ),
    ),
)
flows = st.one_of(tfmcc_flows(tfmcc_params), unicast_flows("tcp-reno", "tfrc"), background_flows)
#: What a spec stored before ``flows`` existed could say: no TFRC, no
#: per-flow protocol parameters, no receiver runs.
stored_family_flows = st.one_of(
    tfmcc_flows(st.just({}), receiver_tuples), unicast_flows("tcp-reno"), background_flows
)
events = st.one_of(
    st.builds(
        NetworkEventSpec, at=times, kind=st.sampled_from(["link_down", "link_up"]), a=nodes, b=nodes
    ),
    st.builds(
        NetworkEventSpec,
        at=times,
        kind=st.just("link_update"),
        a=nodes,
        b=nodes,
        bandwidth=positive,
        loss_rate=st.one_of(st.none(), fractions),
        gilbert_elliott=st.one_of(st.none(), gilbert_elliotts),
        direction=st.sampled_from(["both", "forward", "reverse"]),
    ),
    st.builds(
        NetworkEventSpec, at=times, kind=st.just("channel_update"), a=nodes, b=nodes, channel=channels
    ),
    st.builds(
        NetworkEventSpec,
        at=times,
        kind=st.just("channel_update"),
        a=nodes,
        b=nodes,
        snr_db=st.floats(min_value=0.0, max_value=30.0),
    ),
    st.builds(NetworkEventSpec, at=times, kind=st.just("receiver_join"), node=nodes),
    st.builds(
        NetworkEventSpec, at=times, kind=st.just("receiver_leave"), receiver_id=st.just("r1")
    ),
)
coordinates = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
mobilities = st.builds(
    MobilitySpec,
    positions=st.dictionaries(nodes, st.tuples(coordinates, coordinates), max_size=4),
    waypoints=st.lists(
        st.builds(WaypointSpec, node=nodes, at=times, x=coordinates, y=coordinates), max_size=4
    ).map(lambda points: tuple(sorted(points, key=lambda w: w.at))),
    update_interval=st.floats(min_value=0.1, max_value=5.0),
)
dynamics = st.builds(
    DynamicsSpec,
    events=st.lists(events, max_size=4).map(tuple),
    mobility=st.one_of(st.none(), mobilities),
)
metrics = st.builds(
    MetricsSpec,
    interval=st.floats(min_value=0.1, max_value=5.0),
    with_series=st.booleans(),
    with_trace=st.booleans(),
)
engines = st.builds(
    EngineSpec,
    kind=st.sampled_from(["exact", "cohort"]),
    tracer_receivers=st.integers(1, 4),
    step_interval=st.one_of(st.none(), st.floats(min_value=0.1, max_value=5.0)),
)


@st.composite
def scenario_specs(draw, flows=flows):
    flow_list = draw(st.lists(flows, min_size=1, max_size=4))
    # Every generated spec has a TFMCC flow, so membership events are legal.
    flow_list.insert(0, FlowSpec(kind="tfmcc", src="source", receivers=(draw(receivers()),)))
    return ScenarioSpec(
        name=draw(st.sampled_from(["generated", "généré"])),
        duration=60.0,
        topology=draw(topologies),
        flows=tuple(flow_list),
        metrics=draw(metrics),
        dynamics=draw(dynamics),
        description=draw(st.text(max_size=12)),
        engine=draw(engines),
    )


@settings(max_examples=150, deadline=None)
@given(scenario_specs())
def test_generated_specs_encode_like_asdict(spec):
    assert_encodes_like_asdict(spec)


# ------------------------------------------- specs stored before ``flows``

_BACKGROUND_DEFAULTS = {"packet_size": 1000, "on_time": 1.0, "off_time": 1.0, "exponential": True}


def pre_redesign_dict(spec):
    """``spec`` as it was stored before ``flows``: one list per traffic family."""
    data = spec.to_dict()
    data.update(tfmcc=[], tcp=[], background=[])
    for flow in data.pop("flows"):
        timing = {"start": flow["start"], "stop": flow["stop"]}
        if flow["kind"] == "tfmcc":
            entry = {"sender_node": flow["src"], "receivers": flow["receivers"]}
            data["tfmcc"].append({**entry, "name": flow["name"], **timing})
            continue
        entry = {"flow_id": flow["name"], "src": flow["src"], "dst": flow["dst"], **timing}
        if flow["kind"] == "tcp-reno":
            data["tcp"].append(entry)
        else:
            shape = {**_BACKGROUND_DEFAULTS, **flow["params"], "kind": flow["kind"]}
            data["background"].append({**entry, **shape})
    return json.loads(json.dumps(data))


def as_stored_before_flows(spec):
    """The ``flows`` form of what :func:`pre_redesign_dict` says.

    Families were built tfmcc, tcp, background, and a background entry always
    carried its packet size (an on-off one its whole shape).
    """

    def filled(flow):
        if flow.kind in ("tfmcc", "tcp-reno"):
            return flow
        params = {**_BACKGROUND_DEFAULTS, **flow.params}
        keys = ("rate_bps", "packet_size") if flow.kind == "cbr" else params
        return dataclasses.replace(flow, params={key: params[key] for key in keys})

    family = {"tfmcc": 0, "tcp-reno": 1, "cbr": 2, "onoff": 2}
    flows = sorted(map(filled, spec.flows), key=lambda flow: family[flow.kind])
    return dataclasses.replace(spec, flows=tuple(flows))


@settings(max_examples=100, deadline=None)
@given(scenario_specs(flows=stored_family_flows))
def test_pre_redesign_dicts_load_to_the_same_identity(spec):
    stored = pre_redesign_dict(spec)
    assert "flows" not in stored
    loaded, expected = ScenarioSpec.from_dict(stored), as_stored_before_flows(spec)
    assert loaded == expected
    assert loaded.to_json() == expected.to_json()
    assert fingerprint_spec(loaded, 1) == fingerprint_spec(expected, 1)
    with pytest.raises(ValueError, match="flows.*tfmcc.*tcp.*background"):
        ScenarioSpec.from_dict({**stored, "flows": spec.to_dict()["flows"]})


def test_legacy_field_specs_encode_like_asdict():
    # Traffic stored under the pre-redesign tfmcc/tcp/background keys appears
    # under "flows" only, and a registry scenario's fingerprint is what it was
    # when its factory went through those fields.
    spec = get_scenario("background-traffic").spec()
    loaded = ScenarioSpec.from_dict(pre_redesign_dict(spec))
    assert loaded == spec
    assert not {"tfmcc", "tcp", "background"} & set(loaded.to_dict())
    assert_encodes_like_asdict(loaded)


# ------------------------------------------------------- pinned identities


def test_registry_fingerprints_match_the_pinned_table():
    """No fingerprint moved since the table was generated with ``asdict``.

    A change that alters the spec format on purpose regenerates the table
    and says so; every cache, manifest and stored record keyed by the old
    fingerprints is orphaned by it.
    """
    with open(PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    seen = {}
    for name in scenario_names():
        for variant, spec in registry_variants(name).items():
            for seed in (1, 2):
                seen[f"{name}|{variant}|{seed}"] = fingerprint_spec(spec, seed)
    assert seen == pinned


def test_mutating_the_encoded_dict_leaves_the_spec_alone():
    spec = get_scenario("protocol_mix").spec()
    before = fingerprint_spec(spec, 1)
    object.__delattr__(spec, "_canonical_json")  # make the next call encode again
    data = spec.to_dict()
    flow = next(f for f in data["flows"] if f["params"])
    flow["params"]["rate_bps"] = -1.0
    flow["params"]["injected"] = {"nested": [1, 2]}
    data["flows"][0]["receivers"][0]["node"] = "elsewhere"
    data["topology"]["bottleneck_bps"] = 1.0
    data["metrics"]["with_trace"] = True
    data["dynamics"]["events"] = "gone"
    assert fingerprint_spec(spec, 1) == before
    assert spec.to_dict() == reference_to_dict(spec)

    wireless = get_scenario("wireless_last_hop").spec()
    data = wireless.to_dict()
    data["topology"]["leaves"]["edge"]["impairment"]["channel"]["params"]["snr_db"] = -40.0
    assert wireless.topology.leaves.edge.impairment.channel.params["snr_db"] == 13.0


# ------------------------------------------- two spellings of ``receivers``

#: ``scaling`` as its factory wrote it before receiver runs existed; a stored
#: or hand-written expanded spec must keep hashing to these.
EXPANDED_SCALING_PINS = {
    "scaling|cohort|1": "681870ceb395afa8",
    "scaling|cohort|2": "9431337f8dd21dfa",
    "scaling|exact|1": "923c47ff2a430902",
    "scaling|exact|2": "b05cff8284282ba8",
}


@pytest.mark.parametrize("count, first", [(1, 0), (5, 0), (4, 7)])
def test_a_run_behaves_as_the_tuple_it_stands_for(count, first):
    run = ReceiverRun("dst{}", count, first)
    explicit = tuple(ReceiverSpec(f"dst{i}") for i in range(first, first + count))
    assert tuple(run) == explicit and len(run) == count and list(reversed(run)) == list(
        reversed(explicit)
    )
    for index in range(-count, count):
        assert run[index] == explicit[index]
    for bounds in [(None, None), (1, None), (None, -1), (1, 3), (None, None, 2), (5, 1), (3, 99)]:
        assert run[slice(*bounds)] == explicit[slice(*bounds)]
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            run[index]
    with pytest.raises(TypeError):
        run["0"]
    assert explicit[-1] in run and ReceiverSpec("elsewhere") not in run
    # Its own spelling: never equal to, nor silently turned into, the tuple.
    assert run != explicit
    flow = FlowSpec(kind="tfmcc", src="src0", receivers=run)
    assert flow.receivers is run
    assert FlowSpec(kind="tfmcc", src="src0", receivers=list(explicit)).receivers == explicit


def test_the_expanded_spelling_keeps_its_fingerprints_and_the_run_has_its_own():
    with open(PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    for variant, spec in registry_variants("scaling").items():
        assert isinstance(spec.flows[0].receivers, ReceiverRun)
        assert spec.to_dict()["flows"][0]["receivers"] == {"node": "dst{}", "count": 8, "first": 0}
        written_out = expanded(spec)
        assert isinstance(written_out.to_dict()["flows"][0]["receivers"], tuple)
        # Stored JSON in either spelling loads to that spelling.
        assert ScenarioSpec.from_json(written_out.to_json()) == written_out != spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        for seed in (1, 2):
            key = f"scaling|{variant}|{seed}"
            assert fingerprint_spec(written_out, seed) == EXPANDED_SCALING_PINS[key]
            assert fingerprint_spec(spec, seed) == pinned[key] != EXPANDED_SCALING_PINS[key]


@pytest.mark.parametrize("engine", ["exact", "cohort"])
@pytest.mark.parametrize("num_receivers", [3, 50, 500])
def test_a_run_and_its_expansion_produce_the_same_record(num_receivers, engine):
    if engine == "cohort":
        pytest.importorskip("numpy")
    spec = get_scenario("scaling").spec(num_receivers=num_receivers, duration=12.0)
    spec = spec.with_overrides(**{"engine.kind": engine})
    for seed in (1, 2):
        record = encode_record(run_scenario(spec, seed=seed))
        assert record == encode_record(run_scenario(expanded(spec), seed=seed))  # events included


def test_an_indexed_override_expands_a_run_and_a_field_override_does_not():
    spec = get_scenario("scaling").spec(num_receivers=6)
    late = spec.with_overrides(**{"flows.0.receivers.3.join_at": 5.0})
    assert late.flows[0].receivers == tuple(
        ReceiverSpec(f"dst{i}", join_at=5.0 if i == 3 else 0.0) for i in range(6)
    )
    fewer = spec.with_overrides(**{"flows.0.receivers.count": 4})
    assert fewer.flows[0].receivers == ReceiverRun("dst{}", 4)
    for key, message in [
        ("flows.0.receivers.6.join_at", "index 6 out of range"),
        ("flows.0.receivers.-1.join_at", "ReceiverRun has no field '-1'"),
        ("flows.0.receivers.size", "ReceiverRun has no field 'size'"),
    ]:
        with pytest.raises(ValueError, match=message):
            spec.with_overrides(**{key: 1.0})


BAD_RUN_FIELDS = [
    ("count", 0), ("count", -3), ("count", True), ("count", 1e5), ("count", float("nan")),
    ("count", "10"), ("count", None),
    ("first", -1), ("first", False), ("first", 2.0), ("first", "0"),
    ("node", "dst"), ("node", "dst{0}"), ("node", "dst{}{}"), ("node", "{0.__class__}"),
    ("node", "dst{:>9}"), ("node", "dst{{}}"), ("node", "{}}"), ("node", 7), ("node", None),
]


@pytest.mark.parametrize("field, value", BAD_RUN_FIELDS)
def test_a_malformed_run_is_a_value_error_naming_the_field(field, value):
    good = {"node": "dst{}", "count": 4, "first": 0}
    with pytest.raises(ValueError, match=rf"receivers\.{field}"):
        ReceiverRun(**{**good, field: value})
    flow = {"kind": "tfmcc", "src": "src0", "receivers": {**good, field: value}}
    with pytest.raises(ValueError, match=rf"receivers\.{field}"):
        FlowSpec.from_dict(flow)
    spec = get_scenario("scaling").spec(num_receivers=4)
    with pytest.raises(ValueError, match=rf"receivers\.{field}"):
        spec.with_overrides(**{f"flows.0.receivers.{field}": value})


def test_a_run_mapping_with_unknown_or_missing_keys_is_rejected():
    flow = {"kind": "tfmcc", "src": "src0"}
    with pytest.raises(ValueError, match="unknown ReceiverRun fields.*step"):
        FlowSpec.from_dict({**flow, "receivers": {"node": "dst{}", "count": 2, "step": 2}})
    with pytest.raises(ValueError, match="receivers run lacks.*count"):
        FlowSpec.from_dict({**flow, "receivers": {"node": "dst{}"}})
    with pytest.raises(ValueError, match="receivers run lacks.*count.*node"):
        FlowSpec.from_dict({**flow, "receivers": {}})


def test_a_100k_receiver_cohort_run_builds_almost_no_receiver_objects(monkeypatch):
    pytest.importorskip("numpy")
    built = []
    init = ReceiverSpec.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ReceiverSpec, "__init__", counting_init)
    spec = get_scenario("scaling").spec(num_receivers=100_000, duration=60.0)
    spec = spec.with_overrides(**{"engine.kind": "cohort"})
    fingerprint_spec(spec, 1)
    record = run_scenario(spec, seed=1)
    assert record["engine"]["receivers_cohort"] == 99_998
    assert sum(c["reports"] for c in record["engine"]["cohorts"]) > 0
    assert len(built) < 100, f"{len(built)} ReceiverSpec objects for one run"


# ---------------------------------------------- two spellings of ``leaves``

#: ``wireless_last_hop`` as its factory wrote it before leaf runs existed
#: (an explicit tuple of leaves and of receivers); a stored or hand-written
#: expanded spec must keep hashing to these.
EXPANDED_WIRELESS_PINS = {
    "wireless_last_hop|cohort|1": "44612d3cd7733ba0",
    "wireless_last_hop|cohort|2": "eb63c24e735a7aa9",
    "wireless_last_hop|exact|1": "a3ac942004c6bc64",
    "wireless_last_hop|exact|2": "eb66610092e14ca7",
}


@pytest.mark.parametrize("count", [1, 2, 5])
def test_a_leaf_run_behaves_as_the_tuple_it_stands_for(count):
    edge = EdgeSpec(6e6, 0.005, impairment=ImpairmentSpec(loss_rate=0.01))
    run, explicit = LeafRun(edge, count), (edge,) * count
    assert tuple(run) == explicit and len(run) == count and list(reversed(run)) == list(explicit)
    for index in range(-count, count):
        assert run[index] is edge
    for bounds in [(None, None), (1, None), (None, -1), (1, 3), (None, None, 2), (5, 1), (3, 99)]:
        assert run[slice(*bounds)] == explicit[slice(*bounds)]
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            run[index]
    with pytest.raises(TypeError):
        run["0"]
    assert edge in run and EdgeSpec(1e6, 0.005) not in run
    assert run != explicit
    assert StarSpec(leaves=run).leaves is run
    assert StarSpec(leaves=run).node_families() == StarSpec(leaves=explicit).node_families()


def link_table(network):
    """What a built network's links are, channel kind included."""
    return [
        (
            link.name,
            link.bandwidth,
            link.delay,
            link.jitter,
            link.queue.limit,
            None if link.channel is None else type(link.channel).__name__,
        )
        for link in network.links
    ]


@settings(max_examples=60, deadline=None)
@given(leaf_runs, jitters, extra_links)
def test_a_leaf_run_and_its_expansion_build_the_same_network(run, jitter, extra):
    from repro.scenarios import build_network
    from repro.simulator.engine import Simulator

    star = StarSpec(leaves=run, jitter=jitter, extra_links=extra)
    networks = [
        build_network(Simulator(seed=1), topology)
        for topology in (star, dataclasses.replace(star, leaves=tuple(run)))
    ]
    assert link_table(networks[0]) == link_table(networks[1])
    channels = [link.channel for link in networks[0].links if link.channel is not None]
    assert len(set(map(id, channels))) == len(channels)  # a fresh model per direction


def wireless(num_receivers, engine, **params):
    spec = get_scenario("wireless_last_hop").spec(
        num_receivers=num_receivers, duration=8.0, snr_db=12.5, **params
    )
    return spec.with_overrides(**{"engine.kind": engine})


@pytest.mark.parametrize("engine", ["exact", "cohort"])
@pytest.mark.parametrize("num_receivers", [1, 3, 12])
def test_a_leaf_run_and_its_expansion_produce_the_same_record(num_receivers, engine):
    if engine == "cohort":
        pytest.importorskip("numpy")
    spec = wireless(num_receivers, engine)
    assert isinstance(spec.topology.leaves, LeafRun)
    leaves_written_out = dataclasses.replace(
        spec, topology=dataclasses.replace(spec.topology, leaves=tuple(spec.topology.leaves))
    )
    for seed in (1, 2):
        record = encode_record(run_scenario(spec, seed=seed))
        assert record == encode_record(run_scenario(expanded(spec), seed=seed))  # events included
        assert record == encode_record(run_scenario(leaves_written_out, seed=seed))


def test_the_encoding_round_trips_and_the_expanded_dict_stays_a_tuple():
    spec = get_scenario("wireless_last_hop").spec(num_receivers=3)
    edge = spec.topology.leaves.edge
    encoded = json.loads(spec.to_json())["topology"]["leaves"]
    assert set(encoded) == {"count", "edge"} and encoded["count"] == 5
    assert EdgeSpec.from_dict(encoded["edge"]) == edge
    loaded = ScenarioSpec.from_json(spec.to_json())
    assert loaded == spec and loaded.topology.leaves == LeafRun(edge, 5)
    written_out = ScenarioSpec.from_json(expanded(spec).to_json())
    assert written_out.topology.leaves == (edge,) * 5
    assert type(written_out.topology.leaves) is tuple


def test_the_expanded_leaves_keep_their_fingerprints_and_the_run_has_its_own():
    with open(PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    for variant, spec in registry_variants("wireless_last_hop").items():
        assert isinstance(spec.topology.leaves, LeafRun)
        assert spec.flows[0].receivers == ReceiverRun("leaf{}", 2)
        written_out = expanded(spec)
        assert isinstance(written_out.to_dict()["topology"]["leaves"], tuple)
        assert ScenarioSpec.from_json(written_out.to_json()) == written_out != spec
        for seed in (1, 2):
            key = f"wireless_last_hop|{variant}|{seed}"
            assert fingerprint_spec(written_out, seed) == EXPANDED_WIRELESS_PINS[key]
            assert fingerprint_spec(spec, seed) == pinned[key] != EXPANDED_WIRELESS_PINS[key]


def test_the_wireless_spec_is_one_size_whatever_its_receiver_count():
    small, large = (
        canonical_json(get_scenario("wireless_last_hop").spec(num_receivers=n).to_dict())
        for n in (10, 100_000)
    )
    # Only numbers differ: the two counts and the TFRC and TCP leaf names.
    assert re.sub(r"\d+", "#", small) == re.sub(r"\d+", "#", large)
    assert len(large) - len(small) == 4 * len("0000") and len(large) < 1200


def test_an_indexed_override_expands_a_leaf_run_and_a_field_override_does_not():
    spec = get_scenario("wireless_last_hop").spec(num_receivers=4)
    edge = spec.topology.leaves.edge
    slow = spec.with_overrides(**{"topology.leaves.3.delay": 0.05})
    assert slow.topology.leaves == tuple(
        dataclasses.replace(edge, delay=0.05) if i == 3 else edge for i in range(6)
    )
    more = spec.with_overrides(**{"topology.leaves.count": 9})
    assert more.topology.leaves == LeafRun(edge, 9)
    wider = spec.with_overrides(**{"topology.leaves.edge.bandwidth": 1e7})
    assert wider.topology.leaves == LeafRun(dataclasses.replace(edge, bandwidth=1e7), 6)
    for key, message in [
        ("topology.leaves.6.delay", "index 6 out of range"),
        ("topology.leaves.-1.delay", "LeafRun has no field '-1'"),
        ("topology.leaves.size", "LeafRun has no field 'size'"),
    ]:
        with pytest.raises(ValueError, match=message):
            spec.with_overrides(**{key: 1.0})


BAD_LEAF_RUN_FIELDS = [
    ("count", 0), ("count", -2), ("count", True), ("count", 3.0), ("count", float("nan")),
    ("count", "4"), ("count", None), ("edge", None), ("edge", 6e6), ("edge", (6e6, 0.005)),
]


@pytest.mark.parametrize("field, value", BAD_LEAF_RUN_FIELDS)
def test_a_malformed_leaf_run_is_a_value_error_naming_the_field(field, value):
    edge = EdgeSpec(6e6, 0.005)
    good = {"edge": edge, "count": 4}
    with pytest.raises(ValueError, match=rf"leaves\.{field}"):
        LeafRun(**{**good, field: value})
    spec = get_scenario("wireless_last_hop").spec()
    data = spec.to_dict()
    data["topology"]["leaves"][field] = value
    with pytest.raises(ValueError, match=rf"leaves\.{field}"):
        ScenarioSpec.from_dict(data)
    with pytest.raises(ValueError, match=rf"leaves\.{field}"):
        spec.with_overrides(**{f"topology.leaves.{field}": value})


def test_a_leaf_run_mapping_with_unknown_or_missing_keys_is_rejected():
    from repro.scenarios.spec import topology_from_dict

    edge = {"bandwidth": 6e6, "delay": 0.005}
    with pytest.raises(ValueError, match="unknown LeafRun fields.*first"):
        topology_from_dict({"kind": "star", "leaves": {"edge": edge, "count": 2, "first": 1}})
    with pytest.raises(ValueError, match="leaves run lacks.*edge"):
        topology_from_dict({"kind": "star", "leaves": {"count": 2}})
    with pytest.raises(ValueError, match="leaves run lacks.*count.*edge"):
        topology_from_dict({"kind": "star", "leaves": {}})


# ------------------------------------------------------ guards against regrowth


def profiled_calls(function):
    profile = cProfile.Profile()
    profile.enable()
    try:
        function()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def test_fingerprint_costs_a_constant_number_of_calls_per_receiver():
    receivers = 2000
    spec = expanded(get_scenario("scaling").spec(num_receivers=receivers))
    calls = profiled_calls(lambda: fingerprint_spec(spec, 1))
    # asdict: 128 calls per receiver (it deep-copies each one).
    assert calls < 2 * receivers, f"{calls / receivers:.1f} calls per receiver"


def test_cohort_build_makes_no_call_per_member():
    pytest.importorskip("numpy")
    from repro.engines import get_engine

    members = 20_000
    spec = expanded(get_scenario("scaling").spec(num_receivers=members + 2))
    spec = spec.with_overrides(**{"engine.kind": "cohort"})
    factory = get_engine("cohort")
    factory.check_available()
    built = []
    calls = profiled_calls(lambda: built.append(factory.build(spec, seed=1)))
    assert built[0].cohorts[0].n == members
    # Every call of the build, not only those inside engines/cohort.py.
    assert calls < 0.5 * members, f"{calls / members:.2f} calls per member"


def test_no_asdict_in_the_scenario_layer():
    for path in glob.glob(os.path.join(SRC, "scenarios", "*.py")):
        with open(path, encoding="utf-8") as fh:
            assert "asdict(" not in fh.read(), path


def test_cohort_engine_never_scans_a_member_list():
    with open(os.path.join(SRC, "engines", "cohort.py"), encoding="utf-8") as fh:
        assert ".index(" not in fh.read()
