"""Every numeric spec field declares its domain, and every way in enforces it.

The declarations live in ``field(metadata=...)`` in ``repro.scenarios.spec``;
one walk checks them on construction, so ``replace``, ``with_overrides`` and
``from_dict`` refuse the same values with the same ``<owner>.<field>`` message.
The hostile and valid values below are written out per domain here, not read
from the predicates they test.
"""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import get_scenario
from repro.scenarios import spec as spec_module
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

NAN, INF = math.nan, math.inf

#: Domain phrase -> (values outside it, one value inside it).
DOMAINS = {
    "a positive finite number": ([NAN, INF, -INF, 0, -1e-9, True, "1"], 0.5),
    "a finite number >= 0": ([NAN, INF, -INF, -1e-9, -1, True, "1"], 0.0),
    "a finite number": ([NAN, INF, -INF, True, "1"], -3.5),
    "a probability in [0, 1]": ([NAN, INF, -INF, -1e-9, 1.5, True, "1"], 1.0),
    "in [0, 1)": ([NAN, INF, -INF, -1e-9, 1.0, True, "1"], 0.5),
    "an int >= 1": ([NAN, INF, 0, -1e-9, 2.0, True, "1"], 2),
    "an int >= 0": ([NAN, INF, -1, -1e-9, 0.0, True, "1"], 0),
}

OWNERS = {
    GilbertElliottSpec: "gilbert_elliott",
    ImpairmentSpec: "impairment",
    EdgeSpec: "edge",
    DuplexLinkSpec: "link a-b",
    LeafRun: "leaves",
    DumbbellSpec: "topology",
    StarSpec: "topology",
    ChainSpec: "topology",
    CustomSpec: "topology",
    ReceiverSpec: "receiver",
    ReceiverRun: "receivers",
    FlowSpec: "flow",
    NetworkEventSpec: "event",
    WaypointSpec: "waypoint",
    MobilitySpec: "mobility",
    DynamicsSpec: "dynamics",
    MetricsSpec: "metrics",
    EngineSpec: "engine",
    ScenarioSpec: "scenario",
    ChannelSpec: "channel",
}

# Two changes each, so that either may be unset.
LINK_UPDATE = NetworkEventSpec(
    at=1.0, kind="link_update", a="a", b="b", bandwidth=1e6, delay=0.01, loss_rate=0.1
)
SNR_UPDATE = NetworkEventSpec(
    at=1.0,
    kind="channel_update",
    a="a",
    b="b",
    channel=ChannelSpec("bernoulli", {"loss_rate": 0.1}),
    snr_db=10.0,
)
TFMCC = FlowSpec("tfmcc", "src0", receivers=(ReceiverSpec("dst0"),))

#: One valid instance per class, in which every numeric field applies.
SAMPLES = {
    GilbertElliottSpec: GilbertElliottSpec(0.1, 0.5),
    ImpairmentSpec: ImpairmentSpec(jitter=0.001),
    EdgeSpec: EdgeSpec(1e6, 0.01),
    DuplexLinkSpec: DuplexLinkSpec("a", "b", 1e6, 0.01),
    LeafRun: LeafRun(EdgeSpec(1e6, 0.01), 3),
    DumbbellSpec: DumbbellSpec(),
    StarSpec: StarSpec(),
    ChainSpec: ChainSpec(),
    ReceiverSpec: ReceiverSpec("dst0", leave_at=5.0),
    ReceiverRun: ReceiverRun("dst{}", 3),
    FlowSpec: TFMCC,
    NetworkEventSpec: LINK_UPDATE,
    WaypointSpec: WaypointSpec("n", 1.0, 0.0, 0.0),
    MobilitySpec: MobilitySpec(),
    MetricsSpec: MetricsSpec(),
    EngineSpec: EngineSpec(),
    ScenarioSpec: ScenarioSpec("x", 10.0, DumbbellSpec(), flows=(TFMCC,)),
}


def sample_for(cls, name):
    return SNR_UPDATE if (cls, name) == (NetworkEventSpec, "snr_db") else SAMPLES[cls]


def reachable_spec_classes():
    """Every spec dataclass a ScenarioSpec can hold, found through the decoders."""
    seen, todo = [], [ScenarioSpec]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
        for f in dataclasses.fields(cls):
            decode = f.metadata.get("decode")
            todo.extend(decode if isinstance(decode, tuple) else [decode] if decode else [])
    return [cls for cls in seen if cls is not spec_module.TopologySpec]


NUMERIC_TYPES = {"float", "int", "Optional[float]", "Optional[int]"}


def numeric_fields():
    return [
        (cls, f.name, f.metadata.get("domain"))
        for cls in reachable_spec_classes()
        for f in dataclasses.fields(cls)
        if f.type in NUMERIC_TYPES
    ]


def test_every_numeric_field_of_every_reachable_spec_declares_a_domain():
    classes = reachable_spec_classes()
    assert set(classes) == set(OWNERS), "a spec class escapes the decoders"
    assert (DumbbellSpec, "bottleneck_bps") in {(c, n) for c, n, _d in numeric_fields()}
    missing = [f"{cls.__name__}.{name}" for cls, name, domain in numeric_fields() if domain is None]
    assert not missing, f"numeric fields without a declared domain: {missing}"
    for cls in classes:
        for f in dataclasses.fields(cls):
            nested = [c.__name__ for c in classes if re.search(rf"\b{c.__name__}\b", str(f.type))]
            if nested:
                assert f.metadata.get("decode"), f"{cls.__name__}.{f.name} holds {nested} undecoded"


def _domain_text(domain):
    text = domain.text
    return text[: -len(" or None")] if text.endswith(" or None") else text


FIELDS = [(cls, name, domain) for cls, name, domain in numeric_fields() if cls in SAMPLES]


def test_the_domain_table_covers_every_declared_domain():
    assert {_domain_text(domain) for _cls, _name, domain in FIELDS} <= set(DOMAINS)
    assert {cls for cls, _name, _domain in numeric_fields()} <= set(SAMPLES)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_field_refuses_each_hostile_value_and_takes_a_valid_one(data):
    cls, name, domain = data.draw(st.sampled_from(FIELDS), label="field")
    hostile, valid = DOMAINS[_domain_text(domain)]
    value = data.draw(st.sampled_from(hostile), label="value")
    sample = sample_for(cls, name)
    message = re.escape(f"{OWNERS[cls]}.{name} must be {domain.text}, got {value!r}")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(sample, **{name: value})
    for good in (valid, None) if domain.text.endswith(" or None") else (valid,):
        assert getattr(dataclasses.replace(sample, **{name: good}), name) == good


@pytest.mark.parametrize("value", [None, NAN, "1", (1e6, 0.01), {"bandwidth": 1e6}], ids=repr)
def test_a_nested_spec_field_refuses_anything_but_its_class(value):
    with pytest.raises(ValueError, match=r"edge\.impairment must be an instance of ImpairmentSpec"):
        EdgeSpec(1e6, 0.01, impairment=value)
    if value is not None:  # an unset gilbert_elliott is None
        with pytest.raises(ValueError, match=r"impairment\.gilbert_elliott must be"):
            ImpairmentSpec(gilbert_elliott=value)


# ------------------------------------------- the named holes, on every way in


def _chain():
    hops = (EdgeSpec(1e6, 0.01), EdgeSpec(1e6, 0.01))
    flow = FlowSpec("tfrc", "n0", dst="n2")
    return ScenarioSpec("chain", 10.0, ChainSpec(hops=hops), flows=(flow,))


def _snr_event():
    spec = get_scenario("wireless_last_hop").spec(num_receivers=2)
    return dataclasses.replace(spec, dynamics=DynamicsSpec(events=(SNR_UPDATE,)))


def _navigate(node, path):
    for part in path:
        node = node[int(part)] if isinstance(node, (tuple, list)) else (
            node[part] if isinstance(node, dict) else getattr(node, part)
        )
    return node


HOLES = [
    (lambda: get_scenario("fairness").spec(), "topology.bottleneck_bps", NAN),
    (lambda: get_scenario("fairness").spec(), "topology.queue_limit", 0),
    (lambda: get_scenario("fairness").spec(), "topology.access_jitter", INF),
    (lambda: get_scenario("fairness").spec(), "topology.num_right", 0),
    (lambda: get_scenario("bursty-loss").spec(), "topology.hub_bps", 0),
    (lambda: get_scenario("bursty-loss").spec(), "topology.jitter", -1),
    (_chain, "topology.jitter", NAN),
    (lambda: get_scenario("bursty-loss").spec(), "topology.leaves.0.impairment.jitter", INF),
    (lambda: get_scenario("bandwidth_step").spec(), "dynamics.events.0.bandwidth", NAN),
    (lambda: get_scenario("bandwidth_step").spec(), "dynamics.events.0.bandwidth", INF),
    (lambda: get_scenario("bandwidth_step").spec(), "dynamics.events.0.delay", NAN),
    (_snr_event, "dynamics.events.0.snr_db", NAN),
    (lambda: get_scenario("mobile_receiver").spec(), "dynamics.mobility.waypoints.0.at", NAN),
    (lambda: get_scenario("mobile_receiver").spec(), "dynamics.mobility.waypoints.0.x", INF),
    (lambda: get_scenario("mobile_receiver").spec(), "dynamics.mobility.update_interval", NAN),
    (lambda: get_scenario("mobile_receiver").spec(), "dynamics.mobility.update_interval", INF),
    (lambda: get_scenario("late-join").spec(), "flows.0.receivers.0.join_at", NAN),
    (lambda: get_scenario("late-join").spec(), "flows.0.receivers.0.join_at", -1),
]


@pytest.mark.parametrize("make, key, value", HOLES, ids=[f"{k}={v!r}" for _m, k, v in HOLES])
def test_a_value_that_used_to_pass_is_refused_by_name_on_every_way_in(make, key, value):
    spec = make()
    *path, name = key.split(".")
    owner = _navigate(spec, path)
    message = rf"{re.escape(OWNERS[type(owner)])}\.{name} must be"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(owner, **{name: value})
    with pytest.raises(ValueError, match=message):
        spec.with_overrides(**{key: value})
    data = spec.to_dict()
    _navigate(data, path)[name] = value
    with pytest.raises(ValueError, match=message):
        ScenarioSpec.from_dict(data)

