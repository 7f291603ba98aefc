"""Tests for the unified flow/protocol API of the scenario layer.

Covers the protocol registry, :class:`FlowSpec` validation, loading specs
stored before ``flows`` existed (``tfmcc``/``tcp``/``background`` keys), the
TFMCCConfig <-> flow-params round-trip, per-flow protocol parameters as sweep axes, the
mixed-protocol registry scenarios and the TFRC trace probes.
"""

import json

import pytest

from repro.core.config import TFMCCConfig
from repro.core.feedback import BiasMethod
from repro.protocols import (
    config_from_params,
    config_to_params,
    get_protocol,
    protocol_kinds,
)
from repro.scenarios import (
    DumbbellSpec,
    FlowSpec,
    ReceiverSpec,
    ResultStore,
    ScenarioSpec,
    SweepRunner,
    build_scenario,
    get_scenario,
    run_scenario,
    scenarios,
)


def _dumbbell(n=2):
    return DumbbellSpec(num_left=n, num_right=n, bottleneck_bps=2e6)


# ----------------------------------------------------------------- registry


def test_builtin_protocol_kinds_registered():
    kinds = protocol_kinds()
    for expected in ("tfmcc", "tfrc", "tcp-reno", "cbr", "onoff"):
        assert expected in kinds


def test_get_protocol_unknown_kind_lists_registered():
    with pytest.raises(ValueError, match="tfmcc"):
        get_protocol("quic")


def test_record_kind_labels_are_stable():
    assert get_protocol("tcp-reno").record_kind == "tcp"
    assert get_protocol("cbr").record_kind == "background"
    assert get_protocol("onoff").record_kind == "background"
    assert get_protocol("tfrc").record_kind == "tfrc"


# ----------------------------------------------------------- FlowSpec rules


def test_flowspec_validation_errors():
    with pytest.raises(ValueError, match="unknown flow kind"):
        FlowSpec(kind="bogus", src="a", dst="b")
    with pytest.raises(ValueError, match="requires a dst"):
        FlowSpec(kind="tfrc", src="a")
    with pytest.raises(ValueError, match="unicast"):
        FlowSpec(kind="tcp-reno", src="a", dst="b", receivers=(ReceiverSpec(node="c"),))
    with pytest.raises(ValueError, match="multicast"):
        FlowSpec(kind="tfmcc", src="a", dst="b")
    with pytest.raises(ValueError, match="unknown tfmcc params"):
        FlowSpec(kind="tfmcc", src="a", params={"mtu": 9000})
    with pytest.raises(ValueError, match="requires params"):
        FlowSpec(kind="cbr", src="a", dst="b")  # rate_bps missing
    with pytest.raises(ValueError, match="stop"):
        FlowSpec(kind="tfrc", src="a", dst="b", start=5.0, stop=5.0)


def test_flowspec_param_values_checked_eagerly():
    with pytest.raises(ValueError, match="rate_bps"):
        FlowSpec(kind="cbr", src="a", dst="b", params={"rate_bps": -1.0})
    with pytest.raises(ValueError, match="max_rtt|RTT"):
        FlowSpec(kind="tfmcc", src="a", params={"max_rtt": -0.5})
    with pytest.raises(ValueError, match="bias_method"):
        FlowSpec(kind="tfrc", src="a", dst="b", params={"bias_method": "sideways"})


def test_flow_names_default_per_kind_and_must_be_unique():
    spec = ScenarioSpec(
        name="names",
        duration=5.0,
        topology=_dumbbell(3),
        flows=(
            FlowSpec(kind="tcp-reno", src="src0", dst="dst0"),
            FlowSpec(kind="tfrc", src="src1", dst="dst1"),
            FlowSpec(kind="tcp-reno", src="src2", dst="dst2"),
        ),
    )
    assert [f.name for f in spec.flows] == ["tcp-reno0", "tfrc0", "tcp-reno1"]
    with pytest.raises(ValueError, match="duplicate flow name"):
        ScenarioSpec(
            name="dupe",
            duration=5.0,
            topology=_dumbbell(2),
            flows=(
                FlowSpec(kind="tcp-reno", src="src0", dst="dst0", name="x"),
                FlowSpec(kind="tfrc", src="src1", dst="dst1", name="x"),
            ),
        )


# ------------------------------------------- specs stored before ``flows``


#: A spec as it was stored before ``flows`` existed: traffic under one key
#: per family, unicast flows identified by ``flow_id``, the source shape of
#: a background flow spelt as fields.
PRE_REDESIGN_DICT = {
    "name": "equiv",
    "duration": 5.0,
    "topology": {"kind": "dumbbell", "num_left": 4, "num_right": 4, "bottleneck_bps": 2e6},
    "tfmcc": [
        {
            "sender_node": "src0",
            "receivers": [
                {"node": "dst0", "receiver_id": None, "join_at": 0.0, "leave_at": None},
                {"node": "dst1", "receiver_id": "late", "join_at": 1.0, "leave_at": 4.0},
            ],
            "start": 0.0,
            "stop": None,
            "name": None,
        }
    ],
    "tcp": [{"flow_id": "tcp1", "src": "src1", "dst": "dst1", "start": 0.5, "stop": None}],
    "background": [
        {"flow_id": "bg", "src": "src2", "dst": "dst2", "rate_bps": 2e5},
        {
            "flow_id": "burst",
            "src": "src3",
            "dst": "dst3",
            "rate_bps": 4e5,
            "packet_size": 500,
            "kind": "onoff",
            "on_time": 0.5,
            "off_time": 1.0,
            "exponential": True,
            "start": 0.0,
            "stop": None,
        },
    ],
}


def _same_spec_spelt_with_flows():
    return ScenarioSpec(
        name="equiv",
        duration=5.0,
        topology=_dumbbell(4),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="src0",
                receivers=(
                    ReceiverSpec(node="dst0"),
                    ReceiverSpec(node="dst1", receiver_id="late", join_at=1.0, leave_at=4.0),
                ),
            ),
            FlowSpec(kind="tcp-reno", src="src1", dst="dst1", name="tcp1", start=0.5),
            FlowSpec(
                kind="cbr",
                src="src2",
                dst="dst2",
                name="bg",
                params={"rate_bps": 2e5, "packet_size": 1000},
            ),
            FlowSpec(
                kind="onoff",
                src="src3",
                dst="dst3",
                name="burst",
                params={
                    "rate_bps": 4e5,
                    "packet_size": 500,
                    "on_time": 0.5,
                    "off_time": 1.0,
                    "exponential": True,
                },
            ),
        ),
    )


def test_every_registry_scenario_normalises_to_flows_and_back():
    for factory in scenarios():
        spec = factory.spec()
        data = spec.to_dict()
        assert "flows" in data and data["flows"], factory.name
        for family in ("tfmcc", "tcp", "background"):
            assert family not in data, factory.name
        assert ScenarioSpec.from_dict(data) == spec, factory.name


def test_pre_redesign_json_shape_still_parses_to_equal_spec():
    spec = _same_spec_spelt_with_flows()
    loaded = ScenarioSpec.from_json(json.dumps(PRE_REDESIGN_DICT))
    assert loaded == spec
    assert loaded.to_json() == spec.to_json()
    required = (("tfmcc", "sender_node"), ("tcp", "flow_id"), ("background", "rate_bps"))
    for family, entry_without in required:
        broken = json.loads(json.dumps(PRE_REDESIGN_DICT))
        del broken[family][0][entry_without]
        with pytest.raises(ValueError, match=entry_without):
            ScenarioSpec.from_dict(broken)
    bogus = json.loads(json.dumps(PRE_REDESIGN_DICT))
    bogus["background"][0]["kind"] = "bogus"
    with pytest.raises(ValueError, match="unknown background flow kind"):
        ScenarioSpec.from_dict(bogus)


def test_legacy_views_are_derived_from_flows():
    # The per-family views are gone: ``flows`` is the one traffic field.
    spec = get_scenario("protocol_mix").spec(duration=5.0)
    assert [f.kind for f in spec.flows] == ["tfmcc", "tfrc", "tcp-reno", "cbr", "onoff"]
    for family in ("tfmcc", "tcp", "background"):
        with pytest.raises(AttributeError):
            getattr(spec, family)


def test_legacy_and_flows_records_are_identical():
    stored = ScenarioSpec.from_dict(PRE_REDESIGN_DICT)
    spelt_with_flows = _same_spec_spelt_with_flows()
    assert run_scenario(stored, seed=7) == run_scenario(spelt_with_flows, seed=7)


def test_conflicting_flows_and_legacy_fields_rejected():
    flows = (FlowSpec(kind="tfrc", src="src0", dst="dst0"),)
    with pytest.raises(TypeError, match="tcp"):
        ScenarioSpec(name="conflict", duration=5.0, topology=_dumbbell(2), flows=flows, tcp=())
    both = dict(PRE_REDESIGN_DICT, flows=[{"kind": "tfrc", "src": "src0", "dst": "dst0"}])
    with pytest.raises(ValueError, match="flows.*tfmcc.*tcp.*background"):
        ScenarioSpec.from_dict(both)


def test_legacy_override_paths_still_work_on_legacy_shaped_specs():
    # Override paths go through ``flows``; the per-family paths are gone.
    spec = get_scenario("fairness").spec(num_tcp=2)
    moved = spec.with_overrides(**{"flows.1.dst": "dst2"})
    assert moved.flows[1].name == "tcp1" and moved.flows[1].dst == "dst2"
    with pytest.raises(ValueError, match="no field 'tcp'"):
        spec.with_overrides(**{"tcp.0.dst": "dst2"})
    with pytest.raises(TypeError, match="tcp"):
        spec.with_overrides(tcp=())


# --------------------------------------------------- config <-> flow params


def _custom_config():
    return TFMCCConfig(
        max_rtt=0.3,
        feedback_rtts=3.0,
        num_loss_intervals=16,
        loss_interval_weights=None,  # regenerated for the custom length
        bias_method=BiasMethod.OFFSET,
        initial_rate_packets=2.0,
    )


def test_config_params_round_trip():
    config = _custom_config()
    params = config_to_params(config)
    assert params["bias_method"] == "offset"
    assert json.loads(json.dumps(params)) == params  # JSON-clean
    assert config_from_params(params) == config
    assert config_from_params({}) is None
    assert config_to_params(TFMCCConfig()) == {}


def test_build_scenario_config_round_trips_through_spec():
    spec = get_scenario("scaling").spec(num_receivers=2, duration=5.0)
    config = _custom_config()
    via_spec = spec.with_tfmcc_config(config)
    assert via_spec.flows[0].params["max_rtt"] == 0.3
    built = build_scenario(via_spec, seed=5)
    built.run()
    assert built.collect() == run_scenario(via_spec, seed=5)
    # And the effective config actually reached the session.
    assert built.sessions[0].config == config
    # The spec is the only way in: the old config= side-channel is gone.
    with pytest.raises(TypeError):
        build_scenario(spec, seed=5, config=config)


def test_config_bearing_spec_survives_json_and_parallel_sweep(tmp_path):
    spec = get_scenario("scaling").spec(num_receivers=2, duration=5.0)
    spec = spec.with_tfmcc_config(_custom_config())
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    SweepRunner(spec, replications=3, base_seed=11, jobs=1).execute(
        store=ResultStore(str(serial))
    )
    SweepRunner(spec, replications=3, base_seed=11, jobs=2).execute(
        store=ResultStore(str(parallel))
    )
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.read_bytes().count(b"\n") == 3


# ------------------------------------------------- protocol params as axes


def test_protocol_param_override_changes_behaviour():
    spec = get_scenario("scaling").spec(num_receivers=2, duration=6.0)
    base = run_scenario(spec, seed=2)
    ablated = run_scenario(
        spec.with_overrides(**{"flows.0.params.max_rtt": 0.25}), seed=2
    )
    assert base != ablated
    assert base["tfmcc_mean_bps"] != ablated["tfmcc_mean_bps"]


def test_override_rejects_unknown_protocol_param():
    spec = get_scenario("scaling").spec(num_receivers=2, duration=6.0)
    with pytest.raises(ValueError, match="unknown tfmcc params"):
        spec.with_overrides(**{"flows.0.params.mtu": 1500})
    with pytest.raises(ValueError, match="no key"):
        spec.with_overrides(**{"flows.0.params.nothere.deeper": 1})


def test_dotted_grid_axis_sweeps_protocol_parameter(tmp_path):
    out = tmp_path / "ablate.jsonl"
    runner = SweepRunner(
        "scaling",
        grid={"flows.0.params.max_rtt": [0.25, 0.5]},
        params={"duration": 6.0, "num_receivers": 2},
        replications=1,
        base_seed=1,
    )
    records = runner.execute(store=ResultStore(str(out)))
    assert len(records) == 2
    values = [r["run"]["params"]["flows.0.params.max_rtt"] for r in records]
    assert values == [0.25, 0.5]
    assert records[0]["tfmcc_mean_bps"] != records[1]["tfmcc_mean_bps"]
    # Plain factory params are still validated; dotted ones bypass the factory.
    with pytest.raises(ValueError, match="unknown parameters"):
        SweepRunner("scaling", grid={"nope": [1]})
    with pytest.raises(ValueError, match="registry scenarios"):
        SweepRunner(get_scenario("scaling").spec(duration=5.0), params={"duration": 4.0})


# --------------------------------------------------- mixed-protocol scenarios


def test_tfmcc_vs_tfrc_smoke():
    record = run_scenario(
        get_scenario("tfmcc_vs_tfrc").spec(duration=8.0), seed=1
    )
    kinds = {f["kind"] for f in record["flows"]}
    assert kinds == {"tfmcc", "tfrc"}
    assert record["tfrc_mean_bps"] > 0
    assert record["tfmcc_tfrc_ratio"] is not None


def test_protocol_mix_covers_every_registered_kind():
    spec = get_scenario("protocol_mix").spec(duration=8.0)
    assert {f.kind for f in spec.flows} >= set(protocol_kinds())
    record = run_scenario(spec, seed=1)
    kinds = {f["kind"] for f in record["flows"]}
    assert kinds == {"tfmcc", "tfrc", "tcp", "background"}
    assert all(f["avg_bps"] > 0 for f in record["flows"]), record["flows"]


def test_mixed_protocol_sweep_is_bit_identical_serial_vs_parallel(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    kwargs = dict(params={"duration": 6.0}, replications=3, base_seed=9)
    SweepRunner("protocol_mix", jobs=1, **kwargs).execute(store=ResultStore(str(serial)))
    SweepRunner("protocol_mix", jobs=2, **kwargs).execute(store=ResultStore(str(parallel)))
    assert serial.read_bytes() == parallel.read_bytes()
    records = [json.loads(line) for line in serial.read_text().splitlines()]
    assert len(records) == 3
    assert all(r["tfrc_mean_bps"] > 0 for r in records)


# ------------------------------------------------------------- TFRC probes


def test_tfrc_flows_show_up_in_trace_summary():
    spec = get_scenario("protocol_mix").spec(duration=10.0)
    spec = spec.with_overrides(**{"metrics.with_trace": True})
    record = run_scenario(spec, seed=4)
    trace = record["trace"]
    assert trace["tfrc"]["reports"] > 0
    assert trace["tfrc"]["rate"]["mean"] > 0
    # TFMCC-only runs keep their summary shape unchanged.
    tfmcc_only = get_scenario("scaling").spec(num_receivers=2, duration=6.0)
    tfmcc_only = tfmcc_only.with_overrides(**{"metrics.with_trace": True})
    assert "tfrc" not in run_scenario(tfmcc_only, seed=4)["trace"]


def test_tfrc_receiver_emits_loss_events():
    from repro.metrics.trace import TraceRecorder

    spec = ScenarioSpec(
        name="tfrc-loss",
        duration=12.0,
        topology=_dumbbell(1),
        flows=(FlowSpec(kind="tfrc", src="src0", dst="dst0"),),
    )
    # A 2 Mbit/s bottleneck forces queue loss once slowstart overshoots.
    recorder = TraceRecorder()
    built = build_scenario(spec, seed=3, recorder=recorder)
    built.run()
    tfrc_losses = [e for e in recorder.events("loss_event") if e[1] == "tfrc0"]
    assert tfrc_losses, "TFRC receiver never reported a loss event"
    assert recorder.count("tfrc_report") > 0
    assert any(e[1] == "tfrc0" for e in recorder.events("feedback"))
