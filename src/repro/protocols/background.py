"""Open-loop background traffic factories: CBR and on-off sources.

Both register as unicast flow kinds whose ``params`` carry the source
shape; records label both ``"background"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.registry import BuiltFlow, ProtocolFactory, register_protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.build import BuiltScenario
    from repro.scenarios.spec import FlowSpec

CBR_PARAM_NAMES = frozenset({"rate_bps", "packet_size"})
ONOFF_PARAM_NAMES = CBR_PARAM_NAMES | {"on_time", "off_time", "exponential"}


def _check_params(params) -> None:
    if "rate_bps" in params and params["rate_bps"] <= 0:
        raise ValueError("rate_bps must be positive")
    if "packet_size" in params and params["packet_size"] <= 0:
        raise ValueError("packet_size must be positive")


def _finish(built: "BuiltScenario", flow: "FlowSpec", source) -> BuiltFlow:
    from repro.simulator.sources import TrafficSink

    sink = TrafficSink(built.sim, flow.name, monitor=built.monitor)
    built.network.attach(flow.src, source)
    built.network.attach(flow.dst, sink)
    source.start(flow.start)
    if flow.stop is not None:
        source.stop(flow.stop)
    built.background[flow.name] = (source, sink)
    return BuiltFlow(
        spec=flow,
        name=flow.name,
        record_kind="background",
        monitor_ids=[flow.name],
        agents=(source, sink),
    )


def _build_cbr(built: "BuiltScenario", flow: "FlowSpec") -> BuiltFlow:
    from repro.simulator.sources import CBRSource

    p = flow.params
    source = CBRSource(
        built.sim,
        flow.name,
        flow.dst,
        p["rate_bps"],
        packet_size=p.get("packet_size", 1000),
    )
    return _finish(built, flow, source)


def _build_onoff(built: "BuiltScenario", flow: "FlowSpec") -> BuiltFlow:
    from repro.simulator.sources import OnOffSource

    p = flow.params
    source = OnOffSource(
        built.sim,
        flow.name,
        flow.dst,
        p["rate_bps"],
        packet_size=p.get("packet_size", 1000),
        on_time=p.get("on_time", 1.0),
        off_time=p.get("off_time", 1.0),
        exponential=p.get("exponential", True),
    )
    return _finish(built, flow, source)


register_protocol(
    ProtocolFactory(
        kind="cbr",
        description="Constant-bit-rate background source",
        record_kind="background",
        endpoint="unicast",
        param_names=CBR_PARAM_NAMES,
        required_params=frozenset({"rate_bps"}),
        build=_build_cbr,
        check_params=_check_params,
    )
)
register_protocol(
    ProtocolFactory(
        kind="onoff",
        description="On-off (burst/idle) background source",
        record_kind="background",
        endpoint="unicast",
        param_names=ONOFF_PARAM_NAMES,
        required_params=frozenset({"rate_bps"}),
        build=_build_onoff,
        check_params=_check_params,
    )
)
