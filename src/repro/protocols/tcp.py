"""TCP Reno protocol factory.

The record label stays ``"tcp"`` (the pre-redesign kind string) so result
records, figure reductions and fixed-seed regression fixtures are
unchanged; the spec-level kind is ``"tcp-reno"`` to leave room for other
TCP flavours to register alongside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.registry import BuiltFlow, ProtocolFactory, register_protocol
from repro.tcp.reno import TCPRenoSender
from repro.tcp.sink import TCPSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.build import BuiltScenario
    from repro.scenarios.spec import FlowSpec

PARAM_NAMES = frozenset(
    {"segment_size", "initial_cwnd", "max_cwnd", "min_rto", "max_rto"}
)


def _check_params(params) -> None:
    if "segment_size" in params and params["segment_size"] <= 0:
        raise ValueError("segment_size must be positive")
    for key in ("initial_cwnd", "max_cwnd", "min_rto", "max_rto"):
        if key in params and params[key] <= 0:
            raise ValueError(f"{key} must be positive")


def _build_tcp(built: "BuiltScenario", flow: "FlowSpec") -> BuiltFlow:
    # Construction order (sender, sink, attach src, attach dst, start, stop)
    # is part of the determinism contract.
    sender = TCPRenoSender(
        built.sim, flow.name, flow.dst, monitor=built.monitor, **flow.params
    )
    sink = TCPSink(built.sim, flow.name, flow.src, monitor=built.monitor)
    built.network.attach(flow.src, sender)
    built.network.attach(flow.dst, sink)
    sender.start(flow.start)
    if flow.stop is not None:
        sender.stop(flow.stop)
    return BuiltFlow(
        spec=flow,
        name=flow.name,
        record_kind="tcp",
        monitor_ids=[flow.name],
        agents=(sender, sink),
    )


register_protocol(
    ProtocolFactory(
        kind="tcp-reno",
        description="Greedy TCP Reno flow (slow start, fast recovery, RTO)",
        record_kind="tcp",
        endpoint="unicast",
        param_names=PARAM_NAMES,
        build=_build_tcp,
        check_params=_check_params,
    )
)
