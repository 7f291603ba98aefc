"""TFRC protocol factory: the unicast ancestor as a first-class flow kind.

TFMCC must behave like TFRC in the degenerate one-receiver case (the
paper's core design claim), so scenarios can now place both on the same
path (``tfmcc_vs_tfrc``) or mix them with TCP and background load
(``protocol_mix``).  TFRC shares the TFMCCConfig parameter space, so the
same dotted override paths drive both protocols' ablations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.registry import BuiltFlow, ProtocolFactory, register_protocol
from repro.protocols.tfmcc import CONFIG_PARAM_NAMES, config_from_params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.build import BuiltScenario
    from repro.scenarios.spec import FlowSpec


def _build_tfrc(built: "BuiltScenario", flow: "FlowSpec") -> BuiltFlow:
    from repro.tfrc.receiver import TFRCReceiver
    from repro.tfrc.sender import TFRCSender

    config = config_from_params(flow.params)
    sender = TFRCSender(
        built.sim, flow.name, flow.dst, config=config, monitor=built.monitor
    )
    receiver = TFRCReceiver(
        built.sim, flow.name, flow.src, config=config, monitor=built.monitor
    )
    sender.probe = built.recorder
    receiver.probe = built.recorder
    built.network.attach(flow.src, sender)
    built.network.attach(flow.dst, receiver)
    sender.start(flow.start)
    if flow.stop is not None:
        sender.stop(flow.stop)
    # The receiver records delivered bytes under the flow id, mirroring how
    # TFMCC receivers and TCP sinks report goodput.
    return BuiltFlow(
        spec=flow,
        name=flow.name,
        record_kind="tfrc",
        monitor_ids=[flow.name],
        agents=(sender, receiver),
        loss_histories=(receiver.history,),
    )


register_protocol(
    ProtocolFactory(
        kind="tfrc",
        description="Unicast TFRC flow (equation-based, RFC 3448 style)",
        record_kind="tfrc",
        endpoint="unicast",
        param_names=CONFIG_PARAM_NAMES,
        build=_build_tfrc,
        check_params=config_from_params,
    )
)
