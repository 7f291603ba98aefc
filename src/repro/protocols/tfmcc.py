"""TFMCC protocol factory: multicast sessions built from flow specs.

Also hosts the :class:`TFMCCConfig` <-> JSON-params bridge shared with the
TFRC factory: every protocol constant of the paper can travel inside
``FlowSpec.params`` (and therefore inside scenario JSON, sweep grids and
``--override`` paths); ``ScenarioSpec.with_tfmcc_config`` applies a whole
config object to a spec.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.core.config import TFMCCConfig
from repro.core.feedback import BiasMethod
from repro.protocols.registry import BuiltFlow, ProtocolFactory, register_protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.build import BuiltScenario
    from repro.scenarios.spec import FlowSpec

#: Every TFMCCConfig field is a legal flow parameter for tfmcc/tfrc flows.
CONFIG_PARAM_NAMES = frozenset(f.name for f in fields(TFMCCConfig))


def config_from_params(params: Mapping[str, Any]) -> Optional[TFMCCConfig]:
    """Build a :class:`TFMCCConfig` from JSON flow params (None if empty).

    ``bias_method`` is accepted as its string value (``"modified_offset"``
    etc.); ``None`` for empty params lets agents fall back to their own
    default config, matching the pre-redesign builder exactly.
    """
    if not params:
        return None
    kwargs: Dict[str, Any] = dict(params)
    bias = kwargs.get("bias_method")
    if isinstance(bias, str):
        try:
            kwargs["bias_method"] = BiasMethod(bias)
        except ValueError:
            raise ValueError(
                f"unknown bias_method {bias!r} "
                f"(known: {', '.join(m.value for m in BiasMethod)})"
            ) from None
    weights = kwargs.get("loss_interval_weights")
    if weights is not None:
        kwargs["loss_interval_weights"] = [float(w) for w in weights]
    return TFMCCConfig(**kwargs)


def config_to_params(config: TFMCCConfig) -> Dict[str, Any]:
    """Serialise a config to JSON flow params (only non-default fields).

    The inverse of :func:`config_from_params`:
    ``config_from_params(config_to_params(cfg))`` rebuilds an equal config,
    so protocol ablations survive JSON round-trips and sweep workers.
    """
    default = TFMCCConfig()
    params: Dict[str, Any] = {}
    for f in fields(TFMCCConfig):
        value = getattr(config, f.name)
        if value == getattr(default, f.name):
            continue
        if isinstance(value, BiasMethod):
            value = value.value
        elif f.name == "loss_interval_weights":
            value = [float(w) for w in value]
        params[f.name] = value
    return params


def _build_tfmcc(built: "BuiltScenario", flow: "FlowSpec") -> BuiltFlow:
    from repro.session import TFMCCSession

    session = TFMCCSession(
        built.sim,
        built.network,
        sender_node=flow.src,
        config=config_from_params(flow.params),
        monitor=built.monitor,
        name=flow.name,
        probe=built.recorder,
    )
    rids: List[str] = []
    # Receivers with join_at=0 are created at build time, before the sender
    # starts; any positive join_at is
    # honoured literally via the event queue, as are leaves.
    # One graft for all of them: a graft per join walks every member so far.
    with session.group.batch():
        for rs in flow.receivers:
            if rs.join_at <= 0.0:
                receiver = session.add_receiver(
                    rs.node, receiver_id=rs.receiver_id, leave_at=rs.leave_at
                )
                rids.append(receiver.receiver_id)
            else:
                rids.append(
                    session.add_receiver_at(
                        rs.join_at, rs.node, receiver_id=rs.receiver_id, leave_at=rs.leave_at
                    )
                )
    session.start(flow.start)
    if flow.stop is not None:
        session.stop(flow.stop)
    built.sessions.append(session)
    built.receiver_ids.append(rids)
    # monitor_ids aliases the receiver-id list on purpose: dynamics-scheduled
    # joins append to it and must show up in the collected record.
    return BuiltFlow(
        spec=flow, name=flow.name, record_kind="tfmcc", monitor_ids=rids, agents=(session,)
    )


register_protocol(
    ProtocolFactory(
        kind="tfmcc",
        description="TFMCC multicast session (one sender, scheduled receivers)",
        record_kind="tfmcc",
        endpoint="multicast",
        param_names=CONFIG_PARAM_NAMES,
        build=_build_tfmcc,
        check_params=config_from_params,
    )
)
