"""Pluggable transport-protocol registry for the scenario layer.

Every transport the scenario subsystem can place on a topology — TFMCC,
its unicast ancestor TFRC, TCP Reno, and the open-loop CBR / on-off
background sources — registers a :class:`ProtocolFactory` here.  A factory
knows how to

* validate a :class:`~repro.scenarios.spec.FlowSpec` of its kind (endpoint
  shape, allowed/required ``params`` keys), and
* materialise that spec into live simulator agents inside a
  :class:`~repro.scenarios.build.BuiltScenario`.

The registry is what makes the scenario layer's traffic model *open*: a new
transport (e.g. a DCCP-style equation-based variant) becomes available to
specs, JSON files, sweeps, the CLI and the report layer by registering one
factory — no changes to :class:`ScenarioSpec` or the builder are needed.

Protocol parameters travel as plain JSON data in ``FlowSpec.params`` and
are therefore reachable by dotted ``with_overrides`` paths
(``flows.0.params.max_rtt``), which makes protocol-parameter ablations
first-class sweep axes.
"""

from repro.protocols.registry import (
    BuiltFlow,
    ProtocolFactory,
    get_protocol,
    protocol_kinds,
    protocols,
    register_protocol,
)

# Built-in protocols self-register on import.  Each imports its agents inside
# its ``build``, so validating a spec does not load the simulator.
from repro.protocols import background as _background  # noqa: F401
from repro.protocols import tcp as _tcp  # noqa: F401
from repro.protocols import tfmcc as _tfmcc  # noqa: F401
from repro.protocols import tfrc as _tfrc  # noqa: F401
from repro.protocols.tfmcc import config_from_params, config_to_params

__all__ = [
    "BuiltFlow",
    "ProtocolFactory",
    "config_from_params",
    "config_to_params",
    "get_protocol",
    "protocol_kinds",
    "protocols",
    "register_protocol",
]
