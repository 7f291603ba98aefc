"""repro -- a reproduction of TFMCC (Widmer & Handley, SIGCOMM 2001).

The package bundles:

* a packet-level discrete-event network simulator (:mod:`repro.simulator`),
* a TCP Reno implementation used as the competing baseline (:mod:`repro.tcp`),
* the unicast TFRC protocol TFMCC extends (:mod:`repro.tfrc`),
* the TFMCC protocol itself (:mod:`repro.core`) and a high-level session
  wrapper (:class:`repro.session.TFMCCSession`),
* analytical models of the feedback mechanism and throughput scaling
  (:mod:`repro.analysis`),
* a declarative scenario subsystem with a named-scenario registry — one
  scenario per simulated experiment of the paper — and a parallel sweep
  runner (:mod:`repro.scenarios`), exposed on the command line as
  ``python -m repro``; its traffic model is a unified, pluggable flow API
  backed by the protocol registry (:mod:`repro.protocols`),
* a metrics subsystem — trace probes, paper metrics, sweep aggregation —
  (:mod:`repro.metrics`) and the paper-figure reporting layer on top of it
  (:mod:`repro.report`, ``python -m repro report``), which regenerates
  every simulated figure of the paper with a check verdict.
"""

from repro.core.config import TFMCCConfig
from repro.core.feedback import BiasMethod
from repro.core.receiver import TFMCCReceiver
from repro.core.sender import TFMCCSender
from repro.metrics import TraceRecorder, jain_fairness
from repro.protocols import ProtocolFactory, get_protocol, protocol_kinds, register_protocol
from repro.scenarios.build import build_scenario, run_scenario
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import FlowSpec, ScenarioSpec
from repro.scenarios.sweep import SweepRunner
from repro.session import TFMCCSession
from repro.simulator.engine import Simulator
from repro.simulator.link import GilbertElliottLoss
from repro.simulator.monitor import ThroughputMonitor, fairness_index
from repro.simulator.multicast import MulticastGroup
from repro.simulator.sources import CBRSource, OnOffSource, TrafficSink
from repro.simulator.topology import LinkSpec, Network
from repro.tcp.reno import TCPRenoSender
from repro.tcp.sink import TCPSink

__version__ = "1.2.0"

__all__ = [
    "BiasMethod",
    "CBRSource",
    "FlowSpec",
    "GilbertElliottLoss",
    "LinkSpec",
    "MulticastGroup",
    "Network",
    "OnOffSource",
    "ProtocolFactory",
    "ScenarioSpec",
    "Simulator",
    "SweepRunner",
    "TCPRenoSender",
    "TCPSink",
    "TFMCCConfig",
    "TFMCCReceiver",
    "TFMCCSender",
    "TFMCCSession",
    "ThroughputMonitor",
    "TraceRecorder",
    "TrafficSink",
    "build_scenario",
    "fairness_index",
    "get_protocol",
    "get_scenario",
    "jain_fairness",
    "protocol_kinds",
    "register_protocol",
    "run_scenario",
    "scenario_names",
    "__version__",
]
