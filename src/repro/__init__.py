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

from repro._lazy import lazy_exports

__version__ = "1.2.0"

_EXPORTS = {
    "repro.core.config": ("TFMCCConfig",),
    "repro.core.feedback": ("BiasMethod",),
    "repro.core.receiver": ("TFMCCReceiver",),
    "repro.core.sender": ("TFMCCSender",),
    "repro.metrics.stats": ("jain_fairness",),
    "repro.metrics.trace": ("TraceRecorder",),
    "repro.protocols": ("ProtocolFactory", "get_protocol", "protocol_kinds", "register_protocol"),
    "repro.scenarios.build": ("build_scenario", "run_scenario"),
    "repro.scenarios.registry": ("get_scenario", "scenario_names"),
    "repro.scenarios.spec": ("FlowSpec", "ScenarioSpec"),
    "repro.scenarios.sweep": ("SweepRunner",),
    "repro.session": ("TFMCCSession",),
    "repro.simulator.engine": ("Simulator",),
    "repro.simulator.link": ("GilbertElliottLoss",),
    "repro.simulator.monitor": ("ThroughputMonitor", "fairness_index"),
    "repro.simulator.multicast": ("MulticastGroup",),
    "repro.simulator.sources": ("CBRSource", "OnOffSource", "TrafficSink"),
    "repro.simulator.topology": ("LinkSpec", "Network"),
    "repro.tcp.reno": ("TCPRenoSender",),
    "repro.tcp.sink": ("TCPSink",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__.append("__version__")
