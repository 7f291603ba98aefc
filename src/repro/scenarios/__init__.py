"""Declarative scenario subsystem.

* :mod:`repro.scenarios.spec` — JSON-serialisable scenario descriptions,
* :mod:`repro.scenarios.build` — spec -> live simulation builders,
* :mod:`repro.scenarios.registry` — named scenarios for the CLI and sweeps,
* :mod:`repro.scenarios.sweep` — parameter grids: ordered, resumable, sharded,
* :mod:`repro.scenarios.executor` — the one cache/pool/retry run executor,
* :mod:`repro.scenarios.store` — append-only JSONL results.

Quick use::

    from repro.scenarios import get_scenario, run_scenario
    record = run_scenario(get_scenario("fairness").spec(num_tcp=8), seed=3)
"""

from repro.scenarios.build import BuiltScenario, build_network, build_scenario, run_scenario
from repro.scenarios.registry import (
    ScenarioFactory,
    get_scenario,
    register,
    scenario_names,
    scenarios,
)
from repro.scenarios.spec import (
    ChainSpec,
    CustomSpec,
    DumbbellSpec,
    DuplexLinkSpec,
    DynamicsSpec,
    EdgeSpec,
    FlowSpec,
    GilbertElliottSpec,
    ImpairmentSpec,
    EngineSpec,
    MetricsSpec,
    NetworkEventSpec,
    ReceiverRun,
    ReceiverSpec,
    ScenarioSpec,
    StarSpec,
    TopologySpec,
)
from repro.scenarios.cache import (
    ResultCache,
    canonical_json,
    fingerprint,
    fingerprint_spec,
    pure_record,
)
from repro.scenarios.store import ResultStore, encode_record
from repro.scenarios.sweep import (
    SweepManifest,
    SweepRun,
    SweepRunner,
    SweepStats,
    compact_stores,
    expand_grid,
    manifest_path,
)
from repro.scenarios.executor import Outcome, RunExecutor

__all__ = [
    "BuiltScenario",
    "ChainSpec",
    "CustomSpec",
    "DumbbellSpec",
    "DuplexLinkSpec",
    "DynamicsSpec",
    "EdgeSpec",
    "FlowSpec",
    "GilbertElliottSpec",
    "ImpairmentSpec",
    "EngineSpec",
    "MetricsSpec",
    "NetworkEventSpec",
    "Outcome",
    "ReceiverRun",
    "ReceiverSpec",
    "ResultCache",
    "ResultStore",
    "RunExecutor",
    "ScenarioFactory",
    "ScenarioSpec",
    "StarSpec",
    "SweepManifest",
    "SweepRun",
    "SweepRunner",
    "SweepStats",
    "TopologySpec",
    "build_network",
    "build_scenario",
    "canonical_json",
    "compact_stores",
    "encode_record",
    "expand_grid",
    "fingerprint",
    "fingerprint_spec",
    "get_scenario",
    "manifest_path",
    "pure_record",
    "register",
    "run_scenario",
    "scenario_names",
    "scenarios",
]
