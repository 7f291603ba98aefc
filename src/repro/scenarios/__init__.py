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

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.scenarios.build": ("BuiltScenario", "build_network", "build_scenario", "run_scenario"),
    "repro.scenarios.registry": (
        "ScenarioFactory",
        "SweepRun",
        "get_scenario",
        "register",
        "scenario_names",
        "scenarios",
    ),
    "repro.scenarios.spec": (
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
        "ReceiverRun",
        "ReceiverSpec",
        "ScenarioSpec",
        "StarSpec",
        "TopologySpec",
    ),
    "repro.scenarios.cache": (
        "ResultCache",
        "canonical_json",
        "fingerprint",
        "fingerprint_spec",
        "pure_record",
    ),
    "repro.scenarios.store": ("ResultStore", "encode_record"),
    "repro.scenarios.sweep": (
        "SweepManifest",
        "SweepRunner",
        "SweepStats",
        "compact_stores",
        "expand_grid",
        "manifest_path",
    ),
    "repro.scenarios.executor": ("Outcome", "RunExecutor"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
