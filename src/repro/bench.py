"""Performance benchmark harness: pinned-seed micro and macro workloads.

Every workload is deterministic (fixed seed, fixed parameters) so that two
runs on the same machine measure the same simulation — the only thing that
varies is how fast the engine chews through it.  Results are written as
``BENCH_<name>.json`` files containing wall time, link packets, events/sec
and peak RSS, and can be compared against committed baselines to catch
performance regressions in CI (``python -m repro bench --quick --check``).

Workloads
---------

``engine_churn``
    Micro-benchmark of the event loop itself: a storm of recurring timers
    that constantly cancel and re-arm each other, exercising the heap fast
    path, lazy deletion and periodic compaction.  No packets, no topology.
``dumbbell_fairness``
    Macro: the Figure-9 fairness scenario (1 TFMCC + 4 TCP over a shared
    dumbbell bottleneck) — the bread-and-butter workload of the paper
    reproduction.
``scaling_200``
    Macro: the receiver-count scaling step with 200 TFMCC receivers behind
    one bottleneck (the Figure 7/17 regime).  Dominated by multicast fan-out
    and per-receiver protocol work; also measures topology build time.
``wireless_200``
    Macro: the wireless last-hop scenario scaled to 200 receivers, every
    leaf behind an ``snr_per`` channel — prices the per-packet channel
    seam (``ChannelModel.should_drop``) and the per-cause drop accounting
    against the plain ``scaling_200`` fan-out.
``sweep_resume``
    Orchestration: a cold sweep through the ``SweepRunner`` (streaming
    store + manifest + result-cache inserts) followed by a warm re-run of
    the identical grid against the now-populated cache, which must perform
    zero simulations.  The ``warm_speedup`` extra is the cold/warm wall
    ratio — the headline number of the fingerprint cache.

The gated number is ``wall_s``, the *total* workload wall time (topology
build + run), which is what a sweep actually pays per replication.  A pinned
seed fixes the simulated traffic (``link_packets``: packets serialised onto
links, the work the network did), so wall time per workload is comparable
across engine revisions.  ``events`` is not: it counts heap events, which an
engine change may legitimately halve, so ``events_per_sec`` and
``run_events_per_sec`` (the event loop alone) are informational only.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None  # type: ignore[assignment]

from repro.simulator.engine import Simulator

#: Regression threshold for ``--check``: fail when speed (1 / ``wall_s``)
#: drops by more than this fraction below the committed baseline.
DEFAULT_THRESHOLD = 0.25

#: Default locations (relative to the repository root / CWD).
DEFAULT_OUT_DIR = os.path.join("results", "bench")
DEFAULT_BASELINE_ROOT = os.path.join("benchmarks", "perf", "baseline")


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to KB.
    Returns 0 on platforms without the ``resource`` module.
    """
    if resource is None:  # pragma: no cover - Windows
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        peak //= 1024
    return int(peak)


# --------------------------------------------------------------- workloads


def _bench_engine_churn(quick: bool) -> Dict[str, Any]:
    """Timer churn on a bare simulator: schedule, cancel, re-arm."""
    until = 2.0 if quick else 10.0
    sim = Simulator(seed=123)
    n = 256
    handles: List[Any] = [None] * n

    def tick(i: int) -> None:
        j = (i + 1) % n
        h = handles[j]
        if h is not None and h.pending:
            h.cancel()
        handles[j] = sim.schedule(0.02, tick, j)
        handles[i] = sim.schedule(0.01, tick, i)

    for i in range(0, n, 2):
        handles[i] = sim.schedule(0.01 + i * 1e-5, tick, i)

    start = time.perf_counter()
    sim.run(until=until)
    run_s = time.perf_counter() - start
    return {
        "events": sim.events_processed,
        "link_packets": 0,
        "build_s": 0.0,
        "run_s": run_s,
        "seed": 123,
        "params": {"timers": n, "until": until},
        "counters": {
            "compactions": sim.compactions,
            "reschedule_fast_hits": sim.reschedule_fast_hits,
        },
    }


def _scenario_workload(
    scenario: str,
    seed: int,
    duration: float,
    engine: Optional[str] = None,
    **params: Any,
) -> Dict[str, Any]:
    """Build and run one registry scenario, timing build and run separately.

    ``engine`` selects a non-default simulation engine (the build goes
    through the engine registry either way when set, so engine dispatch
    overhead is part of what the workload measures).
    """
    # Imported lazily so `repro bench --list` stays instant.
    from repro.engines import get_engine
    from repro.scenarios.registry import get_scenario

    spec = get_scenario(scenario).spec(duration=duration, **params)
    if engine is not None:
        spec = spec.with_overrides(**{"engine.kind": engine})
    factory = get_engine(spec.engine.kind)
    # The availability probe performs the engine's lazy imports (numpy, for
    # cohort): a once-per-process cost that is not part of building a scenario.
    factory.check_available()
    start = time.perf_counter()
    built = factory.build(spec, seed=seed)
    built_at = time.perf_counter()
    built.run()
    finished = time.perf_counter()
    record_params = {"scenario": scenario, "duration": duration, **params}
    if engine is not None:
        record_params["engine"] = engine
    links = built.network.links
    return {
        "events": built.sim.events_processed,
        "link_packets": sum(link.packets_sent for link in links),
        "build_s": built_at - start,
        "run_s": finished - built_at,
        "seed": seed,
        "params": record_params,
        # Deterministic always-on counters: a regression (or speedup) comes
        # with a built-in explanation when these shift against the baseline.
        "counters": {
            "compactions": built.sim.compactions,
            "reschedule_fast_hits": built.sim.reschedule_fast_hits,
            "queue_drops": sum(link.queue_drops for link in links),
            "random_drops": sum(link.random_drops for link in links),
            "queue_peak": max((link.queue_peak for link in links), default=0),
        },
    }


def _bench_dumbbell_fairness(quick: bool) -> Dict[str, Any]:
    return _scenario_workload("fairness", seed=1, duration=8.0 if quick else 30.0)


def _bench_scaling_200(quick: bool) -> Dict[str, Any]:
    return _scenario_workload(
        "scaling", seed=1, duration=4.0 if quick else 30.0, num_receivers=200
    )


def _bench_scaling_10k_cohort(quick: bool) -> Dict[str, Any]:
    # 10k receivers is ~50x beyond what the exact engine can bench; the
    # cohort engine must keep this in the same ballpark as scaling_200.
    return _scenario_workload(
        "scaling",
        seed=1,
        duration=15.0 if quick else 45.0,
        num_receivers=10_000,
        engine="cohort",
    )


def _bench_wireless_200(quick: bool) -> Dict[str, Any]:
    # Same receiver count as scaling_200, but every leaf runs the snr_per
    # channel model: the delta between the two workloads is the cost of
    # the channel seam on the per-packet hot path.
    return _scenario_workload(
        "wireless_last_hop",
        seed=1,
        duration=4.0 if quick else 30.0,
        num_receivers=200,
    )


def _bench_sweep_resume(quick: bool) -> Dict[str, Any]:
    """Cold sweep vs warm cached re-run of the identical grid.

    Exercises the whole orchestration path: streaming per-record store
    appends, manifest checkpointing, fingerprint computation and cache
    insert on the cold pass; cache hits and record reconstruction on the
    warm pass.  The warm pass must not simulate at all.
    """
    import tempfile

    from repro.scenarios.cache import ResultCache
    from repro.scenarios.store import ResultStore
    from repro.scenarios.sweep import SweepRunner

    duration = 4.0 if quick else 12.0
    replications = 3 if quick else 4

    def one_pass(tmp: str, cache: ResultCache, store_name: str):
        runner = SweepRunner(
            "fairness",
            params={"duration": duration, "num_tcp": 2},
            replications=replications,
            base_seed=1,
        )
        start = time.perf_counter()
        records = runner.execute(
            store=ResultStore(os.path.join(tmp, store_name)), cache=cache
        )
        return time.perf_counter() - start, records, runner.stats

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(os.path.join(tmp, "cache.jsonl"))
        cold_s, records, _cold = one_pass(tmp, cache, "cold.jsonl")
        warm_s, _records, warm = one_pass(tmp, cache, "warm.jsonl")
    assert warm.executed == 0, "warm cached re-run must perform zero simulations"
    return {
        "events": sum(r["events"] for r in records),
        "link_packets": sum(r["links"]["packets_sent"] for r in records),
        "build_s": 0.0,
        "run_s": cold_s + warm_s,
        "seed": 1,
        "params": {
            "scenario": "fairness",
            "duration": duration,
            "replications": replications,
        },
        "extras": {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 1) if warm_s > 0 else 0.0,
            "cached_runs": warm.cached,
        },
    }


def _bench_serve_roundtrip(quick: bool) -> Dict[str, Any]:
    """Cold submit vs warm cache-hit latency through the service API.

    Starts a daemon on a Unix socket, submits one fairness run and waits
    for it (cold: the full HTTP -> scheduler -> worker pool -> cache ->
    SSE path), then submits the identical payload again (warm: answered
    from the result cache without simulating).  The delta between the two
    is the service overhead the tentpole promises to keep negligible next
    to a simulation.
    """
    import tempfile

    from repro.service import ReproService, ServiceClient

    duration = 4.0 if quick else 12.0
    payload = {
        "scenario": "fairness",
        "seed": 1,
        "params": {"duration": duration, "num_tcp": 2},
    }
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        service = ReproService(
            os.path.join(tmp, "data"),
            uds=os.path.join(tmp, "repro.sock"),
            workers=1,
        ).start()
        try:
            client = ServiceClient(service.endpoint)
            built_at = time.perf_counter()
            cold_job = client.submit(payload)
            assert client.wait(cold_job["id"], timeout=600)["state"] == "done"
            cold_done = time.perf_counter()
            warm_job = client.submit(payload)
            warm = client.wait(warm_job["id"], timeout=600)
            warm_done = time.perf_counter()
            assert warm["sources"]["cached"] == 1, "warm submit must not simulate"
            record = client.result(warm_job["id"])
        finally:
            service.shutdown(timeout=60)
    cold_s = cold_done - built_at
    warm_s = warm_done - cold_done
    return {
        "events": record["events"],
        "link_packets": record["links"]["packets_sent"],
        "build_s": built_at - start,
        "run_s": cold_s + warm_s,
        "seed": 1,
        "params": {"scenario": "fairness", "duration": duration, "transport": "uds"},
        "extras": {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 1) if warm_s > 0 else 0.0,
        },
    }


WORKLOADS: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "engine_churn": _bench_engine_churn,
    "dumbbell_fairness": _bench_dumbbell_fairness,
    "scaling_200": _bench_scaling_200,
    "scaling_10k_cohort": _bench_scaling_10k_cohort,
    "wireless_200": _bench_wireless_200,
    "sweep_resume": _bench_sweep_resume,
    "serve_roundtrip": _bench_serve_roundtrip,
}


# --------------------------------------------------------------- execution


#: Repetitions per workload in quick mode: the variants only run ~0.1 s, so
#: a single sample is dominated by scheduler noise.  Best-of-N keeps the CI
#: regression gate meaningful; full-size workloads run once.
QUICK_REPETITIONS = 3


def run_workload(name: str, quick: bool = False) -> Dict[str, Any]:
    """Run one workload (best-of-N wall time in quick mode) and return its record."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown bench workload {name!r}; available: {', '.join(sorted(WORKLOADS))}"
        ) from None
    raw = fn(quick)
    for _ in range(QUICK_REPETITIONS - 1 if quick else 0):
        candidate = fn(quick)
        assert candidate["events"] == raw["events"], "pinned-seed workload must replay"
        if candidate["build_s"] + candidate["run_s"] < raw["build_s"] + raw["run_s"]:
            raw = candidate
    wall = raw["build_s"] + raw["run_s"]
    events = raw["events"]
    result = {
        "name": name,
        "mode": "quick" if quick else "full",
        "seed": raw["seed"],
        "params": raw["params"],
        "events": events,
        "link_packets": raw["link_packets"],
        "build_s": round(raw["build_s"], 4),
        "run_s": round(raw["run_s"], 4),
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "run_events_per_sec": round(events / raw["run_s"], 1) if raw["run_s"] > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        "python": platform.python_version(),
        "platform": sys.platform,
    }
    # Workload-specific metrics (e.g. sweep_resume's warm_speedup) ride
    # along in the JSON without affecting the regression comparison.
    if "extras" in raw:
        result["extras"] = raw["extras"]
    if "counters" in raw:
        result["counters"] = {k: raw["counters"][k] for k in sorted(raw["counters"])}
    return result


def result_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"BENCH_{name}.json")


def write_result(result: Dict[str, Any], out_dir: str) -> str:
    """Write one result as ``<out_dir>/BENCH_<name>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = result_path(out_dir, result["name"])
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_baseline(baseline_dir: str, name: str) -> Optional[Dict[str, Any]]:
    path = result_path(baseline_dir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def compare_to_baseline(
    result: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[bool, str]:
    """Check ``result`` against ``baseline``.

    Returns ``(ok, message)``.  The check fails when ``wall_s`` says the
    workload runs more than ``threshold`` slower (speed = 1 / wall) than the
    baseline.  A differing event *count* is reported in the message but does
    not fail the check on its own: events are the engine's bookkeeping, and
    an engine revision may spend fewer of them on the same traffic.
    """
    base_wall = baseline.get("wall_s", 0.0)
    new_wall = result.get("wall_s", 0.0)
    ratio = (base_wall / new_wall) if new_wall > 0 else float("inf")
    notes = []
    if baseline.get("events") != result.get("events"):
        notes.append(
            f"event count changed {baseline.get('events')} -> {result.get('events')} "
            "(baseline from a different engine revision?)"
        )
    # Deterministic per pinned seed, so any shift against the baseline
    # pinpoints *what* changed alongside the speed; ``link_packets`` moving
    # means the simulated traffic itself differs and wall times no longer
    # compare.
    base_counters, new_counters = (
        {"link_packets": record.get("link_packets"), **(record.get("counters") or {})}
        for record in (baseline, result)
    )
    for key in sorted(set(base_counters) | set(new_counters)):
        old, new = base_counters.get(key), new_counters.get(key)
        if old != new and old is not None and new is not None:
            notes.append(f"counter {key} changed {old} -> {new}")
    if base_wall > 0 and ratio < 1.0 - threshold:
        msg = (
            f"REGRESSION: {result['name']} at {new_wall:.4f}s runs at "
            f"{ratio * 100:.0f}% of the baseline speed ({base_wall:.4f}s; "
            f"threshold {threshold * 100:.0f}% slower)"
        )
        if notes:
            msg += "; " + "; ".join(notes)
        return False, msg
    msg = (
        f"ok: {result['name']} at {new_wall:.4f}s "
        f"({ratio * 100:.0f}% of baseline speed, {base_wall:.4f}s)"
    )
    if notes:
        msg += "; " + "; ".join(notes)
    return True, msg


def run_bench(
    names: Optional[List[str]] = None,
    quick: bool = False,
    out_dir: str = DEFAULT_OUT_DIR,
    baseline_dir: Optional[str] = None,
    check: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    echo: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Run workloads, write ``BENCH_*.json``, optionally check baselines.

    Returns ``(results, failures)`` where ``failures`` is a list of human
    readable regression messages (empty when everything passed or ``check``
    is off).
    """
    names = list(names) if names else sorted(WORKLOADS)
    if baseline_dir is None:
        baseline_dir = os.path.join(DEFAULT_BASELINE_ROOT, "quick" if quick else "full")
    results: List[Dict[str, Any]] = []
    failures: List[str] = []
    for name in names:
        result = run_workload(name, quick=quick)
        path = write_result(result, out_dir)
        echo(
            f"{name:<20} {result['wall_s']:>8.2f}s  "
            f"{result['link_packets']:>9,d} link pkts  {result['events']:>9,d} events  "
            f"{result['events_per_sec']:>11,.0f} ev/s  "
            f"rss {result['peak_rss_kb'] / 1024:.0f} MB  -> {path}"
        )
        results.append(result)
        if check:
            baseline = load_baseline(baseline_dir, name)
            if baseline is None:
                failures.append(
                    f"no committed baseline for {name!r} in {baseline_dir} "
                    "(run `python -m repro bench` there to record one)"
                )
                continue
            ok, message = compare_to_baseline(result, baseline, threshold)
            echo("  " + message)
            if not ok:
                failures.append(message)
    return results, failures
