"""Names, statistics and verdict rules of the performance ledger.

Everything here is plain stdlib and imports nothing from ``repro``: the
tables are the single source of the names in ``BENCHMARK.json`` (the test
suite checks the two agree), and the reducers turn the raw samples a
workload child reports into the named metrics.  Keeping the ruler free of
the program it measures is the point of the ledger living outside ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Worker processes / client connections used by the concurrent workloads.
#: Fixed rather than derived from the host, so numbers compare across hosts;
#: the host's ``nproc`` is recorded next to them.
JOBS = 2

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 12

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: The checkout this file sits in, and the program's source under it (the
#: command sets no PYTHONPATH, so the harness puts ``src`` on the path itself).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_DIR = os.path.join(REPO_ROOT, "src")

# ------------------------------------------------------------------ workloads

#: name -> (loop type, why it exists); the classes in ``ledger_workloads`` say
#: what an operation is.  All loops are closed: each caller sends its next
#: operation only after the previous one answered.
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "fanout_exact": (
        "closed loop, 1 caller",
        "Figure 7/17 regime: each data packet becomes 200 deliveries and 200 "
        "in-order receiver calls; fan-out grouping and a receiver fast path must show here.",
    ),
    "unicast_mix": (
        "closed loop, 1 caller",
        "Bypass for fan-out work: one receiver per flow, so heap, link/queue, TCP "
        "and TFRC dominate; per-event engine cost shows, fan-out changes must not move it.",
    ),
    "wireless_lossy": (
        "closed loop, 1 caller",
        "Receiver slow path: per-packet channel decisions, gaps, loss events and "
        "feedback on lossy last hops; the one sim workload where collect and encode show.",
    ),
    "cohort_100k": (
        "closed loop, 1 caller",
        "The numpy cohort engine: spec resolve + build are over half of the op; "
        "exact-engine work must not move it, cohort/build/spec work moves only it.",
    ),
    "sweep_pool": (
        "closed loop, 1 caller driving 2 workers",
        "Orchestration with little simulation per unit: pool start, IPC, store "
        "append, manifest, cache insert, then the pure cache/store read path.",
    ),
    "serve_jobs": (
        "closed loop, 2 client threads on 1 worker",
        "Service dispatch loop: HTTP accept/validate, journal, queue-wait, dispatch, "
        "stamp, serialise, SSE; two clients on one worker make queue-wait real.",
    ),
    "report_quick": (
        "closed loop, 1 caller",
        "The user's deliverable and the third dispatch loop; the only workload "
        "running the analysis models, figure reduction and with_trace probes.",
    ),
}

#: Exact-engine workloads whose simulated work differs by seed (TFMCC's rate
#: follows the sample path of its losses: link packets per op vary by +-15% on
#: ``fanout_exact`` and tenfold on ``wireless_lossy``).  The run phase of their
#: ops is scaled to this many link packets, a count no engine optimisation
#: changes, so that a run reads the same on every seed.
REFERENCE_LINK_PACKETS: Dict[str, int] = {
    "fanout_exact": 55_000,
    "unicast_mix": 80_000,
    "wireless_lossy": 50_000,
}

# ----------------------------------------------------------- end-to-end names

#: (name, unit, better, bound, definition).  ``bound`` is the share of the
#: parent's median by which the metric may worsen before it is a regression.
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    (
        "setup_s", "s", "lower", 0.25,
        "child start to ready for the first op (interpreter, imports, registry, "
        "work dir, daemon start); median of 3 set-up-only probes + the measuring process",
    ),
    (
        "op_s.p50", "s", "lower", 0.25,
        "median wall of one timed operation (the workload table says what an op "
        "is; a sim op is resolve, build, run, collect, JSON-encode); exact-engine "
        "sim workloads scale the run phase to the workload's reference link-packet count",
    ),
    (
        "warm_op_s.p50", "s", "lower", 0.25,
        "median wall of the same operation answered from the fingerprint "
        "cache / reusable dataset",
    ),
    (
        "op_cpu_s.p50", "s", "lower", 0.25,
        "median user+sys CPU seconds per op, self + reaped children; scaled like op_s.p50",
    ),
    (
        "peak_rss_mb", "MB", "lower", 0.05,
        "max of the measuring process's ru_maxrss and its reaped children's, read "
        "after the first cold operation (sim workloads) or round of operations, so "
        "that it does not grow with the run's length",
    ),
]

# ------------------------------------------------------------ per-layer names

#: Files under ``src/repro/`` -> layer, longest prefix first.  Unknown files
#: are ``other``, so module moves and deletions never break the harness.
LAYER_PREFIXES: List[Tuple[str, str]] = [
    ("simulator/engine.py", "simulator.engine"),
    ("simulator/link.py", "simulator.link"),
    ("simulator/queues.py", "simulator.link"),
    ("simulator/node.py", "simulator.node"),
    ("simulator/multicast.py", "simulator.node"),
    ("simulator/monitor.py", "simulator.monitor"),
    ("core/receiver.py", "core.receiver"),
    ("core/loss_history.py", "core.receiver"),
    ("core/rtt.py", "core.receiver"),
    ("core/feedback.py", "core.receiver"),
    ("core/sender.py", "core.sender"),
    ("tcp/", "tcp"),
    ("tfrc/", "tfrc"),
    ("channel/", "channel"),
    ("engines/cohort.py", "engines.cohort"),
    ("metrics/", "metrics"),
    ("telemetry/", "telemetry"),
    ("analysis/", "analysis"),
    ("report/", "report"),
    ("scenarios/", "scenarios"),
]
LAYERS: List[str] = list(dict.fromkeys(layer for _prefix, layer in LAYER_PREFIXES)) + ["other"]

_SIMS = "fanout_exact,unicast_mix,wireless_lossy,cohort_100k"
_EXACT = "fanout_exact,unicast_mix,wireless_lossy"

#: layer -> the end-to-end metric @ workload its share should move.
_LAYER_MOVES = {
    "simulator.engine": "op_s.p50@unicast_mix first, " + _EXACT + " second",
    "simulator.link": "op_s.p50@fanout_exact,wireless_lossy",
    "simulator.node": "op_s.p50@fanout_exact,wireless_lossy",
    "simulator.monitor": "op_s.p50@" + _EXACT,
    "core.receiver": "op_s.p50@fanout_exact,wireless_lossy; no change@unicast_mix",
    "core.sender": "op_s.p50@" + _EXACT,
    "tcp": "op_s.p50@unicast_mix; no change@fanout_exact",
    "tfrc": "op_s.p50@unicast_mix; no change@fanout_exact",
    "channel": "op_s.p50@wireless_lossy only",
    "engines.cohort": "op_s.p50,op_cpu_s.p50@cohort_100k only",
    "metrics": "op_s.p50@wireless_lossy,report_quick",
    "telemetry": "none (off in end-to-end runs)",
    "analysis": "warm_op_s.p50,op_s.p50@report_quick",
    "report": "warm_op_s.p50@report_quick",
    "scenarios": "op_s.p50@cohort_100k,report_quick",
    "other": "none",
}

REPORT_FIGURES = [
    "equivalence", "fairness", "feedback", "responsiveness", "scaling", "smoothness", "wireless",
]


def _per_layer() -> List[Tuple[str, str, str, str]]:
    """(name, unit, better, moves) for every per-layer metric."""
    rows: List[Tuple[str, str, str, str]] = [
        # phase spans around the public calls of one sim op
        ("scenarios.resolve_s", "s", "lower", "op_s.p50@cohort_100k only"),
        ("scenarios.fingerprint_s", "s", "lower", "op_s.p50,warm_op_s.p50@cohort_100k"),
        ("engines.build_s", "s", "lower", "op_s.p50@cohort_100k only"),
        ("simulator.run_s", "s", "lower", "op_s.p50@" + _SIMS),
        ("scenarios.collect_s", "s", "lower", "op_s.p50@wireless_lossy"),
        ("scenarios.encode_s", "s", "lower", "op_s.p50@wireless_lossy; warm_op_s.p50@sweep_pool,serve_jobs"),
        ("scenarios.record_bytes", "B", "lower", "op_s.p50@wireless_lossy; warm_op_s.p50@sweep_pool,serve_jobs"),
        ("first_op_s", "s", "lower", "none (excluded from medians)"),
        ("ops.timed", "count", "higher", "none (sample count of op_s.p50)"),
        ("ops.warm_timed", "count", "higher", "none (sample count of warm_op_s.p50)"),
        # exact counts of the first sim op: repeat bit for bit per seed
        ("simulator.events", "count", "lower", "op_s.p50@" + _EXACT),
        ("simulator.link_packets", "count", "lower", "none (must stay identical)"),
        ("simulator.queue_drops", "count", "lower", "none (must stay identical)"),
        ("simulator.channel_drops", "count", "lower", "none (must stay identical)"),
        ("simulator.queue_peak", "count", "lower", "none (must stay identical)"),
        ("simulator.compactions", "count", "lower", "none (must stay identical)"),
        ("simulator.reschedule_fast_hits", "count", "higher", "none (must stay identical)"),
        ("simulator.events_per_s", "1/s", "higher", "op_s.p50@" + _SIMS),
        ("simulator.us_per_link_packet", "us", "lower", "op_s.p50@" + _EXACT),
        ("simulator.events_per_link_packet", "ratio", "lower", "op_s.p50@fanout_exact,wireless_lossy"),
    ]
    for layer in LAYERS:
        rows.append((layer + ".share", "ratio", "lower", _LAYER_MOVES[layer]))
        rows.append((layer + ".self_s", "s", "lower", _LAYER_MOVES[layer]))
    rows += [
        ("sweep.busy_s", "s", "lower", "op_s.p50@sweep_pool"),
        ("sweep.utilisation", "ratio", "higher", "op_s.p50@sweep_pool"),
        ("sweep.overhead_s", "s", "lower", "op_s.p50@sweep_pool"),
        ("sweep.executed", "count", "lower", "none (must stay identical)"),
        ("sweep.cached", "count", "higher", "none (must stay identical)"),
        ("sweep.retried", "count", "lower", "op_s.p50@sweep_pool"),
        ("sweep.failed", "count", "lower", "failed_share@sweep_pool"),
        ("sweep.warm_us_per_unit", "us", "lower", "warm_op_s.p50@sweep_pool,serve_jobs"),
        ("sweep.serial_wall_s", "s", "lower", "op_s.p50@sweep_pool"),
        ("sweep.pool_speedup", "ratio", "higher", "op_s.p50@sweep_pool"),
        ("store.append_us", "us", "lower", "warm_op_s.p50@sweep_pool,serve_jobs"),
        ("store.bytes_per_record", "B", "lower", "warm_op_s.p50@sweep_pool,serve_jobs"),
        ("cache.put_us", "us", "lower", "op_s.p50@sweep_pool"),
        ("cache.get_us", "us", "lower", "warm_op_s.p50@sweep_pool,serve_jobs"),
        ("cache.fingerprint_us", "us", "lower", "warm_op_s.p50@sweep_pool,serve_jobs"),
    ]
    for phase in ("cold", "warm"):
        moves = "op_s.p50@serve_jobs" if phase == "cold" else "warm_op_s.p50@serve_jobs"
        rows += [
            (f"service.submit_ms.p50.{phase}", "ms", "lower", moves),
            (f"service.wait_ms.p50.{phase}", "ms", "lower", moves),
            (f"service.result_ms.p50.{phase}", "ms", "lower", moves),
        ]
    rows += [
        ("service.op_ms.p90.warm", "ms", "lower", "warm_op_s.p50@serve_jobs"),
        ("service.samples.warm", "count", "higher", "none (sample count of the p90)"),
        ("service.jobs_per_s.cold", "1/s", "higher", "op_s.p50@serve_jobs"),
        ("service.daemon_start_s", "s", "lower", "setup_s@serve_jobs"),
        ("service.shutdown_s", "s", "lower", "none"),
        ("service.cache_hits", "count", "higher", "none (must stay identical)"),
        ("service.cache_misses", "count", "lower", "none (must stay identical)"),
        ("service.units_coalesced", "count", "lower", "none (must stay identical)"),
    ]
    rows += [(f"report.{name}_s", "s", "lower", "op_s.p50@report_quick") for name in REPORT_FIGURES]
    rows += [
        ("report.build_s", "s", "lower", "warm_op_s.p50@report_quick"),
        ("report.sim_runs", "count", "lower", "none (must stay identical)"),
        ("report.checks_failed", "count", "lower", "failed_share@report_quick"),
        ("report.bytes_written", "B", "lower", "warm_op_s.p50@report_quick"),
        ("cli.interpreter_s", "s", "lower", "setup_s@all"),
        ("cli.import_s", "s", "lower", "setup_s@all"),
        ("cli.modules_imported", "count", "lower", "setup_s@all"),
        ("cli.list_s", "s", "lower", "setup_s@all"),
        ("trace.overhead", "ratio", "lower", "none (end-to-end runs have tracing off)"),
        ("telemetry.enabled_overhead", "ratio", "lower", "none (end-to-end runs have telemetry off)"),
    ]
    return rows


PER_LAYER: List[Tuple[str, str, str, str]] = _per_layer()


def benchmark_json() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json`` as the tables above define it."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": f"{why} ({loop})"}
            for name, (loop, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _definition in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }


# ----------------------------------------------------------------- statistics


def layer_of(relative_path: str) -> str:
    """Layer of a file given its path relative to ``src/repro/``."""
    path = relative_path.replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if path == prefix or (prefix.endswith("/") and path.startswith(prefix)):
            return layer
    return "other"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (1..99), linear interpolation between ranks."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])


def supports_percentile(samples: int, p: int) -> bool:
    """A percentile is reportable with at least ten samples beyond it."""
    return samples * (100 - p) >= 1000


# ---------------------------------------------------------------- correctness


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stats_digest(record: Mapping[str, Any]) -> str:
    """sha256 of the canonical record minus ``events`` and ``run``.

    ``events`` is the one count an engine optimisation may change and ``run``
    is provenance; every simulated statistic stays in, so two commits whose
    digests agree simulated the same thing.
    """
    kept = {k: v for k, v in record.items() if k not in ("events", "run")}
    return hashlib.sha256(canonical(kept).encode("utf-8")).hexdigest()


def combined_digest(digests: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def sanity_error(record: Mapping[str, Any]) -> Optional[str]:
    """Why a simulation record is implausible, or None when it is sane."""
    if record.get("failed"):
        return f"failure record: {record.get('error')}"
    if not record.get("events", 0) > 0:
        return "no events processed"
    for flow in record.get("flows", ()):
        rate = flow.get("avg_bps")
        if not isinstance(rate, (int, float)) or not math.isfinite(rate):
            return f"flow {flow.get('id')} has a non-finite avg_bps"
    index = record.get("fairness_index")
    if not isinstance(index, (int, float)) or not 0.0 < index <= 1.0:
        return f"fairness_index {index!r} outside (0, 1]"
    return None


# ------------------------------------------------------------------- reducing


def reduce_end_to_end(child: Mapping[str, Any], probe_setups: Sequence[float]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one run from the child's raw samples."""
    ops = [op for op in child["ops"] if not op.get("error")]
    warm = [op for op in child["warm"] if not op.get("error")]
    samples = {
        "setup_s": list(probe_setups) + [child["setup_s"]],
        "op_s.p50": [op["wall"] * op["scale"] for op in ops],
        "warm_op_s.p50": [op["wall"] for op in warm],
        "op_cpu_s.p50": [op["cpu"] * op["scale"] for op in ops],
        "peak_rss_mb": [child["peak_rss_mb"]],
    }
    return {
        name: {"value": median(samples[name]), "unit": unit,
               "samples": len(samples[name]), "spread": spread(samples[name])}
        for name, unit, _better, _bound, _definition in END_TO_END
    }


def reduce_per_layer(child: Mapping[str, Any], startup: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced run; layers that did not run read 0."""
    measured = dict(child.get("layers", {}))
    measured.update(startup)
    return {
        name: {"value": measured.get(name, 0), "unit": unit}
        for name, unit, _better, _moves in PER_LAYER
    }


def count_failures(child: Mapping[str, Any]) -> Tuple[int, int]:
    """(attempted, failed) over the timed cold and warm operations."""
    timed = list(child["ops"]) + list(child["warm"])
    return len(timed), sum(1 for op in timed if op.get("error"))


# -------------------------------------------------------------------- compare


def failed_share_verdict(base: float, change: float) -> str:
    """``failed_share`` has no tolerance: any rise is a regression."""
    return "regressed" if change > base else "improved" if change < base else "unchanged"


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> Dict[str, Any]:
    """Compare two sets of runs of one metric on one workload.

    ``improved`` needs the change to win at least nine tenths of the pairs
    (ties count for neither side) and the medians to differ by more than the
    distance between the base side's quartiles.  ``regressed`` is a median
    worse than the base's by more than ``bound``; where either side's own
    spread is wider than the bound that reads ``unresolved`` instead, and so
    does an otherwise unchanged metric unless every run of the change beats
    every run of the base.
    """
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if _better(b, a, better))
    losses = sum(1 for a, b in pairs if _better(a, b, better))
    iqr = b3 - b1
    worse_by = (c2 - b2) if better == "lower" else (b2 - c2)
    wide = max(spread(base), spread(change)) > bound
    clean_sweep = bool(base) and bool(change) and all(
        _better(b, a, better) for a in base for b in change
    )
    resolved_worse = bool(pairs) and losses >= 0.9 * len(pairs) and worse_by > iqr
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > iqr:
        result = "improved"
    elif worse_by > bound * abs(b2):
        result = "unresolved" if wide and not resolved_worse else "regressed"
    elif wide and not clean_sweep:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "verdict": result,
        "base": {"q1": b1, "median": b2, "q3": b3, "runs": len(base)},
        "change": {"q1": c1, "median": c2, "q3": c3, "runs": len(change)},
        "ratio": (c2 / b2) if b2 else (1.0 if c2 == b2 else math.inf),
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
    }
