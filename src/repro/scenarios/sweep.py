"""Parameter-grid sweep runner: resumable, sharded, cached, fault-tolerant.

A sweep expands a parameter grid (cartesian product) times ``replications``
seeded repetitions into an ordered list of runs, submits them to the shared
:class:`~repro.scenarios.executor.RunExecutor` and streams one JSON record
per run, in run order, to a :class:`~repro.scenarios.store.ResultStore`.

This module owns how a unit of work (:class:`~repro.scenarios.registry.SweepRun`,
which resolves itself to a spec) is fingerprinted and stamped, and what is
particular to a sweep: the ordered commit, the store, the manifest, the
heartbeat, shards and compaction.  Cache lookups, worker processes, retries and dead-worker
recovery belong to the executor.

Determinism contract: each run is the pure function
``run_scenario(spec, seed)`` — the spec is rebuilt from its dict form inside
the worker, every simulation owns its own seeded RNG, and results are
committed in run order — so a sweep writes byte-identical JSONL no matter
how many workers execute it, whether it was interrupted and resumed, or
whether its shards ran on different hosts and were compacted afterwards.

Orchestration features on top of the plain grid runner:

* **Fingerprints** — every record's ``run`` block carries
  ``fingerprint(spec_dict, seed)`` (see :mod:`repro.scenarios.cache`),
  the stable identity used for caching, resume validation and compaction.
* **Resume** — when a store is given, a JSON manifest next to the JSONL
  file records the sweep fingerprint and checkpoints the completed run
  indices (at most every :data:`CHECKPOINT_S` seconds, and on the way
  out).  An interrupted sweep re-run with the same arguments validates the
  store (repairing a truncated trailing line), skips everything already
  done and continues exactly where it left off; a completed sweep is a
  no-op.
* **Result cache** — with a :class:`~repro.scenarios.cache.ResultCache`,
  the executor answers runs whose fingerprint is already cached without
  simulating, and inserts fresh results for future invocations.
* **Shards** — ``shard=(i, n)`` executes only runs with ``index % n == i``
  (each shard gets its own store/manifest); :func:`compact_stores` merges
  shard files back into one sorted, deduplicated store.
* **Fault tolerance** — a run the executor gave up on (it raised, or killed
  its worker, more than ``max_retries`` times) is recorded as a failure
  entry instead of aborting the sweep.

Seeds are derived as ``base_seed + run_index`` with the run index enumerating
(grid point, replication) pairs in grid order; two sweeps over the same grid
with the same base seed therefore run the same simulations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import telemetry
from repro.scenarios.build import run_scenario
from repro.scenarios.cache import ResultCache, canonical_json, fingerprint_spec
from repro.scenarios.registry import SweepRun, get_scenario, split_params
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultStore, open_log


#: Seconds between manifest checkpoints while a sweep runs.  The store is
#: what resume reads, so the manifest may lag it; rewriting the file per
#: committed run cost more than a cached or millisecond run itself.
CHECKPOINT_S = 1.0


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a parameter grid, in stable iteration order."""
    if not grid:
        return [{}]
    keys = list(grid)
    combos = []
    for values in itertools.product(*(grid[k] for k in keys)):
        combos.append(dict(zip(keys, values)))
    return combos


# Specs are immutable, so replications of the same grid point can share one
# resolved spec per process.
_SPEC_MEMO: Dict[Any, ScenarioSpec] = {}
_SPEC_MEMO_LIMIT = 256


def resolve_spec_cached(run: "SweepRun") -> ScenarioSpec:
    if run.scenario is None:
        return run.resolve_spec()
    try:
        key = (run.scenario, tuple(sorted(run.params.items())))
        spec = _SPEC_MEMO.get(key)
        if spec is None:
            spec = run.resolve_spec()
            if len(_SPEC_MEMO) >= _SPEC_MEMO_LIMIT:
                _SPEC_MEMO.clear()
            _SPEC_MEMO[key] = spec
        return spec
    except TypeError:  # unhashable parameter values
        return run.resolve_spec()


#: Environment provenance, computed once per interpreter.
_RUN_ENV: Optional[Dict[str, Any]] = None


def run_env() -> Dict[str, Any]:
    """Execution-environment provenance stamped under ``run.env``.

    Identifies *where* a record was produced (interpreter, numpy, platform,
    core count) without participating in the spec fingerprint — so caching,
    resume validation and compaction identity are unaffected, and records
    remain byte-identical across worker counts on one machine.
    """
    global _RUN_ENV
    if _RUN_ENV is None:
        # The version without the import: numpy is 0.1-0.2 s that an
        # exact-engine run or a cache hit never needs.
        from importlib import metadata

        try:
            numpy_version: Optional[str] = metadata.version("numpy")
        except metadata.PackageNotFoundError:
            numpy_version = None
        _RUN_ENV = {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "numpy": numpy_version,
            "platform": sys.platform,
            "python": platform.python_version(),
        }
    return dict(_RUN_ENV)


def stamp_record(
    record: Dict[str, Any],
    run: SweepRun,
    spec: ScenarioSpec,
    fingerprint: Optional[str],
    snapshot: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Attach the ``run`` provenance block to a pure simulation record.

    Apart from ``env`` (fixed per machine/interpreter) the block is a
    deterministic function of the run position and the spec, so a record
    reconstructed from the result cache is byte-identical to a freshly
    simulated one.

    ``snapshot`` is the telemetry snapshot of the simulation that produced
    the record, when telemetry was enabled (``REPRO_TELEMETRY``, inherited
    by pool workers).  Only its deterministic sections are embedded, under
    ``run.telemetry`` — the wall-clock spans are deliberately excluded so
    stores stay byte-identical across serial/parallel/resumed executions
    even with telemetry on.
    """
    record["run"] = {
        "index": run.index,
        "seed": run.seed,
        "params": run.params,
        "scenario": run.scenario if run.scenario is not None else spec.name,
        "engine": spec.engine.kind,
        "fingerprint": fingerprint,
        "env": run_env(),
    }
    if snapshot is not None:
        section = {
            key: snapshot[key]
            for key in ("counters", "gauges", "histograms")
            if key in snapshot
        }
        if section:
            record["run"]["telemetry"] = section
    return record


def run_fingerprint(run: SweepRun) -> str:
    """The spec fingerprint of one run (resolves the spec if needed)."""
    return fingerprint_spec(resolve_spec_cached(run), run.seed)


def pool_execute(
    run: SweepRun,
) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]], Optional[str], float]:
    """The executor's worker entry point: never raise, report failures.

    Returns ``(pure record, telemetry snapshot, error, wall)``.  An
    exception that escaped into the pool machinery would come back as an
    opaque remote traceback; the error string lets the executor retry the
    one failed run.  The per-run wall time feeds worker-utilisation
    accounting.
    """
    started = time.perf_counter()
    try:
        record = run_scenario(resolve_spec_cached(run), seed=run.seed)
        return (record, telemetry.take_last_run(), None, time.perf_counter() - started)
    except Exception as exc:
        return (None, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - started)


def failure_record(run: SweepRun, error: str, retries: int) -> Dict[str, Any]:
    """Terminal failure entry written in place of a run's result."""
    try:
        fingerprint: Optional[str] = run_fingerprint(run)
    except Exception:  # the failure may be in spec resolution itself
        fingerprint = None
    return {
        "failed": True,
        "error": error,
        "scenario": run.scenario,
        "seed": run.seed,
        "run": {
            "index": run.index,
            "seed": run.seed,
            "params": run.params,
            "scenario": run.scenario,
            "engine": None,
            "fingerprint": fingerprint,
            "retries": retries,
            "env": run_env(),
        },
    }


# ------------------------------------------------------------------ manifest


def manifest_path(store_path: str) -> str:
    """Manifest location for a store: ``X.jsonl`` -> ``X.manifest.json``."""
    base, ext = os.path.splitext(store_path)
    if ext != ".jsonl":
        base = store_path
    return base + ".manifest.json"


def heartbeat_path(store_path: str) -> str:
    """Heartbeat stream location for a store: ``X.jsonl`` -> ``X.heartbeat.jsonl``."""
    base, ext = os.path.splitext(store_path)
    if ext != ".jsonl":
        base = store_path
    return base + ".heartbeat.jsonl"


class HeartbeatStream:
    """Append-only JSONL fleet-health stream written next to the manifest.

    One ``start`` entry per invocation, one ``run`` entry per committed run
    (emitted after the store append, so its ``completed`` count never
    exceeds what the store holds), and one ``stop`` entry on the way out —
    flushed line-by-line so an external watcher (or a human with
    ``tail -f``) can follow a sweep live; a killed sweep leaves at most one
    torn line, which the resumed sweep cuts before it appends.  The
    manifest on disk lags this stream by at most :data:`CHECKPOINT_S`
    while the sweep runs and agrees with its last entry after every exit
    that is not a kill.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open_log(path)

    def emit(self, entry: Dict[str, Any]) -> None:
        payload = {"ts": round(time.time(), 3), **entry}
        self._fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - close failures are best-effort
            pass


def _compress_indices(indices: Iterable[int]) -> List[List[int]]:
    """Sorted indices -> inclusive ``[start, end]`` ranges (compact JSON)."""
    ranges: List[List[int]] = []
    for index in sorted(indices):
        if ranges and index == ranges[-1][1] + 1:
            ranges[-1][1] = index
        elif not ranges or index > ranges[-1][1]:
            ranges.append([index, index])
    return ranges


def _expand_indices(ranges: Iterable[Sequence[int]]) -> Set[int]:
    out: Set[int] = set()
    for start, end in ranges:
        out.update(range(start, end + 1))
    return out


@dataclass
class SweepManifest:
    """Checkpoint file recording a sweep's identity and completed runs.

    Lives next to the JSONL store (:func:`manifest_path`).  The store
    itself is the source of truth on resume — the manifest's job is to
    guard against resuming a *different* sweep into the same store (via
    ``sweep_fingerprint``) and to make progress observable without
    scanning millions of JSONL lines.  It is saved when a sweep starts,
    at most every :data:`CHECKPOINT_S` seconds while it runs and when it
    exits (normally, stopped early, or on an exception or Ctrl-C), and
    only after the runs it lists were appended to the store: it never
    claims a run the store does not hold, and after a ``SIGKILL`` it may
    list fewer.
    """

    path: str
    sweep_fingerprint: str
    total: int
    sweep_total: int
    shard: Optional[Tuple[int, int]] = None
    completed: Set[int] = field(default_factory=set)
    failed: Dict[int, str] = field(default_factory=dict)
    #: Cumulative wall-clock seconds this shard has spent across all
    #: invocations (including interrupted ones) and its total retry count —
    #: the per-shard skew data ``--compact`` reports fleet-wide.
    wall_s: float = 0.0
    retried: int = 0

    VERSION = 1

    @classmethod
    def load(cls, path: str) -> Optional["SweepManifest"]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        shard = data.get("shard")
        return cls(
            path=path,
            sweep_fingerprint=data.get("sweep_fingerprint", ""),
            total=data.get("total", 0),
            sweep_total=data.get("sweep_total", data.get("total", 0)),
            shard=tuple(shard) if shard else None,
            completed=_expand_indices(data.get("completed", [])),
            failed={int(k): v for k, v in data.get("failed", {}).items()},
            wall_s=data.get("wall_s", 0.0),
            retried=data.get("retried", 0),
        )

    def save(self) -> None:
        payload = {
            "version": self.VERSION,
            "sweep_fingerprint": self.sweep_fingerprint,
            "total": self.total,
            "sweep_total": self.sweep_total,
            "shard": list(self.shard) if self.shard else None,
            "completed": _compress_indices(self.completed),
            "failed": {str(k): v for k, v in sorted(self.failed.items())},
            "wall_s": round(self.wall_s, 3),
            "retried": self.retried,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    @property
    def done(self) -> bool:
        return len(self.completed) >= self.total


# --------------------------------------------------------------------- stats


@dataclass
class SweepStats:
    """Counters of one ``SweepRunner.execute`` invocation."""

    total: int = 0  # runs this invocation is responsible for (its shard)
    resumed: int = 0  # already complete in the store before we started
    cached: int = 0  # reconstructed from the result cache
    executed: int = 0  # actually simulated
    retried: int = 0  # retry attempts (exceptions and pool rebuilds)
    failed: int = 0  # runs terminally recorded as failure entries
    pool_rebuilds: int = 0  # executors rebuilt after a worker died
    wall_s: float = 0.0
    busy_s: float = 0.0  # summed per-run wall time across all workers

    @property
    def completed(self) -> int:
        return self.resumed + self.cached + self.executed + self.failed

    def utilisation(self, jobs: int) -> float:
        """Fraction of worker capacity spent simulating (busy / wall x jobs)."""
        if self.wall_s <= 0.0 or jobs < 1:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * jobs))

    def summary(self) -> str:
        rate = (self.cached + self.executed) / self.wall_s if self.wall_s > 0 else 0.0
        text = (
            f"{self.completed}/{self.total} runs in {self.wall_s:.1f} s "
            f"({self.executed} simulated, {self.cached} cached, "
            f"{self.resumed} resumed, {self.retried} retried, "
            f"{self.failed} failed, {rate:.1f} runs/s)"
        )
        if self.pool_rebuilds:
            text += f" [{self.pool_rebuilds} pool rebuilds]"
        return text


class SweepRunner:
    """Expand, execute and persist a scenario parameter sweep.

    Parameters
    ----------
    scenario:
        Name of a registered scenario, or a concrete :class:`ScenarioSpec`
        (which accepts dotted override axes only — there is no factory to
        take plain parameters).
    grid:
        Mapping of parameter name to the list of values to sweep.  A plain
        name is a factory parameter; a dotted name is a spec override path
        applied after the factory (``flows.0.params.max_rtt`` ablates a
        protocol parameter, ``topology.bottleneck_bps`` the topology).
    params:
        Fixed parameters applied to every run (overridden by grid values on
        collision); plain and dotted names as for ``grid``.
    replications:
        Seeded repetitions of every grid point.
    base_seed:
        Seed of run 0; run *i* uses ``base_seed + i``.
    jobs:
        Worker processes; 1 runs inline (no pool).
    shard:
        Optional ``(i, n)`` partition: execute only runs with
        ``index % n == i``.  Seeds and indices stay global, so the union of
        all shards' stores compacts to exactly the unsharded sweep.
    max_retries:
        Bounded retries per failed run (raised exception or killed worker)
        before a failure entry is recorded instead.
    """

    def __init__(
        self,
        scenario,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        params: Optional[Mapping[str, Any]] = None,
        replications: int = 1,
        base_seed: int = 1,
        jobs: int = 1,
        shard: Optional[Tuple[int, int]] = None,
        max_retries: int = 2,
    ):
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if shard is not None:
            index, count = shard
            if count < 1 or not 0 <= index < count:
                raise ValueError(f"shard must be (i, n) with 0 <= i < n, got {shard}")
        self.grid = dict(grid or {})
        self.params = dict(params or {})
        self.replications = replications
        self.base_seed = base_seed
        self.jobs = jobs
        self.shard = tuple(shard) if shard is not None else None
        self.max_retries = max_retries
        self.stats = SweepStats()
        plain, _dotted = split_params({**self.params, **self.grid})
        if isinstance(scenario, ScenarioSpec):
            self.scenario_name: Optional[str] = None
            self._spec_dict: Optional[Dict[str, Any]] = scenario.to_dict()
            if plain:
                raise ValueError(
                    f"plain factory parameters {sorted(plain)} only apply to "
                    "registry scenarios; concrete specs accept dotted override "
                    "paths (e.g. 'flows.0.params.max_rtt') only"
                )
        else:
            factory = get_scenario(scenario)  # fail fast on unknown names
            factory.validate_params(set(plain))
            self.scenario_name = scenario
            self._spec_dict = None

    def fingerprint(self) -> str:
        """Stable identity of the whole sweep (shard-independent).

        Hashes everything that determines the run list and its results:
        scenario (or concrete spec dict), grid, fixed params, replications
        and base seed.  Shards of one sweep share this fingerprint, which
        is how compaction verifies they belong together.
        """
        payload = canonical_json(
            {
                "scenario": self.scenario_name,
                "spec": self._spec_dict,
                "grid": self.grid,
                "params": self.params,
                "replications": self.replications,
                "base_seed": self.base_seed,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def runs(self) -> List[SweepRun]:
        """The ordered, fully-expanded list of runs of the *whole* sweep."""
        out: List[SweepRun] = []
        index = 0
        for combo in expand_grid(self.grid):
            merged = {**self.params, **combo}
            for _rep in range(self.replications):
                out.append(
                    SweepRun(
                        index=index,
                        seed=self.base_seed + index,
                        params=merged,
                        scenario=self.scenario_name,
                        spec_dict=self._spec_dict,
                    )
                )
                index += 1
        return out

    def shard_runs(self) -> List[SweepRun]:
        """The subset of :meth:`runs` this invocation executes."""
        runs = self.runs()
        if self.shard is None:
            return runs
        index, count = self.shard
        return [r for r in runs if r.index % count == index]

    # ------------------------------------------------------------- resume

    def _validate_store(
        self, store: ResultStore, runs: Sequence[SweepRun]
    ) -> Set[int]:
        """Which planned runs are already complete in the store.

        Scans the longest valid JSONL prefix, matches records to planned
        runs by (index, seed, fingerprint) and truncates any corrupt tail
        left by a killed writer — but only when every parsed record
        belongs to this sweep, so an unrelated store is never damaged.
        """
        records, clean_end = store.scan_valid()
        by_index = {run.index: run for run in runs}
        fp_memo: Dict[int, str] = {}
        completed: Set[int] = set()
        all_ours = True
        for record in records:
            run_info = record.get("run")
            if not isinstance(run_info, dict):
                all_ours = False
                continue
            index = run_info.get("index")
            run = by_index.get(index)
            if run is None or run_info.get("seed") != run.seed:
                all_ours = False
                continue
            if record.get("failed"):
                # A terminal failure entry counts as completed: a
                # deterministic failure would only fail again on resume.
                completed.add(index)
                continue
            recorded_fp = run_info.get("fingerprint")
            if recorded_fp is not None:
                if index not in fp_memo:
                    fp_memo[index] = run_fingerprint(run)
                if recorded_fp != fp_memo[index]:
                    all_ours = False
                    continue
            completed.add(index)
        if all_ours and os.path.getsize(store.path) > clean_end:
            store.truncate(clean_end)
        return completed

    # ------------------------------------------------------------ execution

    def execute(
        self,
        store: Optional[ResultStore] = None,
        progress: Optional[Callable[[int, int, Dict[str, Any]], None]] = None,
        cache: Optional[ResultCache] = None,
        resume: bool = True,
        stop_after: Optional[int] = None,
        collect: bool = True,
    ) -> List[Dict[str, Any]]:
        """Run the sweep; returns records in run order (when ``collect``).

        ``progress(done, total, record)`` is invoked after every committed
        run, in run order.  ``done`` counts completed runs including those
        resumed from the store.

        With a ``store``, records are appended as they complete — memory
        stays O(1) in sweep size when ``collect=False`` — and a manifest
        next to the store checkpoints completion (every
        :data:`CHECKPOINT_S` seconds and on exit); an interrupted sweep
        resumes from the store where it left off (``resume=True``) and a
        re-run of a completed sweep is a no-op.  ``stop_after`` commits at
        most that many new runs and then stops (a controlled interruption,
        used by tests/CI and for budgeted execution).  With a ``cache``,
        runs whose spec fingerprint is already cached skip simulation
        entirely.

        Failures never abort the sweep: a run the executor gave up on after
        ``max_retries`` retries is recorded as a failure entry
        (``{"failed": true, "error": ...}``); counts are in :attr:`stats`.
        """
        runs = self.shard_runs()
        stats = SweepStats(total=len(runs))
        self.stats = stats
        started = time.perf_counter()

        manifest: Optional[SweepManifest] = None
        heartbeat: Optional[HeartbeatStream] = None
        completed: Set[int] = set()
        base_wall = 0.0
        base_retried = 0
        if store is not None:
            mpath = manifest_path(store.path)
            sweep_fp = self.fingerprint()
            existing = SweepManifest.load(mpath)
            if existing is not None and existing.sweep_fingerprint != sweep_fp:
                raise ValueError(
                    f"store {store.path!r} belongs to a different sweep "
                    f"(manifest {mpath!r} fingerprint mismatch); use a "
                    "different --out or remove the old store to start fresh"
                )
            if existing is not None:
                # Wall/retry accounting accumulates across invocations so
                # the manifest reflects the shard's total cost, not just
                # the final resume.
                base_wall = existing.wall_s
                base_retried = existing.retried
            if resume and os.path.exists(store.path):
                completed = self._validate_store(store, runs)
            manifest = SweepManifest(
                path=mpath,
                sweep_fingerprint=sweep_fp,
                total=len(runs),
                sweep_total=len(self.runs()) if self.shard else len(runs),
                shard=self.shard,
                completed=set(completed),
                wall_s=base_wall,
                retried=base_retried,
            )
            stats.resumed = len(completed)
            manifest.save()
            checkpointed = time.perf_counter()
            heartbeat = HeartbeatStream(heartbeat_path(store.path))
            heartbeat.emit(
                {
                    "event": "start",
                    "sweep_fingerprint": sweep_fp,
                    "total": len(runs),
                    "resumed": stats.resumed,
                    "jobs": self.jobs,
                    "shard": list(self.shard) if self.shard else None,
                    "cache": cache is not None,
                    "telemetry": telemetry.enabled(),
                }
            )

        pending = [r for r in runs if r.index not in completed]

        # Imported here because the executor is built on this module's unit
        # of work (SweepRun, pool_execute, stamp_record).
        from repro.scenarios.executor import RunExecutor

        executor = RunExecutor(self.jobs, self.max_retries, cache)
        records: List[Dict[str, Any]] = []
        committed_now = 0
        stopped_early = False
        appender_cm = store.appender() if store is not None else None
        append = appender_cm.__enter__() if appender_cm is not None else None
        try:
            # The executor runs at most its window ahead of this loop, so
            # memory stays O(window) however long the sweep is.
            for run, outcome in zip(pending, executor.map(pending)):
                record = outcome.stamp(run)
                if outcome.source == "executed":
                    stats.retried += outcome.attempts - 1
                if outcome.error is not None:
                    stats.failed += 1
                    status = "failed"
                    if manifest is not None:
                        manifest.failed[run.index] = outcome.error
                elif outcome.source == "executed":
                    stats.executed += 1
                    status = "executed"
                else:  # cached, or sharing the simulation of an earlier run
                    stats.cached += 1
                    status = "cached"
                stats.busy_s += outcome.wall
                if collect:
                    records.append(record)
                if append is not None:
                    append(record)
                if manifest is not None:
                    manifest.completed.add(run.index)
                    now = time.perf_counter()
                    if now - checkpointed >= CHECKPOINT_S:
                        manifest.wall_s = base_wall + (now - started)
                        manifest.retried = base_retried + stats.retried
                        manifest.save()
                        checkpointed = now
                committed_now += 1
                if heartbeat is not None:
                    heartbeat.emit(
                        {
                            "event": "run",
                            "index": run.index,
                            "seed": run.seed,
                            "status": status,
                            "wall_s": round(outcome.wall, 6),
                            "completed": len(manifest.completed),
                            "total": len(runs),
                            "executed": stats.executed,
                            "cached": stats.cached,
                            "failed": stats.failed,
                            "retried": stats.retried,
                        }
                    )
                if progress is not None:
                    progress(stats.resumed + committed_now, len(runs), record)
                if stop_after is not None and committed_now >= stop_after:
                    stopped_early = True
                    break
        finally:
            if appender_cm is not None:
                appender_cm.__exit__(None, None, None)
            executor.close()
            stats.pool_rebuilds = executor.pool_rebuilds
            stats.wall_s = time.perf_counter() - started
            if manifest is not None:
                manifest.wall_s = base_wall + stats.wall_s
                manifest.retried = base_retried + stats.retried
                manifest.save()
            if heartbeat is not None:
                heartbeat.emit(
                    {
                        "event": "stop",
                        "completed": len(manifest.completed),
                        "total": len(runs),
                        "stopped_early": stopped_early,
                        "executed": stats.executed,
                        "cached": stats.cached,
                        "failed": stats.failed,
                        "retried": stats.retried,
                        "pool_rebuilds": stats.pool_rebuilds,
                        "wall_s": round(stats.wall_s, 3),
                        "busy_s": round(stats.busy_s, 3),
                        "utilisation": round(stats.utilisation(self.jobs), 4),
                    }
                )
                heartbeat.close()

        if collect and store is not None and (stats.resumed or stopped_early):
            # The caller wants the complete picture in run order, part of
            # which predates (or outlives) this invocation: read it back.
            return [r for r in store.iter_records(strict=False)]
        return records


# ---------------------------------------------------------------- compaction


def compact_stores(
    out: str, shard_paths: Sequence[str], strict_manifests: bool = True
) -> int:
    """Merge sweep shard stores into one sorted, deduplicated store.

    Records are ordered by global run index (then seed), so compacting the
    shards of one sweep reproduces the byte-identical store an unsharded
    run would have written.  Duplicates (overlapping shards, a shard run
    twice) are dropped by fingerprint; where both a failure entry and a
    successful record exist for one index, the success wins.

    When every shard has a manifest agreeing on the sweep fingerprint,
    a merged manifest is written next to ``out`` (union of completed
    indices over the full sweep); with ``strict_manifests`` a fingerprint
    disagreement raises instead of silently merging unrelated sweeps.

    Returns the number of records written.
    """
    best: Dict[int, Dict[str, Any]] = {}
    order: Dict[int, Tuple[int, int]] = {}
    extras: List[Dict[str, Any]] = []
    for path in shard_paths:
        for record in ResultStore(path).iter_records(strict=False):
            run_info = record.get("run")
            if not isinstance(run_info, dict) or "index" not in run_info:
                extras.append(record)  # not sweep provenance; keep at the end
                continue
            index = run_info["index"]
            current = best.get(index)
            if current is None or (current.get("failed") and not record.get("failed")):
                best[index] = record
                order[index] = (index, run_info.get("seed", 0))

    manifests = [SweepManifest.load(manifest_path(p)) for p in shard_paths]
    fingerprints = {m.sweep_fingerprint for m in manifests if m is not None}
    if strict_manifests and len(fingerprints) > 1:
        raise ValueError(
            f"shards disagree on the sweep fingerprint ({sorted(fingerprints)}); "
            "refusing to merge records of different sweeps"
        )

    merged = [best[i] for i in sorted(best)] + extras
    count = ResultStore(out).rewrite(merged)

    if len(fingerprints) == 1 and all(m is not None for m in manifests):
        sweep_total = max(m.sweep_total for m in manifests)  # type: ignore[union-attr]
        combined = SweepManifest(
            path=manifest_path(out),
            sweep_fingerprint=next(iter(fingerprints)),
            total=sweep_total,
            sweep_total=sweep_total,
            shard=None,
            completed=set(best),
            failed={
                k: v for m in manifests for k, v in m.failed.items()  # type: ignore[union-attr]
            },
            wall_s=sum(m.wall_s for m in manifests),  # type: ignore[union-attr]
            retried=sum(m.retried for m in manifests),  # type: ignore[union-attr]
        )
        combined.save()
    return count


def shard_skew(shard_paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Per-shard wall/retry/completion figures for fleet-skew reporting.

    Reads each shard's manifest (shards without one are skipped) and
    returns one row per shard; ``--compact`` renders these as the
    fleet-level skew summary.
    """
    rows: List[Dict[str, Any]] = []
    for path in shard_paths:
        manifest = SweepManifest.load(manifest_path(path))
        if manifest is None:
            continue
        rows.append(
            {
                "path": path,
                "shard": list(manifest.shard) if manifest.shard else None,
                "completed": len(manifest.completed),
                "total": manifest.total,
                "failed": len(manifest.failed),
                "retried": manifest.retried,
                "wall_s": manifest.wall_s,
            }
        )
    return rows
