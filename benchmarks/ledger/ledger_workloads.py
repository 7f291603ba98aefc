"""The seven workloads of the ledger, each run inside one fresh child process.

A workload object sets itself up (imports, work files, daemon), measures for
the requested number of seconds and reports raw samples; the parent turns
them into the named metrics.  The program is only ever reached through its
public calls (``get_scenario().spec``, ``get_engine().build``, ``built.run``
/ ``collect``, ``encode_record``, ``fingerprint_spec``, ``SweepRunner``,
``ResultStore`` / ``ResultCache``, ``run_report``, ``ReproService`` /
``ServiceClient``), imported inside ``setup`` so that set-up time is theirs.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing
import os
import platform
import random
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import ledger_core as core
from ledger_trace import Mark, Sampler, Spans

clock = time.perf_counter

#: After each cold op a sim workload runs cache-warm ops until they have taken
#: this share of the time its cold ops took, at most this many in a row.
WARM_SHARE = 0.3
WARM_PER_COLD = 20


def cpu_seconds(*who: int) -> float:
    """User + system CPU seconds; by default this process and its reaped children."""
    total = 0.0
    for which in who or (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(which)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def reap_children(timeout: float = 30.0) -> None:
    """Wait until pool workers have exited, so their CPU time is accounted."""
    deadline = clock() + timeout
    while multiprocessing.active_children() and clock() < deadline:
        time.sleep(0.001)


def mark_seconds(marks: List[Mark], name: str) -> float:
    return sum(end - start for mark, start, end in marks if mark == name)


def median_mark(ops: List[Dict[str, Any]], name: str) -> float:
    return core.median([mark_seconds(op["marks"], name) for op in ops])


class Run:
    """State shared by every workload: samples, layer values, spans."""

    name = ""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops: List[Dict[str, Any]] = []
        self.warm: List[Dict[str, Any]] = []
        self.layers: Dict[str, float] = {}
        self.first_op_s = 0.0
        self.rss_mb: Optional[float] = None
        self.digest = ""
        self.epoch = time.time() - clock()  # perf_counter -> wall-clock offset
        self.spans = Spans(self.name, clock()) if trace else None
        self.sampler = Sampler(os.path.join(core.SOURCE_DIR, "repro"), core.layer_of)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    # ------------------------------------------------------------- helpers

    def record_op(
        self,
        into: List[Dict[str, Any]],
        wall: float,
        cpu: float,
        marks: List[Mark],
        error: Optional[str],
        scale: float = 1.0,
        traced: bool = False,
    ) -> Dict[str, Any]:
        op = {"wall": wall, "cpu": cpu, "scale": scale, "error": error,
              "marks": marks, "traced": traced}
        into.append(op)
        if error:
            print(f"[{self.name}] operation failed: {error}", file=sys.stderr)
        if traced and self.spans is not None:
            self.spans.add_op(f"op[{len(into) - 1}]", marks)
        return op

    def note_rss(self) -> None:
        """Peak memory after a fixed amount of work (first call wins).

        How many operations fit a run depends on the machine, and the peak
        creeps up with them; reading it after the first round of operations
        makes it a property of the program, not of the run's length.
        """
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()

    def sampler_layers(self, span_wall: float) -> None:
        """``<layer>.share`` of the samples and ``.self_s`` of the sampled span."""
        for layer, share in self.sampler.shares().items():
            self.layers[layer + ".share"] = share
            self.layers[layer + ".self_s"] = share * span_wall

    def scaled_walls(self, traced: bool) -> List[float]:
        """Scaled wall times of the good traced, or untraced, cold ops."""
        return [op["wall"] * op["scale"] for op in self.ops
                if op["traced"] == traced and not op["error"]]

    def overhead(self) -> float:
        """Median traced / median untraced op time (scaled, so seeds compare)."""
        traced, plain = self.scaled_walls(True), self.scaled_walls(False)
        return core.median(traced) / core.median(plain) if traced and plain else 0.0

    def result(self, setup_s: float) -> Dict[str, Any]:
        strip = lambda ops: [{k: v for k, v in op.items() if k != "marks"} for op in ops]
        self.layers["first_op_s"] = self.first_op_s
        self.layers["ops.timed"] = len(self.ops)
        self.layers["ops.warm_timed"] = len(self.warm)
        if self.trace:
            self.layers["trace.overhead"] = self.overhead()
        spans = self.spans.close(clock()) if self.spans is not None else []
        for row in spans:  # perf_counter -> epoch seconds, comparable across processes
            row["start"] += self.epoch
            row["end"] += self.epoch
        return {
            "workload": self.name,
            "seed": self.seed,
            "setup_s": setup_s,
            "peak_rss_mb": self.rss_mb if self.rss_mb is not None else peak_rss_mb(),
            "ops": strip(self.ops),
            "warm": strip(self.warm),
            "layers": self.layers,
            "stats_digest": self.digest,
            "spans": spans,
        }


# ---------------------------------------------------------------- simulation


class SimRun(Run):
    """One registry scenario built, run, collected and encoded per operation.

    Operation ``i`` simulates sub-seed ``seed * 1000 + i``, so a run samples
    several sample paths of the protocol; the warm-up repeats operation 0 and
    must reproduce its digest.  The warm operation is the same request
    answered from a ``ResultCache`` filled by the warm-up.
    """

    scenario = ""
    params: Dict[str, Any] = {}
    overrides: Dict[str, Any] = {}

    def setup(self) -> None:
        from repro.engines import get_engine
        from repro.scenarios import (
            ResultCache, encode_record, fingerprint_spec, get_scenario,
        )

        self.get_scenario = get_scenario
        self.get_engine = get_engine
        self.fingerprint_spec = fingerprint_spec
        self.encode_record = encode_record
        self.cache = ResultCache("cache.jsonl")
        self.reference = core.REFERENCE_LINK_PACKETS.get(self.name)

    def sub_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def resolve(self, marks: List[Mark]) -> Any:
        start = clock()
        spec = self.get_scenario(self.scenario).spec(**self.params)
        if self.overrides:
            spec = spec.with_overrides(**self.overrides)
        marks.append(("scenarios.resolve", start, clock()))
        return spec

    def simulate(self, index: int, sample: bool = False) -> Dict[str, Any]:
        """One cold operation; returns its samples, record and exact counts."""
        seed = self.sub_seed(index)
        marks: List[Mark] = []
        cpu0, start = cpu_seconds(), clock()
        spec = self.resolve(marks)
        t = clock()
        built = self.get_engine(spec.engine.kind).build(spec, seed=seed)
        marks.append(("engines.build", t, clock()))
        t = clock()
        with self.sampler if sample else contextlib.nullcontext():
            built.run()
        marks.append(("simulator.run", t, clock()))
        t = clock()
        record = built.collect()
        marks.append(("scenarios.collect", t, clock()))
        t = clock()
        line = self.encode_record(record)
        end = clock()
        marks.append(("scenarios.encode", t, end))
        links = built.network.links
        counts = {
            "simulator.events": built.sim.events_processed,
            "simulator.link_packets": sum(link.packets_sent for link in links),
            "simulator.queue_drops": sum(link.queue_drops for link in links),
            "simulator.channel_drops": sum(
                sum(link.drops_by_cause.values()) for link in links
            ),
            "simulator.queue_peak": max((link.queue_peak for link in links), default=0),
            "simulator.compactions": built.sim.compactions,
            "simulator.reschedule_fast_hits": built.sim.reschedule_fast_hits,
        }
        wall = end - start
        run_s = mark_seconds(marks, "simulator.run")
        packets = counts["simulator.link_packets"]
        return {
            "wall": wall,
            "cpu": cpu_seconds() - cpu0,
            "marks": marks,
            "scale": self.scale(wall, run_s, packets),
            "run_s": run_s,
            "events": counts["simulator.events"],
            "packets": packets,
            "spec": spec,
            "record": record,
            "line": line,
            "counts": counts,
            "error": core.sanity_error(record),
        }

    def run_scale(self, packets: int) -> float:
        """Factor taking a run phase to the workload's reference link-packet count."""
        return self.reference / packets if self.reference and packets else 1.0

    def scale(self, wall: float, run_s: float, packets: int) -> float:
        """Factor taking an op's times to the workload's reference size.

        Only the run phase grows with the simulated traffic, so only it is
        scaled; resolve, build, collect and encode count as measured.
        """
        if wall <= 0:
            return 1.0
        return (wall - run_s + run_s * self.run_scale(packets)) / wall

    def timed(self, index: int, sample: bool = False) -> Dict[str, Any]:
        """Run cold operation ``index`` and file it under ``self.ops``."""
        # Whether the cyclic collector has freed the previous op's network by
        # the time this one is built depends on allocation counts, hence on the
        # seed (cohort_100k peaked at 122 or 130 MB); collect between ops instead.
        gc.collect()
        try:
            sim = self.simulate(index, sample)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.record_op(self.ops, 0.0, 0.0, [], f"{type(exc).__name__}: {exc}", traced=sample)
            return {}
        error = sim["error"]
        if index == 0 and not error and core.stats_digest(sim["record"]) != self.digest:
            error = "stats_digest differs from the warm-up of the same seed"
        op = self.record_op(self.ops, sim["wall"], sim["cpu"], sim["marks"], error, sim["scale"], sample)
        op.update({key: sim[key] for key in ("run_s", "events", "packets")})
        return sim

    def warm_op(self) -> None:
        """The request of operation 0 answered from the fingerprint cache."""
        marks: List[Mark] = []
        cpu0, start = cpu_seconds(), clock()
        error = None
        try:
            spec = self.resolve(marks)
            t = clock()
            fingerprint = self.fingerprint_spec(spec, self.sub_seed(0))
            marks.append(("scenarios.fingerprint", t, clock()))
            t = clock()
            record = self.cache.get(fingerprint)
            marks.append(("cache.get", t, clock()))
            t = clock()
            line = self.encode_record(record) if record is not None else None
            marks.append(("scenarios.encode", t, clock()))
            if line != self.first_line:
                error = "cached record differs from the simulated one"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        self.record_op(self.warm, clock() - start, cpu_seconds() - cpu0, marks, error)

    def warm_up(self) -> Dict[str, Any]:
        first = self.simulate(0)
        self.first_op_s = first["wall"]
        self.first_line = first["line"]
        self.digest = core.stats_digest(first["record"])
        self.cache.put(self.fingerprint_spec(first["spec"], self.sub_seed(0)), first["record"])
        return first

    def measure(self) -> None:
        first = self.warm_up()
        deadline = clock() + self.seconds
        index = 0
        cold_s = warm_s = 0.0
        # Cold and warm ops alternate over the whole window: the machine's
        # speed drifts over seconds, and both medians should see the same drift.
        while index < 3 or clock() < deadline:
            if self.trace:  # the same sub-seed untraced, then traced
                self.timed(index)
            self.timed(index, sample=self.trace)
            index += 1
            cold_s += self.ops[-1]["wall"]
            # Before the warm ops: whether their buffers fit freed memory or
            # grow the heap is the allocator's mood (6 MB either way at 100k).
            self.note_rss()
            for _ in range(WARM_PER_COLD):
                if warm_s >= WARM_SHARE * cold_s:
                    break
                self.warm_op()
                warm_s += self.warm[-1]["wall"]
        while len(self.warm) < 3:
            self.warm_op()
        self.phase_layers(first)

    def phase_layers(self, first: Dict[str, Any]) -> None:
        plain = [op for op in self.ops if not op["traced"] and not op["error"]]
        traced = [op for op in self.ops if op["traced"] and not op["error"]]
        for mark in ("resolve", "collect", "encode"):
            self.layers[f"scenarios.{mark}_s"] = median_mark(plain or traced, f"scenarios.{mark}")
        self.layers["scenarios.fingerprint_s"] = median_mark(self.warm, "scenarios.fingerprint")
        self.layers["engines.build_s"] = median_mark(plain or traced, "engines.build")
        self.layers["scenarios.record_bytes"] = len(first["line"])
        self.layers.update(first["counts"])  # exact: sub-seed 0 repeats bit for bit
        ops = [op for op in plain or traced if op["run_s"] > 0 and op["packets"]]
        scaled_run = lambda op: op["run_s"] * self.run_scale(op["packets"])
        self.layers.update({
            "simulator.run_s": core.median([scaled_run(op) for op in ops]),
            "simulator.events_per_s": core.median([op["events"] / op["run_s"] for op in ops]),
            "simulator.us_per_link_packet": core.median(
                [1e6 * op["run_s"] / op["packets"] for op in ops]
            ),
            "simulator.events_per_link_packet": core.median(
                [op["events"] / op["packets"] for op in ops]
            ),
        })
        if traced:
            self.sampler_layers(core.median([scaled_run(op) for op in traced]))


class FanoutExact(SimRun):
    name = "fanout_exact"
    scenario = "scaling"
    params = {"num_receivers": 200, "duration": 22.0}


class UnicastMix(SimRun):
    name = "unicast_mix"
    scenario = "protocol_mix"
    params = {"duration": 40.0}

    def measure(self) -> None:
        super().measure()
        if self.trace:
            self.telemetry_overhead()

    def telemetry_overhead(self) -> None:
        """Three extra ops with run telemetry enabled, against the untraced median.

        Measured here because per-event probes cost most where the engine's
        share of the run is highest.
        """
        from repro import telemetry

        plain = self.scaled_walls(False)
        enabled = []
        for index in range(3):
            with telemetry.forced(True), telemetry.run_scope():
                sim = self.simulate(index)
            enabled.append(sim["wall"] * sim["scale"])
        if plain:
            self.layers["telemetry.enabled_overhead"] = core.median(enabled) / core.median(plain)


class WirelessLossy(SimRun):
    name = "wireless_lossy"
    scenario = "wireless_last_hop"
    params = {"num_receivers": 200, "duration": 16.0}


class Cohort100k(SimRun):
    name = "cohort_100k"
    scenario = "scaling"
    params = {"num_receivers": 100_000, "duration": 60.0}
    overrides = {"engine.kind": "cohort"}


# --------------------------------------------------------------------- sweep


class SweepPool(Run):
    """Cold and cache-warm ``SweepRunner.execute`` of one 48-unit grid."""

    name = "sweep_pool"
    units = 48
    warm_per_cold = 12
    params = {"duration": 6.0, "num_tcp": 2}

    def setup(self) -> None:
        from repro.scenarios import ResultCache, ResultStore, SweepRunner

        self.SweepRunner = SweepRunner
        self.ResultStore = ResultStore
        self.ResultCache = ResultCache
        os.makedirs("sweep", exist_ok=True)
        self.passes = 0

    def execute(self, cache_path: str, jobs: int, units: Optional[int] = None) -> Dict[str, Any]:
        """One ``execute`` into a fresh store; the caller chooses the cache file."""
        self.passes += 1
        store = self.ResultStore(os.path.join("sweep", f"store{self.passes}.jsonl"))
        runner = self.SweepRunner(
            "fairness", params=dict(self.params), replications=units or self.units,
            base_seed=self.seed, jobs=jobs,
        )
        cpu0, start = cpu_seconds(), clock()
        records = runner.execute(store=store, cache=self.ResultCache(cache_path))
        end = clock()
        reap_children()
        return {
            "wall": end - start,
            "cpu": cpu_seconds() - cpu0,
            "marks": [("sweep.execute", start, end)],
            "records": records,
            "stats": runner.stats,
            "store": store.path,
        }

    @staticmethod
    def comparable(records: List[Dict[str, Any]]) -> List[str]:
        """Canonical records minus ``run.env`` (where, not what, was run)."""
        lines = []
        for record in records:
            run = {k: v for k, v in record.get("run", {}).items() if k != "env"}
            lines.append(core.canonical(dict(record, run=run)))
        return lines

    def cold(self, jobs: int = core.JOBS, traced: bool = False) -> Dict[str, Any]:
        cache_path = os.path.join("sweep", f"cache{self.passes + 1}.jsonl")
        try:
            done = self.execute(cache_path, jobs)
        except Exception as exc:
            self.record_op(self.ops, 0.0, 0.0, [], f"{type(exc).__name__}: {exc}", traced=traced)
            return {}
        done["cache"] = cache_path
        done["comparable"] = self.comparable(done["records"])
        records, stats = done["records"], done["stats"]
        error = next(filter(None, map(core.sanity_error, records)), None)
        if not error and (stats.failed or stats.executed != self.units):
            error = f"{stats.failed} failed, {stats.executed}/{self.units} executed"
        digest = core.combined_digest(core.stats_digest(r) for r in records)
        if not self.digest:
            self.digest = digest
        elif not error and digest != self.digest:
            error = "stats_digest differs from the first pass of the same seed"
        if jobs == core.JOBS:
            self.record_op(self.ops, done["wall"], done["cpu"], done["marks"], error, traced=traced)
        return done

    def warm_op(self, cold: Dict[str, Any]) -> Dict[str, Any]:
        try:
            done = self.execute(cold["cache"], core.JOBS)
        except Exception as exc:
            self.record_op(self.warm, 0.0, 0.0, [], f"{type(exc).__name__}: {exc}")
            return {}
        error = None
        if done["stats"].executed != 0:
            error = f"warm pass simulated {done['stats'].executed} units"
        elif self.comparable(done["records"]) != cold["comparable"]:
            error = "warm records differ from the cold records"
        self.record_op(self.warm, done["wall"], done["cpu"], done["marks"], error)
        return done

    def measure(self) -> None:
        start = clock()
        self.execute(os.path.join("sweep", "warmup-cache.jsonl"), core.JOBS, units=4)
        self.first_op_s = clock() - start
        deadline = clock() + self.seconds
        colds, warms = [], []
        # One round is a cold pass and the warm passes against its cache, so
        # both medians are taken over the whole window.
        while len(self.ops) < 3 or clock() < deadline:
            cold = self.cold(traced=self.trace and len(self.ops) % 2 == 1)
            if cold:
                colds.append(cold)
                warms += filter(None, (self.warm_op(cold) for _ in range(self.warm_per_cold)))
            self.note_rss()
        if not colds:
            return
        if self.trace:
            serial = self.cold(jobs=1)
            if serial:
                self.spans.add_op("serial-pass", serial["marks"])
                self.layers["sweep.serial_wall_s"] = serial["wall"]
                self.layers["sweep.pool_speedup"] = serial["wall"] / core.median(
                    [done["wall"] for done in colds]
                )
            self.replay(colds[0]["records"])
        busy = core.median([done["stats"].busy_s for done in colds])
        wall = core.median([done["wall"] for done in colds])
        self.layers.update({
            "sweep.busy_s": busy,
            "sweep.utilisation": core.median(
                [done["stats"].utilisation(core.JOBS) for done in colds]
            ),
            "sweep.overhead_s": wall - busy / core.JOBS,
            "sweep.executed": colds[0]["stats"].executed,
            "sweep.retried": sum(done["stats"].retried for done in colds),
            "sweep.failed": sum(done["stats"].failed for done in colds),
        })
        if warms:
            self.layers["sweep.cached"] = warms[0]["stats"].cached
            self.layers["sweep.warm_us_per_unit"] = (
                1e6 * core.median([done["wall"] for done in warms]) / self.units
            )

    def replay(self, records: List[Dict[str, Any]]) -> None:
        """Price store append and cache put/get/fingerprint per record."""
        from repro.scenarios import fingerprint_spec, get_scenario

        store = self.ResultStore(os.path.join("sweep", "replay-store.jsonl"))
        cache = self.ResultCache(os.path.join("sweep", "replay-cache.jsonl"))
        spec = get_scenario("fairness").spec(**self.params)
        n = len(records)
        start = clock()
        for record in records:
            store.append(record)
        appended = clock()
        keys = [fingerprint_spec(spec, record["seed"]) for record in records]
        fingerprinted = clock()
        for key, record in zip(keys, records):
            cache.put(key, record)
        put = clock()
        for key in keys:
            cache.get(key)
        got = clock()
        self.spans.add_op("replay", [
            ("store.append", start, appended), ("cache.fingerprint", appended, fingerprinted),
            ("cache.put", fingerprinted, put), ("cache.get", put, got),
        ])
        self.layers.update({
            "store.append_us": 1e6 * (appended - start) / n,
            "store.bytes_per_record": os.path.getsize(store.path) / n,
            "cache.fingerprint_us": 1e6 * (fingerprinted - appended) / n,
            "cache.put_us": 1e6 * (put - fingerprinted) / n,
            "cache.get_us": 1e6 * (got - put) / n,
        })


# ------------------------------------------------------------------- service


class ServeJobs(Run):
    """Two client threads submitting to an in-process daemon with one worker."""

    name = "serve_jobs"
    params = {"duration": 20.0, "num_tcp": 2}
    cold_per_round = 4
    warm_repeats = 10
    service: Any = None

    def setup(self) -> None:
        from repro.service import ReproService, ServiceClient

        self.ServiceClient = ServiceClient
        start = clock()
        # A relative socket path: the checkout's path may exceed AF_UNIX's 108 bytes.
        self.service = ReproService("service-data", uds="ledger.sock", workers=1).start()
        self.layers["service.daemon_start_s"] = clock() - start

    def close(self) -> None:
        if self.service is not None:
            start = clock()
            self.service.shutdown(timeout=60)
            self.layers["service.shutdown_s"] = clock() - start
            self.service = None

    def payload(self, seed: int) -> Dict[str, Any]:
        return {"scenario": "fairness", "seed": seed, "params": dict(self.params)}

    def job(self, client: Any, seed: int) -> Dict[str, Any]:
        """submit -> wait (SSE) -> fetch result, timed from the client side."""
        start = clock()
        job = client.submit(self.payload(seed))
        submitted = clock()
        status = client.wait(job["id"], timeout=120)
        waited = clock()
        record = client.result(job["id"])
        end = clock()
        marks = [
            ("service.submit", start, submitted),
            ("service.wait", submitted, waited),
            ("service.result", waited, end),
        ]
        return {"seed": seed, "wall": end - start, "marks": marks, "status": status, "record": record}

    def phase(self, seeds: List[int], warm: bool) -> Tuple[List[Dict[str, Any]], float, float]:
        """Run ``seeds`` split over two closed-loop clients; (jobs, wall, self CPU)."""
        done: List[Dict[str, Any]] = []
        lock = threading.Lock()

        def client_loop(own: List[int]) -> None:
            client = self.ServiceClient(self.service.endpoint)
            for seed in own:
                try:
                    result = self.job(client, seed)
                    state = result["status"].get("state")
                    if state != "done":
                        result["error"] = f"job ended {state}"
                    elif warm and result["status"].get("sources", {}).get("cached") != 1:
                        result["error"] = "warm job was not answered from the cache"
                    else:
                        result["error"] = core.sanity_error(result["record"])
                except Exception as exc:
                    result = {"seed": seed, "wall": 0.0, "marks": [], "record": None,
                              "error": f"{type(exc).__name__}: {exc}"}
                with lock:
                    done.append(result)

        threads = [
            threading.Thread(target=client_loop, args=(seeds[k::core.JOBS],))
            for k in range(core.JOBS)
        ]
        cpu0, start = cpu_seconds(resource.RUSAGE_SELF), clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return done, clock() - start, cpu_seconds(resource.RUSAGE_SELF) - cpu0

    def measure(self) -> None:
        client = self.ServiceClient(self.service.endpoint)
        self.first_op_s = self.job(client, self.seed + 10_000)["wall"]  # starts the worker
        worker_cpu0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        cold: List[Dict[str, Any]] = []
        warm: List[Dict[str, Any]] = []
        cold_wall = cold_cpu = 0.0
        # A fixed number of rounds, not a deadline: the daemon's counters then
        # repeat exactly.  One round is a batch of new seeds (about 1.3 s here)
        # and the same payloads again, so both medians span the whole run.
        for batch in range(max(1, round(0.75 * self.seconds))):
            seeds = [self.seed + self.cold_per_round * batch + i for i in range(self.cold_per_round)]
            jobs, wall, cpu = self.phase(seeds, warm=False)
            cold += jobs
            cold_wall += wall
            cold_cpu += cpu
            warm += self.phase(seeds * self.warm_repeats, warm=True)[0]
        self.check_against_in_process(cold)
        stats = client.stats()
        coalesced = self.counter(client.metrics(), "service_units_coalesced")
        self.close()  # reaps the worker: only now is its CPU time visible
        worker_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - worker_cpu0
        # The worker only simulates for cold jobs, so all of its CPU is theirs.
        per_cold_cpu = (cold_cpu + worker_cpu) / len(cold)
        # Every second round is the traced one (both clients' jobs, so the two
        # halves queue alike); tracing a job only means keeping its spans.
        for job in sorted(cold, key=lambda j: j["seed"]):
            batch = (job["seed"] - self.seed) // self.cold_per_round
            self.record_op(self.ops, job["wall"], per_cold_cpu, job["marks"],
                           job.get("error"), traced=self.trace and batch % 2 == 1)
        for job in warm:
            self.record_op(self.warm, job["wall"], 0.0, job["marks"], job.get("error"),
                           traced=self.trace)
        self.digest = core.combined_digest(
            core.stats_digest(job["record"]) for job in sorted(cold, key=lambda j: j["seed"])
            if job["record"]
        )
        for phase, jobs in (("cold", cold), ("warm", warm)):
            ok = [job for job in jobs if not job.get("error")]
            for mark in ("submit", "wait", "result"):
                self.layers[f"service.{mark}_ms.p50.{phase}"] = 1e3 * median_mark(ok, f"service.{mark}")
        walls = [1e3 * job["wall"] for job in warm if not job.get("error")]
        self.layers.update({
            # the highest percentile with ten samples beyond it; 0 when too few
            "service.op_ms.p90.warm": (
                core.percentile(walls, 90) if core.supports_percentile(len(walls), 90) else 0
            ),
            "service.samples.warm": len(walls),
            "service.jobs_per_s.cold": len(cold) / cold_wall,
            "service.cache_hits": stats.get("cache_hits", 0),
            "service.cache_misses": stats.get("cache_misses", 0),
            "service.units_coalesced": coalesced,
        })

    def check_against_in_process(self, cold: List[Dict[str, Any]]) -> None:
        """The record fetched for the first seed must equal a local simulation."""
        from repro.engines import get_engine
        from repro.scenarios import get_scenario

        job = next((j for j in cold if j["seed"] == self.seed and not j.get("error")), None)
        if job is None:
            return
        spec = get_scenario("fairness").spec(**self.params)
        built = get_engine(spec.engine.kind).build(spec, seed=self.seed)
        built.run()
        fetched = {k: v for k, v in job["record"].items() if k != "run"}
        if core.canonical(fetched) != core.canonical(built.collect()):
            job["error"] = "fetched record differs from the in-process simulation"

    @staticmethod
    def counter(exposition: str, name: str) -> float:
        """A counter's value from Prometheus text; 0 when it was never touched."""
        for line in exposition.splitlines():
            if not line.startswith("#") and name in line.split(" ")[0]:
                return float(line.rsplit(" ", 1)[1])
        return 0


# -------------------------------------------------------------------- report


class ReportQuick(Run):
    """The quick paper report, cold and from its reusable datasets."""

    name = "report_quick"

    def setup(self) -> None:
        from repro.report import run_report

        self.run_report = run_report
        # The program fixes the simulation seeds of its figures; the ledger's
        # seed decides the order in which they are asked for.
        self.figures = list(core.REPORT_FIGURES)
        random.Random(self.seed).shuffle(self.figures)
        self.dirs = 0

    def report(self, out_dir: str, figures: List[str], reuse: bool, sample: bool = False) -> Dict[str, Any]:
        cpu0, start = cpu_seconds(), clock()
        with self.sampler if sample else contextlib.nullcontext():
            reports, failures = self.run_report(
                figures=figures, quick=True, check=True, out_dir=out_dir, jobs=1,
                reuse=reuse, plots=False, log=lambda _message: None,
            )
        end = clock()
        return {
            "wall": end - start,
            "cpu": cpu_seconds() - cpu0,
            "marks": [("report." + "+".join(figures) if len(figures) < 7 else "report.all", start, end)],
            "failures": failures,
            "digest": core.combined_digest(
                core.canonical(report.to_dict())
                for report in sorted(reports, key=lambda r: r.figure.name)
            ),
        }

    def op(self, into: List[Dict[str, Any]], out_dir: str, reuse: bool) -> Dict[str, Any]:
        try:
            done = self.report(out_dir, self.figures, reuse)
        except Exception as exc:
            self.record_op(into, 0.0, 0.0, [], f"{type(exc).__name__}: {exc}")
            return {}
        error = "; ".join(done["failures"]) or None
        if not self.digest:
            self.digest = done["digest"]
        elif not error and done["digest"] != self.digest:
            error = "figure data differs from the first report"
        self.record_op(into, done["wall"], done["cpu"], done["marks"], error)
        return done

    def fresh_dir(self) -> str:
        self.dirs += 1
        return os.path.join("report", f"out{self.dirs}")

    def measure(self) -> None:
        start = clock()
        self.report(os.path.join("report", "warmup"), ["feedback", "wireless"], reuse=False)
        self.first_op_s = clock() - start
        start = clock()
        # One round is a cold report and a rebuild from its datasets; a third
        # round would overrun the run, so the rounds stop at 3/4 of it.
        while len(self.ops) < 2 or clock() < start + 0.75 * self.seconds:
            cold_dir = self.fresh_dir()
            self.op(self.ops, cold_dir, reuse=False)
            self.op(self.warm, cold_dir, reuse=True)
            self.note_rss()
            if self.trace:
                self.traced_figures()
                break
        while len(self.warm) < 3:
            self.op(self.warm, cold_dir, reuse=True)
        self.layers["report.build_s"] = core.median(
            [op["wall"] for op in self.warm if not op["error"]]
        )
        self.layers["report.sim_runs"] = self.simulations(os.path.join(cold_dir, "data"))
        self.layers["report.checks_failed"] = sum(
            1 for op in self.ops + self.warm if op["error"]
        )
        self.layers["report.bytes_written"] = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _dirs, names in os.walk(cold_dir) for name in names
        )

    @staticmethod
    def simulations(data_dir: str) -> int:
        """Records in the report's datasets (each file starts with a meta line)."""
        total = 0
        for name in os.listdir(data_dir) if os.path.isdir(data_dir) else ():
            with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
                total += max(0, sum(1 for _line in fh) - 1)
        return total

    def traced_figures(self) -> None:
        """One sampled ``run_report(figures=[name])`` per figure, as one traced op."""
        out_dir = self.fresh_dir()
        marks: List[Mark] = []
        cpu = 0.0
        failures: List[str] = []
        try:
            for name in self.figures:
                done = self.report(out_dir, [name], reuse=False, sample=True)
                marks += done["marks"]
                cpu += done["cpu"]
                failures += done["failures"]
                self.layers[f"report.{name}_s"] = done["wall"]
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        wall = sum(end - begin for _name, begin, end in marks)
        self.record_op(self.ops, wall, cpu, marks, "; ".join(failures) or None, traced=True)
        self.sampler_layers(wall)


WORKLOADS: Dict[str, Callable[[int, float, bool], Run]] = {
    cls.name: cls
    for cls in (FanoutExact, UnicastMix, WirelessLossy, Cohort100k, SweepPool, ServeJobs, ReportQuick)
}


def environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "jobs": core.JOBS,
    }


def child_main(args: Any) -> int:
    """Entry of the child interpreter: set up, measure, write the samples."""
    os.chdir(args.work)
    sys.path.insert(0, core.SOURCE_DIR)
    run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    try:
        start = clock()
        run.setup()
        setup_s = time.time() - args.spawned_at
        if run.spans is not None:
            run.spans.add(run.spans.root, "setup", start, clock())
        if not args.setup_only:
            run.measure()
    finally:
        run.close()
    result = run.result(setup_s)
    result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0
