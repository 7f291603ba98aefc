"""Telemetry subsystem: no-op when disabled, deterministic when enabled."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import telemetry
from repro.cli import main
from repro.scenarios.build import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.store import ResultStore, encode_record
from repro.scenarios.sweep import (
    SweepManifest,
    SweepRunner,
    compact_stores,
    heartbeat_path,
    manifest_path,
    run_env,
    shard_skew,
)
from repro.simulator.engine import Simulator
from repro.simulator.queues import DropTailQueue, REDQueue
from repro.telemetry.core import Telemetry, format_key, merge_snapshots, split_key
from repro.telemetry.export import snapshot_from_source, to_prometheus

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _spec(duration=3.0, **params):
    return get_scenario("fairness").spec(duration=duration, **params)


# ------------------------------------------------------------ disabled state


def test_disabled_by_default():
    assert not telemetry.enabled()
    assert telemetry.active() is None
    assert Simulator(seed=1).telemetry is None
    with telemetry.run_scope() as tel:
        assert tel is None
    assert telemetry.take_last_run() is None


def test_forced_restores_prior_state():
    with telemetry.forced(True):
        assert telemetry.enabled()
        with telemetry.forced(False):
            assert not telemetry.enabled()
        assert telemetry.enabled()
    assert not telemetry.enabled()


def test_records_byte_identical_with_telemetry_on():
    """Instrumentation must only read: identical records either way."""
    spec = _spec()
    off = run_scenario(spec, seed=3)
    with telemetry.forced(True):
        on = run_scenario(spec, seed=3)
    assert encode_record(off) == encode_record(on)


# ------------------------------------------------------------------- core


def test_format_and_split_key_roundtrip():
    key = format_key("engine.events", {"category": "node.receive", "a": 1})
    assert key == "engine.events{a=1,category=node.receive}"
    name, labels = split_key(key)
    assert name == "engine.events"
    assert labels == {"a": "1", "category": "node.receive"}
    assert split_key("plain") == ("plain", {})


def test_histogram_buckets_and_snapshot():
    tel = Telemetry()
    for value in (1, 2, 3, 100, 200_000):
        tel.observe("batch", value)
    snap = tel.snapshot()
    hist = snap["histograms"]["batch"]
    assert hist["count"] == 5
    assert hist["min"] == 1 and hist["max"] == 200_000
    assert hist["buckets"]["1"] == 1  # value 1
    assert hist["buckets"]["2"] == 1  # value 2
    assert hist["buckets"]["4"] == 1  # value 3
    assert hist["buckets"]["128"] == 1  # value 100
    assert hist["buckets"]["+Inf"] == 1  # value 200k overflows 65536


def test_merge_snapshots_semantics():
    a = Telemetry()
    a.inc("runs", 2)
    a.gauge_max("peak", 10)
    a.observe("size", 4)
    a.timing("span", 1.0)
    b = Telemetry()
    b.inc("runs", 3)
    b.gauge_max("peak", 7)
    b.observe("size", 100)
    b.timing("span", 2.5)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"]["runs"] == 5
    assert merged["gauges"]["peak"] == 10  # max wins
    assert merged["histograms"]["size"]["count"] == 2
    assert merged["histograms"]["size"]["max"] == 100
    assert merged["spans"]["span"]["count"] == 2
    assert merged["spans"]["span"]["total_s"] == pytest.approx(3.5)
    assert merged["spans"]["span"]["max_s"] == pytest.approx(2.5)


# ------------------------------------------------------------------ engine


def test_event_categories_sum_to_total():
    """Every popped event is counted, from the heap and from the fan-out lane.

    ``fairness`` has no fan-out; on ``scaling`` most events come from the
    lane, and the probe's numbers are the ones the single-heap loop gave.
    """
    scaling = get_scenario("scaling").spec(num_receivers=8, duration=6.0)
    for spec in (_spec(), scaling):
        with telemetry.forced(True):
            run_scenario(spec, seed=1)
        snap = telemetry.take_last_run()
        counters = snap["counters"]
        by_category = sum(
            count
            for key, count in counters.items()
            if key.startswith("engine.events{")
        )
        assert by_category == counters["engine.events_total"] > 0
        assert "engine.batch_size" in snap["histograms"]
        assert snap["histograms"]["engine.batch_size"]["sum"] == by_category
        assert {"phase.build", "phase.run", "phase.collect"} <= set(snap["spans"])
    # The single-heap loop's numbers: a probe that missed the lane's pops
    # would count 94 events here, and a peak of the heap alone reads 11.
    assert counters["engine.events_total"] == 230
    assert counters["engine.events{category=node.Node.receive}"] == 200
    assert snap["histograms"]["engine.batch_size"]["count"] == 229
    assert snap["gauges"]["engine.heap_peak"] == 18  # heap and lane together


def test_always_on_engine_counters():
    sim = Simulator(seed=1)
    handle = sim.schedule(0.1, lambda: None)
    assert sim.reschedule_fast_hits == 0
    sim.run()
    sim.reschedule(handle, 0.1, lambda: None)
    assert sim.reschedule_fast_hits == 1
    assert sim.compactions == 0


def test_queue_peak_tracking():
    class Pkt:
        size_bytes = 1000

    for queue in (DropTailQueue(limit=5), REDQueue(limit=5, min_th=100.0, max_th=200.0)):
        assert queue.peak == 0
        for _ in range(3):
            queue.enqueue(Pkt(), now=0.0)
        queue.dequeue()
        queue.enqueue(Pkt(), now=0.0)
        assert queue.peak == 3


# ---------------------------------------------------------------- provenance


def test_run_env_keys_and_record_stamp(tmp_path):
    env = run_env()
    assert set(env) == {"cpus", "machine", "numpy", "platform", "python"}
    out = tmp_path / "one.jsonl"
    runner = SweepRunner("fairness", params={"duration": 3.0}, replications=1)
    records = runner.execute(store=ResultStore(str(out)))
    assert records[0]["run"]["env"] == env
    # Telemetry absent by default.
    assert "telemetry" not in records[0]["run"]


def test_exact_run_stamps_numpy_version_without_importing_numpy():
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['run', 'fairness', '--set', 'duration=3.0', '--set', 'num_tcp=1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'an exact-engine run imported numpy'\n"
        "from repro.scenarios.sweep import run_env\n"
        "import numpy\n"
        "assert run_env()['numpy'] == numpy.__version__\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        check=True,
    )


# --------------------------------------------------------------------- sweep


def test_sweep_serial_vs_parallel_identical_with_telemetry(tmp_path):
    def store_bytes(name, jobs):
        path = tmp_path / name
        SweepRunner(
            "fairness", grid={"duration": [3.0, 4.0]}, replications=2, jobs=jobs
        ).execute(store=ResultStore(str(path)), collect=False)
        return path.read_bytes()

    with telemetry.forced(True):
        serial = store_bytes("serial.jsonl", jobs=1)
        parallel = store_bytes("parallel.jsonl", jobs=3)
    assert serial == parallel
    record = json.loads(serial.splitlines()[0])
    section = record["run"]["telemetry"]
    assert set(section) <= {"counters", "gauges", "histograms"}  # no wall spans
    assert section["counters"]["engine.events_total"] > 0


def test_heartbeat_matches_manifest_on_interrupt_and_resume(tmp_path):
    out = tmp_path / "sweep.jsonl"

    def read_heartbeat():
        return [
            json.loads(line)
            for line in open(heartbeat_path(str(out)), encoding="utf-8")
        ]

    def runner():
        return SweepRunner("fairness", grid={"duration": [3.0, 4.0, 5.0]})

    runner().execute(store=ResultStore(str(out)), stop_after=2, collect=False)
    manifest = SweepManifest.load(manifest_path(str(out)))
    entries = read_heartbeat()
    assert entries[0]["event"] == "start"
    assert entries[-1]["event"] == "stop"
    assert entries[-1]["stopped_early"] is True
    assert entries[-1]["completed"] == len(manifest.completed) == 2
    assert manifest.wall_s > 0

    runner().execute(store=ResultStore(str(out)), collect=False)
    manifest2 = SweepManifest.load(manifest_path(str(out)))
    entries = read_heartbeat()
    assert entries[-1]["event"] == "stop"
    assert entries[-1]["completed"] == len(manifest2.completed) == 3
    assert entries[-1]["stopped_early"] is False
    # Per-run entries carry status and wall time.
    run_entries = [e for e in entries if e["event"] == "run"]
    assert len(run_entries) == 3
    assert all(e["status"] == "executed" and e["wall_s"] > 0 for e in run_entries)
    # Wall/retry accounting accumulates across invocations.
    assert manifest2.wall_s > manifest.wall_s
    assert manifest2.retried == 0


def test_manifest_wall_retry_and_shard_skew(tmp_path):
    paths = []
    for shard in range(2):
        path = tmp_path / f"shard{shard}.jsonl"
        SweepRunner(
            "fairness",
            grid={"duration": [3.0, 4.0]},
            replications=2,
            shard=(shard, 2),
        ).execute(store=ResultStore(str(path)), collect=False)
        paths.append(str(path))
    rows = shard_skew(paths)
    assert len(rows) == 2
    assert all(row["wall_s"] > 0 and row["completed"] == 2 for row in rows)
    merged = tmp_path / "merged.jsonl"
    count = compact_stores(str(merged), paths)
    assert count == 4
    combined = SweepManifest.load(manifest_path(str(merged)))
    assert combined.wall_s == pytest.approx(sum(r["wall_s"] for r in rows))
    assert combined.retried == 0


def test_sweep_cli_stdout_stays_clean(tmp_path, capsys):
    """All sweep progress goes to stderr; stdout stays machine-parseable."""
    out = tmp_path / "cli.jsonl"
    code = main(
        ["sweep", "fairness", "--reps", "1", "--set", "duration=3.0", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert f"heartbeat: {heartbeat_path(str(out))}" in captured.err


def test_sweep_cli_fresh_removes_heartbeat(tmp_path):
    out = tmp_path / "cli.jsonl"
    args = ["sweep", "fairness", "--reps", "1", "--set", "duration=3.0",
            "--out", str(out), "--quiet"]
    assert main(args) == 0
    assert os.path.exists(heartbeat_path(str(out)))
    assert main(args + ["--fresh"]) == 0
    # A fresh run starts a new stream: exactly one start/run/stop triple.
    entries = [
        json.loads(line) for line in open(heartbeat_path(str(out)), encoding="utf-8")
    ]
    assert [e["event"] for e in entries] == ["start", "run", "stop"]


# ------------------------------------------------------------------- export


def test_prometheus_export_format():
    tel = Telemetry()
    tel.inc("engine.events", 7, category="node.receive")
    tel.gauge_max("queue.peak", 50)
    tel.observe("engine.batch_size", 3)
    tel.timing("phase.run", 1.25)
    text = to_prometheus(tel.snapshot())
    assert "# TYPE repro_engine_events_total counter" in text
    assert 'repro_engine_events_total{category="node.receive"} 7' in text
    assert "# TYPE repro_queue_peak gauge" in text
    assert "repro_queue_peak 50" in text
    assert "# TYPE repro_engine_batch_size histogram" in text
    assert 'repro_engine_batch_size_bucket{le="4"} 1' in text
    assert 'repro_engine_batch_size_bucket{le="+Inf"} 1' in text
    assert "repro_engine_batch_size_count 1" in text
    assert "repro_phase_run_seconds_sum 1.25" in text
    assert text.endswith("\n")


def test_snapshot_from_store_merges_runs(tmp_path):
    out = tmp_path / "sweep.jsonl"
    with telemetry.forced(True):
        SweepRunner("fairness", grid={"duration": [3.0, 4.0]}).execute(
            store=ResultStore(str(out)), collect=False
        )
    merged = snapshot_from_source(str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    per_run = [r["run"]["telemetry"]["counters"]["engine.events_total"] for r in records]
    assert merged["counters"]["engine.events_total"] == sum(per_run)


# ---------------------------------------------------------------------- CLI


def test_profile_cli_smoke(tmp_path, capsys):
    snap_path = tmp_path / "snap.json"
    code = main(
        ["profile", "fairness", "--quick", "--set", "duration=3.0",
         "--json", str(snap_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "profile: fairness" in captured.out
    assert "events by category" in captured.out
    assert "phase" in captured.out
    snap = json.loads(snap_path.read_text())
    total = sum(
        v for k, v in snap["counters"].items() if k.startswith("engine.events{")
    )
    assert total == snap["counters"]["engine.events_total"]
    # Profiling must not leave telemetry enabled behind.
    assert not telemetry.enabled()


def test_profile_cli_cprofile(tmp_path, capsys):
    pstats_path = tmp_path / "prof.pstats"
    code = main(
        ["profile", "fairness", "--quick", "--set", "duration=3.0",
         "--cprofile", str(pstats_path), "--top", "5"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert pstats_path.exists()
    assert "cumulative" in captured.out


def test_telemetry_cli_json_and_prom(tmp_path, capsys):
    snap_path = tmp_path / "snap.json"
    assert main(
        ["profile", "fairness", "--quick", "--set", "duration=3.0",
         "--json", str(snap_path)]
    ) == 0
    capsys.readouterr()
    assert main(["telemetry", str(snap_path)]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert "counters" in as_json
    assert main(["telemetry", str(snap_path), "--format", "prom"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE repro_engine_events_total counter" in prom


def test_run_cli_telemetry_flag(tmp_path, capsys):
    tel_out = tmp_path / "tel.json"
    code = main(
        ["run", "fairness", "--set", "duration=3.0", "--json",
         "--telemetry", "--telemetry-out", str(tel_out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    record = json.loads(captured.out)
    assert "telemetry" in record["run"]
    assert "env" in record["run"]
    assert "spans" not in record["run"]["telemetry"]
    full = json.loads(tel_out.read_text())
    assert "spans" in full
    assert not telemetry.enabled()


# ------------------------------------------------------------------- cohort


def test_cohort_engine_telemetry_counters():
    pytest.importorskip("numpy")
    spec = get_scenario("scaling").spec(duration=5.0, num_receivers=500)
    spec = spec.with_overrides(**{"engine.kind": "cohort"})
    off = run_scenario(spec, seed=2)
    with telemetry.forced(True):
        on = run_scenario(spec, seed=2)
    snap = telemetry.take_last_run()
    assert encode_record(off) == encode_record(on)
    counters = snap["counters"]
    assert counters["cohort.steps"] > 0
    assert snap["gauges"]["cohort.receivers"] > 0
    assert "cohort.step" in snap["spans"]
