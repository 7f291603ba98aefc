"""Tests for the performance benchmark harness and related guarantees."""

import json

import pytest

from repro import bench
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Node
from repro.simulator.queues import REDQueue


def test_engine_churn_workload_is_deterministic():
    a = bench.run_workload("engine_churn", quick=True)
    b = bench.run_workload("engine_churn", quick=True)
    assert a["events"] == b["events"] > 0
    assert a["events_per_sec"] > 0
    assert a["peak_rss_kb"] > 0


def test_write_result_and_baseline_roundtrip(tmp_path):
    result = bench.run_workload("engine_churn", quick=True)
    path = bench.write_result(result, str(tmp_path))
    assert path.endswith("BENCH_engine_churn.json")
    loaded = bench.load_baseline(str(tmp_path), "engine_churn")
    assert loaded == json.load(open(path))


def test_compare_to_baseline_flags_regression():
    result = {"name": "x", "events": 100, "wall_s": 1.0}
    baseline = {"name": "x", "events": 100, "wall_s": 0.7}
    ok, message = bench.compare_to_baseline(result, baseline, threshold=0.25)
    assert not ok and "REGRESSION" in message
    ok, _message = bench.compare_to_baseline(result, baseline, threshold=0.5)
    assert ok


def test_compare_to_baseline_gates_wall_time_not_event_rate():
    """Halving the events of a workload while cutting its wall time is a
    speed-up; the old events/s gate called it a 33% regression."""
    baseline = {"name": "x", "events": 1000, "link_packets": 500, "wall_s": 1.0,
                "events_per_sec": 1000.0}
    result = {"name": "x", "events": 500, "link_packets": 500, "wall_s": 0.75,
              "events_per_sec": 666.7}
    ok, message = bench.compare_to_baseline(result, baseline)
    assert ok and "event count changed 1000 -> 500" in message
    assert "link_packets" not in message  # same traffic: wall times compare
    slower = dict(result, wall_s=1.5, link_packets=501)
    ok, message = bench.compare_to_baseline(slower, baseline)
    assert not ok and "counter link_packets changed 500 -> 501" in message


def test_compare_to_baseline_notes_event_count_drift():
    result = {"name": "x", "events": 101, "wall_s": 1.0}
    baseline = {"name": "x", "events": 100, "wall_s": 1.0}
    ok, message = bench.compare_to_baseline(result, baseline)
    assert ok and "event count changed" in message


def test_scenario_workloads_record_link_packets():
    result = bench.run_workload("dumbbell_fairness", quick=True)
    assert result["link_packets"] > 0
    assert bench.run_workload("engine_churn", quick=True)["link_packets"] == 0


def test_run_bench_check_fails_without_baseline(tmp_path):
    results, failures = bench.run_bench(
        names=["engine_churn"],
        quick=True,
        out_dir=str(tmp_path / "out"),
        baseline_dir=str(tmp_path / "missing"),
        check=True,
        echo=lambda line: None,
    )
    assert len(results) == 1
    assert failures and "no committed baseline" in failures[0]


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        bench.run_workload("nope")


def test_red_queue_without_rng_raises_clear_error():
    from repro.simulator.packet import Packet

    q = REDQueue(limit=10, min_th=0.5, max_th=1.0)
    # Drive the average over min_th (keep the queue non-full by dequeuing)
    # so a probabilistic drop decision is eventually needed.
    for seq in range(5000):
        try:
            q.enqueue(Packet(src="a", dst="b", flow_id="f", size=100, seq=seq), now=seq * 0.001)
        except RuntimeError as exc:
            assert "bind_rng" in str(exc)
            break
        if len(q) >= 5:
            q.dequeue()
    else:
        pytest.fail("REDQueue never hit the probabilistic path without an RNG")


def test_link_binds_rng_to_red_queue_automatically():
    sim = Simulator(seed=1)
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, a, b, bandwidth=1e6, delay=0.001, queue=REDQueue(limit=10))
    assert link.queue._rng is sim.rng


def test_sweep_resume_workload_warm_speedup():
    """ISSUE acceptance: the warm cached re-run must simulate nothing and be
    at least 5x faster than the cold pass."""
    result = bench.run_workload("sweep_resume", quick=True)
    extras = result["extras"]
    assert extras["cached_runs"] == 3
    assert extras["warm_speedup"] >= 5
    assert extras["warm_s"] < extras["cold_s"]
