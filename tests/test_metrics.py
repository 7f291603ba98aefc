"""Tests for the metrics subsystem: stats, traces, aggregation, store."""

import json
import math
import warnings

import pytest

from repro.metrics import (
    QueueOccupancyProbe,
    TraceRecorder,
    aggregate_field,
    coefficient_of_variation,
    degradation_curve,
    group_records,
    jain_fairness,
    load_records,
    loss_interval_stats,
    merge_shards,
    scaling_points,
    summarise_trace,
    summary_stats,
    tcp_friendliness_ratio,
    windowed_fairness,
)
from repro.scenarios import ResultStore, get_scenario, run_scenario
from repro.simulator.engine import Simulator
from repro.simulator.monitor import FlowStats, fairness_index


# ------------------------------------------------------------------- stats


def test_jain_fairness_equal_and_unequal():
    assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert 0.0 < jain_fairness([10.0, 1.0, 1.0]) < 1.0
    # Zeros count towards n, dragging the index down.
    assert jain_fairness([10.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)


def test_jain_fairness_degenerate_inputs():
    assert jain_fairness([]) == 0.0
    assert jain_fairness([0.0, 0.0]) == 0.0
    assert jain_fairness([-1.0, -2.0]) == 0.0
    assert jain_fairness([float("nan"), float("inf")]) == 0.0


def test_jain_fairness_tiny_values_do_not_underflow():
    # 1e-200 squared underflows to 0.0 in float64; the naive formula raises
    # ZeroDivisionError on such inputs.
    assert jain_fairness([1e-200, 1e-200]) == pytest.approx(1.0)
    assert jain_fairness([1e300, 1e300]) == pytest.approx(1.0)


def test_fairness_index_alias_matches_metrics():
    values = [3.0, 1.0, 0.0]
    assert fairness_index(values) == pytest.approx(jain_fairness(values))


def test_windowed_fairness():
    series = {"a": [1.0] * 10, "b": [1.0] * 10}
    assert windowed_fairness(series, window_bins=5) == pytest.approx([1.0, 1.0])
    skewed = {"a": [4.0] * 5 + [1.0] * 5, "b": [0.0] * 5 + [1.0] * 5}
    windows = windowed_fairness(skewed, window_bins=5)
    assert windows[0] < windows[1] == pytest.approx(1.0)
    assert windowed_fairness({}, window_bins=3) == []
    with pytest.raises(ValueError):
        windowed_fairness(series, window_bins=0)


def test_coefficient_of_variation():
    assert coefficient_of_variation([]) == 0.0
    assert coefficient_of_variation([0.0, 0.0]) == 0.0
    assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0
    assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)


def test_summary_stats_and_loss_intervals():
    stats = summary_stats([1.0, 2.0, 3.0])
    assert stats["count"] == 3 and stats["mean"] == pytest.approx(2.0)
    empty = summary_stats([float("nan")])
    assert empty["count"] == 0 and empty["mean"] == 0.0
    intervals = loss_interval_stats([10.0, 30.0])
    assert intervals["loss_event_rate"] == pytest.approx(1.0 / 20.0)
    assert loss_interval_stats([])["loss_event_rate"] == 0.0


def test_tcp_friendliness_ratio():
    assert tcp_friendliness_ratio(2.0, 1.0) == pytest.approx(2.0)
    assert tcp_friendliness_ratio(2.0, 0.0) is None


def test_degradation_curve():
    curve = degradation_curve([(8, 50.0), (1, 100.0), (4, 75.0)])
    assert [n for n, _v, _r in curve] == [1, 4, 8]
    assert curve[0][2] == pytest.approx(1.0)
    assert curve[2][2] == pytest.approx(0.5)
    assert degradation_curve([]) == []
    assert degradation_curve([(1, 0.0), (2, 0.0)])[1][2] == 0.0


def test_flow_stats_degenerate_series():
    assert FlowStats.from_series([]).mean == 0.0
    zero = FlowStats.from_series([0.0, 0.0, 0.0])
    assert zero.mean == 0.0 and zero.coefficient_of_variation == 0.0
    cleaned = FlowStats.from_series([1.0, float("nan"), 3.0])
    assert cleaned.mean == pytest.approx(2.0)
    assert math.isfinite(cleaned.stdev)


# ------------------------------------------------------------------- trace


def test_trace_recorder_channels_and_cap():
    recorder = TraceRecorder(max_events_per_channel=2)
    recorder.emit("x", 0.0, "a")
    recorder.emit("x", 1.0, "b")
    recorder.emit("x", 2.0, "c")  # over the cap: counted, not stored
    recorder.emit("y", 0.5, 1, 2)
    assert recorder.count("x") == 2
    assert recorder.events("x")[0] == (0.0, "a")
    assert recorder.dropped == {"x": 1}
    assert recorder.channels() == ["x", "y"]
    recorder.clear()
    assert recorder.count("x") == 0


def test_queue_occupancy_probe_samples_links():
    class FakeLink:
        name = "l0"
        queue_length = 3

    sim = Simulator(seed=1)
    recorder = TraceRecorder()
    probe = QueueOccupancyProbe(sim, recorder, [FakeLink()], interval=0.5)
    probe.start()
    sim.run(until=2.1)
    events = recorder.events("queue")
    assert len(events) == 5  # t = 0, 0.5, 1.0, 1.5, 2.0
    assert events[0] == (0.0, "l0", 3)
    with pytest.raises(ValueError):
        QueueOccupancyProbe(sim, recorder, [], interval=0.0)


def test_summarise_trace_warmup_and_loss_intervals():
    recorder = TraceRecorder()
    # (t, flow, round_id, rate_bps, feedback, nonclr_feedback)
    recorder.emit("round", 1.0, "f", 0, 1e5, 4, 3)
    recorder.emit("round", 3.0, "f", 1, 2e5, 2, 1)
    recorder.emit("clr_change", 0.5, "f", "r0", 1e5)
    recorder.emit("suppressed", 3.5, "r1", 1)
    recorder.emit("loss_event", 3.6, "r1", 2, 0.05)
    summary = summarise_trace(recorder, warmup=2.0, loss_intervals=[[10.0, 20.0], []])
    assert summary["rounds"] == 1
    assert summary["clr_changes"] == 0  # before warmup
    assert summary["feedback"]["messages"] == 2
    assert summary["feedback"]["nonclr_per_round"]["mean"] == pytest.approx(1.0)
    assert summary["suppressed"] == 1
    assert summary["loss_events"] == 2
    assert summary["loss_intervals"]["receivers_with_loss"] == 1
    assert summary["loss_intervals"]["loss_event_rate"] == pytest.approx(1.0 / 15.0)
    json.dumps(summary)  # the summary must be JSON-serialisable as-is


def test_scenario_with_trace_embeds_summary():
    spec = get_scenario("scaling").spec(num_receivers=3, duration=8.0)
    from dataclasses import replace

    spec = spec.with_overrides(metrics=replace(spec.metrics, with_trace=True))
    record = run_scenario(spec, seed=1)
    trace = record["trace"]
    assert trace["rounds"] >= 1
    assert trace["feedback"]["messages"] > 0
    assert trace["queue"]["count"] > 0
    json.dumps(record)


def test_with_trace_does_not_change_measured_results():
    from dataclasses import replace

    spec = get_scenario("fairness").spec(num_tcp=2, duration=6.0)
    plain = run_scenario(spec, seed=4)
    traced = run_scenario(
        spec.with_overrides(metrics=replace(spec.metrics, with_trace=True)), seed=4
    )
    traced.pop("trace")
    # The probes consume no randomness and alter no protocol behaviour; the
    # only permissible difference is the raw event count (the queue sampler's
    # own recurring event).
    assert traced.pop("events") >= plain.pop("events")
    assert plain == traced


def test_time_resolved_reduction_needs_both_flags():
    """``with_trace`` + ``with_series`` adds the time series; each alone adds nothing."""
    recorder = TraceRecorder()
    recorder.emit("round", 2.5, "f", 0, 1e5, 2, 1)
    recorder.emit("clr_change", 3.0, "f", "r1", 8e4)
    recorder.emit("rtt_acquired", 0.4, "r1")
    recorder.emit("slowstart_exit", 3.0, "f", 1.2e5)
    assert "dynamics" not in summarise_trace(recorder)
    resolved = summarise_trace(recorder, time_resolved=True)["dynamics"]
    assert resolved == {
        "events": [],  # nothing was scripted
        "route_rebuilds": 0,
        "clr_switches": [[3.0, "r1", "f"]],
        "rate_series": [[2.5, 1e5, "f"]],
        "rtt_acquired": [[0.4, "r1"]],
        "slowstart_exit": [[3.0, "f", 1.2e5]],
    }
    # A dynamics run without the request keeps the four keys it always had.
    recorder.emit("dynamics", 1.0, "link_update", "a<->b")
    assert len(summarise_trace(recorder)["dynamics"]) == 4


def test_static_run_gets_the_time_series_only_with_both_flags():
    import hashlib

    from repro.scenarios.store import encode_record

    spec = get_scenario("scaling").spec(num_receivers=4, duration=8.0)
    traced = run_scenario(spec.with_overrides(**{"metrics.with_trace": True}), seed=1)
    assert "dynamics" not in traced["trace"]
    # Byte-identical to the record the commit before the two new trace
    # channels produced (sha256 of the encoded record, taken there).
    assert hashlib.sha256(encode_record(traced).encode()).hexdigest()[:16] == "6a7ba67d7f9772f5"
    flags = {"metrics.with_trace": True, "metrics.with_series": True}
    both = run_scenario(spec.with_overrides(**flags), seed=1)
    resolved = both["trace"].pop("dynamics")
    assert both["trace"] == traced["trace"] and len(both["series"]) == 4
    # Each receiver measures its RTT once; the sender leaves slowstart once.
    acquired = [rid for _t, rid in resolved["rtt_acquired"]]
    assert 1 <= len(acquired) == len(set(acquired)) <= 4
    assert len(resolved["slowstart_exit"]) <= 1 and resolved["rate_series"]


# ------------------------------------------------------------------- store


def test_result_store_skips_corrupt_trailing_line(tmp_path):
    path = tmp_path / "shard.jsonl"
    store = ResultStore(str(path))
    store.append({"a": 1})
    store.append({"a": 2})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"a": 3, "tru')  # worker killed mid-write
    with pytest.warns(RuntimeWarning, match="corrupt"):
        records = list(store.iter_records())
    assert records == [{"a": 1}, {"a": 2}]
    # Strict mode (and plain iteration) still raises.
    with pytest.raises(json.JSONDecodeError):
        list(store.iter_records(strict=True))
    with pytest.raises(json.JSONDecodeError):
        list(store)


def test_result_store_merge_rejects_self_merge(tmp_path):
    store = ResultStore(str(tmp_path / "merged.jsonl"))
    store.append({"i": 0})
    # Reading the destination while appending to it would never terminate.
    with pytest.raises(ValueError, match="into itself"):
        store.merge([str(tmp_path / "merged.jsonl")])


def test_result_store_merge_shards(tmp_path):
    shard_a = ResultStore(str(tmp_path / "a.jsonl"))
    shard_a.append_many([{"i": 0}, {"i": 1}])
    shard_b = ResultStore(str(tmp_path / "b.jsonl"))
    shard_b.append({"i": 2})
    with open(tmp_path / "b.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{broken")
    merged = ResultStore(str(tmp_path / "merged.jsonl"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        count = merged.merge([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
    assert count == 3
    assert [r["i"] for r in merged] == [0, 1, 2]
    # The module-level helper wraps the same machinery.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert merge_shards(
            [str(tmp_path / "a.jsonl")], str(tmp_path / "merged2.jsonl")
        ) == 2
        assert len(load_records([str(tmp_path / "merged2.jsonl")])) == 2


# --------------------------------------------------------------- aggregate


def _records():
    return [
        {"v": 1.0, "nested": {"x": 10.0}, "run": {"params": {"n": 1}}},
        {"v": 3.0, "nested": {"x": 20.0}, "run": {"params": {"n": 1}}},
        {"v": 8.0, "run": {"params": {"n": 2}}},
    ]


def test_group_and_aggregate_records():
    groups = group_records(_records(), "n")
    assert sorted(groups) == [1, 2]
    stats = aggregate_field(_records(), "v", group="n")
    assert stats[1]["mean"] == pytest.approx(2.0)
    assert stats[2]["count"] == 1
    # Dotted paths skip records lacking the field.
    nested = aggregate_field(_records(), "nested.x")
    assert nested[None]["count"] == 2
    assert nested[None]["mean"] == pytest.approx(15.0)


def test_scaling_points():
    records = [
        {"tfmcc_mean_bps": 100.0, "run": {"params": {"num_receivers": 2}}},
        {"tfmcc_mean_bps": 200.0, "run": {"params": {"num_receivers": 1}}},
        {"tfmcc_mean_bps": 300.0, "run": {"params": {"num_receivers": 1}}},
    ]
    assert scaling_points(records) == [(1, 250.0), (2, 100.0)]
