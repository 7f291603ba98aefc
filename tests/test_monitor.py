"""Tests for throughput monitoring and statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.monitor import FlowStats, ThroughputMonitor, fairness_index


def test_series_bins_bytes_into_intervals():
    sim = Simulator(seed=1)
    monitor = ThroughputMonitor(sim, interval=1.0)
    monitor.record("f", 1000, when=0.5)
    monitor.record("f", 1000, when=0.9)
    monitor.record("f", 500, when=1.5)
    sim.schedule(3.0, lambda: None)
    sim.run()
    series = monitor.series("f", 0.0, 3.0)
    assert series[0] == (0.0, 16000.0)  # 2000 bytes in second 0
    assert series[1] == (1.0, 4000.0)
    assert series[2] == (2.0, 0.0)


def test_average_throughput_over_window():
    sim = Simulator(seed=1)
    monitor = ThroughputMonitor(sim, interval=1.0)
    for t in range(10):
        monitor.record("f", 1250, when=t + 0.5)  # 10 kbit per second
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert monitor.average_throughput("f", 0.0, 10.0) == pytest.approx(10000.0)
    assert monitor.average_throughput("f", 5.0, 10.0) == pytest.approx(10000.0)


def test_total_bytes_and_flows():
    sim = Simulator(seed=1)
    monitor = ThroughputMonitor(sim, interval=0.5)
    monitor.record("a", 100, when=0.1)
    monitor.record("b", 200, when=0.2)
    assert set(monitor.flows()) == {"a", "b"}
    assert monitor.total_bytes("a") == 100
    assert monitor.total_bytes("missing") == 0


def _reference_bins(packets, interval):
    """Plain binning: bin ``int(when / interval)``, zeros in the gaps."""
    counts = []
    for size, when in packets:
        index = int(when / interval)
        counts.extend([0] * (index + 1 - len(counts)))
        counts[index] += size
    return counts


def _add_like_a_receiver(recorder, size, when):
    """The per-packet shortcut a caller may take on a flow in time order."""
    if when < recorder.end:
        recorder.counts[-1] += size
    else:
        recorder.add(size, when)


def test_recorder_bins_like_record():
    """A handed-out recorder and ``record()`` fill the same bins, including
    empty bins in a gap and a first packet that lands in a late bin."""
    packets = [(700, 3.7), (100, 3.9), (50, 4.0), (1500, 6.2), (40, 6.4), (9, 11.0)]
    sim = Simulator(seed=1)
    by_record = ThroughputMonitor(sim, interval=0.5)
    by_recorder = ThroughputMonitor(sim, interval=0.5)
    recorder = by_recorder.recorder("f")
    assert by_recorder.recorder("f") is recorder
    for size, when in packets:
        by_record.record("f", size, when=when)
        _add_like_a_receiver(recorder, size, when)
    expected = _reference_bins(packets, 0.5)
    assert len(expected) == 23 and expected[7] == 800 and expected[8] == 50
    assert by_record._bins["f"] == recorder.counts == expected
    assert by_recorder.flows() == ["f"]
    assert by_recorder.series("f", 0.0, 12.0) == by_record.series("f", 0.0, 12.0)


@settings(max_examples=200, deadline=None)
@given(
    interval=st.one_of(
        st.sampled_from([0.1, 0.3, 1.0 / 3.0, 0.5, 0.7, 1.0]),
        st.floats(min_value=1e-3, max_value=10.0),
    ),
    picks=st.lists(st.tuples(st.integers(0, 60), st.integers(-2, 2)), max_size=60),
)
def test_recorder_shortcut_files_edge_packets_exactly(interval, picks):
    """Packets at (and one or two floats either side of) bin edges land in
    the bin ``int(when / interval)`` names, shortcut or not."""
    times = []
    for edge, step in picks:
        when = edge * interval
        for _ in range(abs(step)):
            when = math.nextafter(when, math.inf if step > 0 else 0.0)
        times.append(when)
    packets = [(1 + i, when) for i, when in enumerate(sorted(times))]
    recorder = ThroughputMonitor(Simulator(seed=1), interval=interval).recorder("f")
    for size, when in packets:
        _add_like_a_receiver(recorder, size, when)
    assert recorder.counts == _reference_bins(packets, interval)


def test_invalid_interval():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError):
        ThroughputMonitor(sim, interval=0.0)


def test_flow_stats_summary():
    stats = FlowStats.from_series([1.0, 2.0, 3.0, 4.0])
    assert stats.mean == pytest.approx(2.5)
    assert stats.median == pytest.approx(2.5)
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert stats.coefficient_of_variation > 0


def test_flow_stats_empty():
    stats = FlowStats.from_series([])
    assert stats.mean == 0.0
    assert stats.coefficient_of_variation == 0.0


def test_fairness_index_equal_shares():
    assert fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_fairness_index_unequal_shares():
    value = fairness_index([10.0, 1.0, 1.0])
    assert 0.0 < value < 1.0


def test_fairness_index_degenerate():
    assert fairness_index([]) == 0.0
    assert fairness_index([0.0, 0.0]) == 0.0


def test_fairness_index_extreme_magnitudes():
    # Tiny rates whose squares underflow float64 used to divide by zero.
    assert fairness_index([1e-200, 1e-200, 1e-200]) == pytest.approx(1.0)
    assert fairness_index([1e300, 1e300]) == pytest.approx(1.0)
    # Non-finite values are discarded (and do not count towards n).
    assert fairness_index([float("nan"), 1.0]) == pytest.approx(1.0)


def test_flow_stats_all_zero_series():
    stats = FlowStats.from_series([0.0, 0.0, 0.0])
    assert stats.mean == 0.0 and stats.median == 0.0
    assert stats.coefficient_of_variation == 0.0
