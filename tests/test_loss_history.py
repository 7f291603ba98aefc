"""Tests for loss-interval history and loss-event detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_LOSS_INTERVAL_WEIGHTS, loss_interval_weights
from repro.core.equations import padhye_throughput
from repro.core.loss_history import (
    LossEventDetector,
    LossIntervalHistory,
    initial_loss_interval,
    rescale_factor_for_rtt,
)


def make_history():
    return LossIntervalHistory(DEFAULT_LOSS_INTERVAL_WEIGHTS)


class TestLossIntervalHistory:
    def test_no_loss_means_zero_rate(self):
        history = make_history()
        history.record_packet(100)
        assert not history.has_loss
        assert history.loss_event_rate == 0.0
        assert history.average_loss_interval() == 0.0

    def test_single_interval(self):
        history = make_history()
        history.record_loss_event()  # first loss: starts interval counting
        history.record_packet(50)
        history.record_loss_event()  # closes a 50-packet interval
        assert history.intervals == [50.0]
        assert history.loss_event_rate == pytest.approx(1 / 50)

    def test_weighted_average_recent_intervals_weigh_more(self):
        history = make_history()
        history.record_loss_event()
        for interval in (10, 10, 10, 1000):  # most recent interval is 1000
            history.record_packet(interval)
            history.record_loss_event()
        # The big recent interval pulls the average well above 10.
        assert history.average_loss_interval() > 100

    def test_open_interval_only_counts_when_it_reduces_rate(self):
        history = make_history()
        history.record_loss_event()
        history.record_packet(10)
        history.record_loss_event()
        rate_before = history.loss_event_rate
        history.record_packet(5)  # small open interval: ignored
        assert history.loss_event_rate == pytest.approx(rate_before)
        history.record_packet(200)  # large open interval: reduces the rate
        assert history.loss_event_rate < rate_before

    def test_history_is_bounded_by_weight_count(self):
        history = make_history()
        history.record_loss_event()
        for _ in range(20):
            history.record_packet(10)
            history.record_loss_event()
        assert len(history.intervals) == len(DEFAULT_LOSS_INTERVAL_WEIGHTS)

    def test_seed_first_interval(self):
        history = make_history()
        history.seed_first_interval(120.0)
        assert history.has_loss
        assert history.loss_event_rate == pytest.approx(1 / 120)

    def test_scale_intervals(self):
        history = make_history()
        history.seed_first_interval(100.0)
        history.scale_intervals(0.25)
        assert history.intervals == [25.0]
        with pytest.raises(ValueError):
            history.scale_intervals(0.0)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            LossIntervalHistory([1.0])
        with pytest.raises(ValueError):
            LossIntervalHistory([1.0, -1.0])

    @settings(max_examples=50, deadline=None)
    @given(intervals=st.lists(st.integers(min_value=1, max_value=10000), min_size=1, max_size=30))
    def test_rate_always_in_unit_interval(self, intervals):
        history = make_history()
        history.record_loss_event()
        for interval in intervals:
            history.record_packet(interval)
            history.record_loss_event()
        assert 0.0 < history.loss_event_rate <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(intervals=st.lists(st.floats(min_value=1, max_value=1e5), min_size=2, max_size=16))
    def test_average_between_min_and_max(self, intervals):
        history = make_history()
        history.record_loss_event()
        for interval in intervals:
            history.record_packet(interval)
            history.record_loss_event()
        used = intervals[-len(DEFAULT_LOSS_INTERVAL_WEIGHTS):]
        avg = history.average_loss_interval()
        assert min(used) - 1e-6 <= avg <= max(used) + 1e-6


def average_loss_interval_oracle(history):
    """``average_loss_interval`` as it was before it cached the closed part."""
    if not history.has_loss:
        return 0.0

    def weighted_average(intervals):
        if not intervals:
            return 0.0
        used = list(intervals)[: len(history.weights)]
        weights = history.weights[: len(used)]
        return sum(w * i for w, i in zip(weights, used)) / sum(weights)

    closed = weighted_average(history.intervals)
    with_open = weighted_average([history.open_interval] + history.intervals)
    return max(closed, with_open)


_HISTORY_OPS = st.one_of(
    st.tuples(st.just("packet"), st.floats(0.0, 1e4)),
    st.tuples(st.just("loss"), st.none()),
    st.tuples(st.just("seed"), st.floats(0.5, 1e4)),
    st.tuples(st.just("scale"), st.floats(0.01, 10.0)),
    st.tuples(st.just("in_order"), st.none()),
)


class TestCachedAverage:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.sampled_from(
            [DEFAULT_LOSS_INTERVAL_WEIGHTS, loss_interval_weights(16), [3.0, 2.0, 1.0]]
        ),
        ops=st.lists(_HISTORY_OPS, max_size=60),
    )
    def test_equals_the_uncached_average_bit_for_bit(self, weights, ops):
        history = LossIntervalHistory(weights)
        detector = LossEventDetector(history, initial_rtt=0.1)
        detector.on_packet(0, 0.0)  # the next in-order packet takes the fast path
        for op, value in ops:
            if op == "packet":
                history.record_packet(value)
            elif op == "loss":
                history.record_loss_event()
            elif op == "seed":
                history.seed_first_interval(value)
            elif op == "scale":
                history.scale_intervals(value)
            else:
                seq = detector._expected_seq
                assert detector.on_in_order_packet(seq, seq * 0.01, 0.1)
            assert history.average_loss_interval() == average_loss_interval_oracle(history)


class TestLossEventDetector:
    def test_in_order_packets_produce_no_loss(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=0.1)
        for seq in range(50):
            assert detector.on_packet(seq, send_time=seq * 0.01) == 0
        assert detector.packets_lost == 0
        assert not history.has_loss

    def test_gap_creates_loss_event(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=0.1)
        detector.on_packet(0, 0.0)
        detector.on_packet(1, 0.01)
        events = detector.on_packet(4, 0.04)  # packets 2 and 3 missing
        assert events == 1
        assert detector.packets_lost == 2
        assert detector.loss_events == 1

    def test_losses_within_rtt_aggregate_into_one_event(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=1.0)
        detector.on_packet(0, 0.0)
        detector.on_packet(2, 0.2)  # loss at ~0.1
        detector.on_packet(4, 0.4)  # loss at ~0.3: same event (within 1 RTT)
        assert detector.loss_events == 1

    def test_losses_beyond_rtt_start_new_event(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=0.05)
        detector.on_packet(0, 0.0)
        detector.on_packet(2, 0.2)
        detector.on_packet(4, 0.6)
        assert detector.loss_events == 2

    def test_late_packet_ignored(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=0.1)
        detector.on_packet(0, 0.0)
        detector.on_packet(3, 0.3)
        events = detector.on_packet(1, 0.1)  # late arrival of a "lost" packet
        assert events == 0
        assert detector.packets_received == 2

    def test_big_gap_spanning_many_rtts_creates_multiple_events(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=0.1)
        detector.on_packet(0, 0.0)
        events = detector.on_packet(10, 1.0)  # nine packets spread over ~1 s
        assert events >= 2

    def test_rtt_update_changes_aggregation(self):
        history = make_history()
        detector = LossEventDetector(history, initial_rtt=10.0)
        detector.update_rtt(0.01)
        detector.on_packet(0, 0.0)
        detector.on_packet(2, 0.2)
        detector.on_packet(4, 0.4)
        assert detector.loss_events == 2

    def test_invalid_initial_rtt(self):
        with pytest.raises(ValueError):
            LossEventDetector(make_history(), initial_rtt=0.0)


class TestInitialisation:
    def test_initial_loss_interval_reproduces_half_rate(self):
        # The seeded interval should make the control equation produce about
        # half the rate at which the first loss occurred.
        rate = 125000.0  # 1 Mbit/s in bytes/s
        interval = initial_loss_interval(1000, 0.1, rate, overshoot=2.0)
        implied = padhye_throughput(1000, 0.1, 1.0 / interval)
        assert implied == pytest.approx(rate / 2.0, rel=0.35)

    def test_initial_loss_interval_low_rate_does_not_collapse(self):
        # Loss caused by competing traffic while the flow itself is slow: the
        # seed must still correspond to roughly half the pre-loss rate rather
        # than degenerating to a one-packet interval.
        rate = 7500.0  # 60 kbit/s
        interval = initial_loss_interval(1000, 0.12, rate, overshoot=2.0)
        assert interval > 1.0
        implied = padhye_throughput(1000, 0.12, 1.0 / interval)
        assert implied == pytest.approx(rate / 2.0, rel=0.5)

    def test_initial_loss_interval_validation(self):
        with pytest.raises(ValueError):
            initial_loss_interval(1000, 0.1, 0.0)

    def test_rescale_factor(self):
        assert rescale_factor_for_rtt(0.5, 0.05) == pytest.approx(0.01)
        assert rescale_factor_for_rtt(0.5, 0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            rescale_factor_for_rtt(0.0, 0.1)


class TestWeightGeneration:
    def test_default_weights_match_paper(self):
        assert DEFAULT_LOSS_INTERVAL_WEIGHTS == [5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0]

    def test_generated_weights_are_decreasing_and_positive(self):
        for m in (4, 8, 16, 32):
            weights = loss_interval_weights(m)
            assert len(weights) == m
            assert all(w > 0 for w in weights)
            assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_generated_weights_invalid_length(self):
        with pytest.raises(ValueError):
            loss_interval_weights(1)
