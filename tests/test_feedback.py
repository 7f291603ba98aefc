"""Tests for the biased feedback timers and cancellation rules."""

import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core.feedback import (
    BiasMethod,
    FeedbackTimerPolicy,
    biased_timer_value,
    exponential_timer_value,
    should_cancel,
    slowstart_bias_ratio,
    suppression_round,
    truncate_rate_ratio,
)


class TestExponentialTimer:
    def test_u_equal_one_gives_max_delay(self):
        assert exponential_timer_value(1.0, 4.0, 10000) == pytest.approx(4.0)

    def test_small_u_clamps_to_zero(self):
        assert exponential_timer_value(1e-7, 4.0, 10000) == 0.0

    def test_median_receiver_fires_late(self):
        # With N = 10000, u = 0.5 gives T * (1 - log(2)/log(10000)) ~ 0.92 T:
        # the vast majority of receivers fire close to the maximum delay.
        value = exponential_timer_value(0.5, 4.0, 10000)
        assert value > 3.5

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_timer_value(0.0, 4.0, 100)
        with pytest.raises(ValueError):
            exponential_timer_value(0.5, 0.0, 100)


class TestTruncation:
    def test_maps_range_to_unit_interval(self):
        assert truncate_rate_ratio(0.95) == 1.0
        assert truncate_rate_ratio(0.9) == 1.0
        assert truncate_rate_ratio(0.5) == 0.0
        assert truncate_rate_ratio(0.3) == 0.0
        assert truncate_rate_ratio(0.7) == pytest.approx(0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            truncate_rate_ratio(0.7, high=0.5, low=0.9)


class TestBiasedTimer:
    def test_none_matches_plain_exponential(self):
        for u in (0.1, 0.5, 0.9):
            assert biased_timer_value(u, 4.0, 10000, 0.5, BiasMethod.NONE) == pytest.approx(
                exponential_timer_value(u, 4.0, 10000)
            )

    def test_offset_shifts_low_rate_receivers_earlier(self):
        u = 0.9
        low = biased_timer_value(u, 4.0, 10000, 0.0, BiasMethod.OFFSET, offset_fraction=0.25)
        high = biased_timer_value(u, 4.0, 10000, 1.0, BiasMethod.OFFSET, offset_fraction=0.25)
        assert low < high
        assert high - low == pytest.approx(0.25 * 4.0)

    def test_offset_never_exceeds_max_delay(self):
        for ratio in (0.0, 0.5, 1.0):
            value = biased_timer_value(1.0, 4.0, 10000, ratio, BiasMethod.OFFSET)
            assert value <= 4.0 + 1e-9

    def test_modified_offset_ignores_small_differences_near_sending_rate(self):
        # Ratios of 0.9 and 1.0 both map to "no bias".
        u = 0.7
        a = biased_timer_value(u, 4.0, 10000, 0.92, BiasMethod.MODIFIED_OFFSET)
        b = biased_timer_value(u, 4.0, 10000, 1.0, BiasMethod.MODIFIED_OFFSET)
        assert a == pytest.approx(b)

    def test_modified_offset_saturates_below_half(self):
        u = 0.7
        a = biased_timer_value(u, 4.0, 10000, 0.5, BiasMethod.MODIFIED_OFFSET)
        b = biased_timer_value(u, 4.0, 10000, 0.1, BiasMethod.MODIFIED_OFFSET)
        assert a == pytest.approx(b)

    def test_modified_n_reduces_effective_receiver_estimate(self):
        # Lower ratio -> smaller N -> earlier timers on average.
        rng = random.Random(3)
        lows, highs = [], []
        for _ in range(500):
            u = 1.0 - rng.random()
            lows.append(biased_timer_value(u, 4.0, 10000, 0.05, BiasMethod.MODIFIED_N))
            highs.append(biased_timer_value(u, 4.0, 10000, 1.0, BiasMethod.MODIFIED_N))
        assert sum(lows) / len(lows) < sum(highs) / len(highs)

    def test_invalid_offset_fraction(self):
        with pytest.raises(ValueError):
            biased_timer_value(0.5, 4.0, 100, 0.5, BiasMethod.OFFSET, offset_fraction=1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        u=st.floats(min_value=1e-9, max_value=1.0, exclude_min=False),
        ratio=st.floats(min_value=0.0, max_value=1.0),
        method=st.sampled_from(list(BiasMethod)),
    )
    def test_timer_always_within_bounds(self, u, ratio, method):
        value = biased_timer_value(u, 4.0, 10000, ratio, method)
        assert 0.0 <= value <= 4.0 + 1e-9


class TestCancellation:
    def test_delta_zero_cancels_only_lower_or_equal(self):
        assert should_cancel(calculated_rate=100.0, echoed_rate=90.0, delta=0.0)
        assert should_cancel(100.0, 100.0, 0.0)
        assert not should_cancel(90.0, 100.0, 0.0)

    def test_delta_one_cancels_everything(self):
        assert should_cancel(1.0, 1e9, 1.0)
        assert should_cancel(1e9, 1.0, 1.0)

    def test_delta_ten_percent(self):
        # Receiver within 10 % below the echoed rate is suppressed ...
        assert should_cancel(91.0, 100.0, 0.1)
        # ... a receiver more than 10 % below is not.
        assert not should_cancel(89.0, 100.0, 0.1)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            should_cancel(1.0, 1.0, 1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        calc=st.floats(min_value=0.0, max_value=1e6),
        echo=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_monotone_in_delta(self, calc, echo):
        # If a report is cancelled at some delta it must also be cancelled at
        # any larger delta.
        if should_cancel(calc, echo, 0.1):
            assert should_cancel(calc, echo, 0.5)
            assert should_cancel(calc, echo, 1.0)


# The echo loop FeedbackRoundSimulator.run_round used before the kernel, kept
# as the oracle for suppression_round.  Only the echo's arrival changed: it is
# taken per receiver (sent_at + echo_delays[i]) instead of with one delay.


def echo_loop_oracle(timers, values, echo_delays, delta):
    order = sorted(range(len(values)), key=lambda i: timers[i])
    echoes = []  # (sent_at, value)
    responders = []
    for i in order:
        fire_time = timers[i]
        cancelled = False
        for sent_at, echoed_value in echoes:
            if sent_at + echo_delays[i] >= fire_time:
                break
            if should_cancel(values[i], echoed_value, delta):
                cancelled = True
                break
        if cancelled:
            continue
        responders.append(i)
        echoes.append((fire_time, values[i]))
        echoes.sort(key=lambda e: e[0])
    return responders


def mutated_kernel(timers, values, echo_delays, delta, mutant):
    """suppression_round with one deliberate defect, for the oracle to catch.

    ``"arrival_inclusive"`` hears an echo arriving exactly at the timer (``<=``
    instead of ``<``); ``"first_echo_only"`` hears only the first response's
    echo, the cohort engine's former rule.
    """
    search = bisect_right if mutant == "arrival_inclusive" else bisect_left
    fired, lowest, responders = [], [], []
    for i in sorted(range(len(timers)), key=timers.__getitem__):
        delay = echo_delays[i]
        heard = search(fired, timers[i], key=lambda t: t + delay)
        if heard and should_cancel(values[i], lowest[heard - 1], delta):
            continue
        fired.append(timers[i])
        if mutant == "first_echo_only":
            lowest.append(lowest[0] if lowest else values[i])
        else:
            lowest.append(min(values[i], lowest[-1]) if lowest else values[i])
        responders.append(i)
    return responders


# Timers, delays and values on coarse grids make ties and echoes arriving
# exactly at a timer common; free floats cover the rest.
_TIMES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0]), st.floats(0.0, 4.0))
_DELAYS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0))
_VALUES = st.one_of(st.sampled_from([0.1, 0.45, 0.5, 0.52, 0.9, 1.0]), st.floats(0.0, 1.0))


@st.composite
def feedback_rounds(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    timers = draw(st.lists(_TIMES, min_size=n, max_size=n))
    values = draw(st.lists(_VALUES, min_size=n, max_size=n))
    delays = draw(st.lists(_DELAYS, min_size=n, max_size=n))
    delta = draw(st.sampled_from([0.0, 0.1, 1.0]))
    return timers, values, delays, delta


class TestSuppressionRound:
    @settings(max_examples=300, deadline=None)
    @given(round_=feedback_rounds())
    def test_kernel_matches_the_echo_loop_oracle(self, round_):
        assert suppression_round(*round_) == echo_loop_oracle(*round_)

    @settings(max_examples=100, deadline=None)
    @given(round_=feedback_rounds(), data=st.data())
    def test_a_timer_ordered_head_keeps_the_first_responders(self, round_, data):
        # The cohort engine widens a timer-ordered head of its members until
        # it holds max_reports_per_step responders; that is exact only if a
        # member's fate never depends on a later timer.
        timers, values, delays, delta = round_
        order = sorted(range(len(timers)), key=timers.__getitem__)
        size = data.draw(st.integers(min_value=1, max_value=len(order)))
        head = order[:size]
        responders = suppression_round(
            [timers[i] for i in head], [values[i] for i in head], [delays[i] for i in head], delta
        )
        full = suppression_round(timers, values, delays, delta)
        assert [head[k] for k in responders] == [i for i in full if i in head]

    @pytest.mark.parametrize("mutant", ["arrival_inclusive", "first_echo_only"])
    def test_oracle_catches_mutant(self, mutant):
        # The generator above reaches a round on which each mutant and the
        # oracle disagree, so the property test would fail on either defect.
        find(
            feedback_rounds(),
            lambda r: mutated_kernel(*r, mutant) != echo_loop_oracle(*r),
            settings=settings(max_examples=2000, database=None),
        )

    def test_lowest_echo_so_far_cancels(self):
        # Receiver 1 fires before receiver 0's echo arrives; the echo of its
        # 0.5 then cancels receiver 2 (within 10 % of it), which receiver 0's
        # 1.0 alone would not.
        assert suppression_round([0.0, 0.05, 1.0], [1.0, 0.5, 0.52], [0.1] * 3, 0.1) == [0, 1]

    def test_echo_at_the_timer_is_not_heard(self):
        assert suppression_round([0.0, 1.0], [0.5, 0.5], [1.0, 1.0], 1.0) == [0, 1]
        assert suppression_round([0.0, 1.0], [0.5, 0.5], [0.5, 0.5], 1.0) == [0]

    def test_ties_fire_in_index_order(self):
        assert suppression_round([1.0, 0.0, 1.0], [0.5, 0.5, 0.5], [0.5] * 3, 1.0) == [1]
        assert suppression_round([1.0, 1.0], [0.5, 0.5], [0.0, 0.0], 1.0) == [0, 1]

    def test_delta_checked_without_any_echo(self):
        with pytest.raises(ValueError, match="delta"):
            suppression_round([0.0], [0.5], [1.0], 1.5)
        with pytest.raises(ValueError, match="delta"):
            suppression_round([], [], [], -0.1)


class TestPolicyAndSlowstart:
    def test_policy_draw_within_bounds(self):
        policy = FeedbackTimerPolicy(random.Random(1), receiver_estimate=1000)
        for _ in range(200):
            decision = policy.draw(2.0, 0.5)
            assert 0.0 <= decision.delay <= 2.0 + 1e-9

    def test_policy_cancel_delegates_to_rule(self):
        policy = FeedbackTimerPolicy(random.Random(1), 1000, cancellation_delta=0.0)
        # With delta = 0 the timer is cancelled only when the echoed rate is
        # at or below the receiver's own calculated rate.
        assert policy.cancels(60.0, 50.0)
        assert not policy.cancels(50.0, 60.0)

    def test_slowstart_ratio(self):
        assert slowstart_bias_ratio(50.0, 100.0) == pytest.approx(0.5)
        assert slowstart_bias_ratio(200.0, 100.0) == 1.0
        assert slowstart_bias_ratio(10.0, 0.0) == 1.0
