"""Tests for the analytical models (feedback, scaling, TCP-model curves)."""

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.feedback_model import (
    biased_feedback_cdf,
    expected_feedback_messages,
    expected_messages_grid,
    expected_response_time,
    feedback_cdf,
)
from repro.analysis.feedback_rounds import FeedbackRoundSimulator, timer_cdf_points
from repro.analysis.scaling import (
    GRID_DOUBLINGS,
    _expected_minimum,
    expected_minimum_rate_constant_loss,
    expected_minimum_rate_heterogeneous,
    realistic_loss_classes,
    realistic_loss_distribution,
    throughput_scaling_curve,
)
from repro.analysis.tcp_model import loss_events_per_rtt_curve, peak_loss_events_per_rtt
from repro.core.config import DEFAULT_LOSS_INTERVAL_WEIGHTS, loss_interval_weights
from repro.core.equations import padhye_throughput
from repro.core.feedback import BiasMethod


class TestFeedbackCDF:
    def test_boundaries(self):
        assert feedback_cdf(-1.0, 4.0, 10000) == 0.0
        assert feedback_cdf(4.0, 4.0, 10000) == 1.0
        assert feedback_cdf(0.0, 4.0, 10000) == pytest.approx(1e-4)

    def test_monotone_increasing(self):
        values = [feedback_cdf(t, 4.0, 10000) for t in (0.0, 1.0, 2.0, 3.0, 3.9)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_biased_cdf_shifted_right_for_high_ratio(self):
        plain = biased_feedback_cdf(1.0, 4.0, 10000, rate_ratio=0.0)
        shifted = biased_feedback_cdf(1.0, 4.0, 10000, rate_ratio=1.0)
        assert shifted <= plain


class TestExpectedMessages:
    def test_small_groups_all_respond(self):
        assert expected_feedback_messages(1, 4.0) == pytest.approx(1.0)
        assert expected_feedback_messages(5, 4.0) <= 5.0

    def test_suppression_keeps_count_low_for_large_groups(self):
        # Paper Figure 4: T' of 3-4 RTTs gives a handful to a few tens of
        # responses even for thousands of receivers.
        value = expected_feedback_messages(10000, 4.0, receiver_estimate=10000)
        assert value < 60

    def test_longer_delay_means_fewer_messages(self):
        short = expected_feedback_messages(1000, 2.0)
        long = expected_feedback_messages(1000, 6.0)
        assert long < short

    def test_underestimating_receivers_risks_implosion(self):
        # n far above N causes the response count to scale with n/N.
        value = expected_feedback_messages(100000, 4.0, receiver_estimate=10000)
        assert value > 50

    @pytest.mark.parametrize("receiver_estimate", [1, 100, 10000])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 9.0])
    def test_equals_the_sum_written_with_the_public_cdf(self, tau, receiver_estimate):
        """The integration loop inlines ``feedback_cdf``; the bits must not move."""

        def reference(n, big_t, steps=2000):
            def cdf(t):
                return feedback_cdf(t, big_t, receiver_estimate)

            dt = big_t / steps
            previous = cdf(0.0)
            total = 0.0 + previous
            for i in range(1, steps + 1):
                t = i * dt
                current = cdf(t)
                survival = (1.0 - cdf(t - tau)) ** (n - 1) if t - tau > 0 else 1.0
                total += (current - previous) * survival
                previous = current
            return n * total

        for n in (2, 3, 200, 10**6):
            for big_t in (0.5, 3.0, 4.0, 7.3):
                got = expected_feedback_messages(n, big_t, tau, receiver_estimate)
                assert got == reference(n, big_t), (n, big_t)

    def test_grid_helper(self):
        grid = expected_messages_grid([10, 100], [3.0, 4.0])
        assert len(grid) == 4
        assert all(len(entry) == 3 for entry in grid)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            expected_feedback_messages(0, 4.0)
        with pytest.raises(ValueError):
            expected_feedback_messages(10, 0.0)


class TestResponseTimeModel:
    def test_response_time_decreases_with_group_size(self):
        small = expected_response_time(5, samples=500)
        large = expected_response_time(2000, samples=500)
        assert large < small


class TestFeedbackRounds:
    def test_single_receiver_always_responds(self):
        sim = FeedbackRoundSimulator(seed=1)
        result = sim.run_round([0.4])
        assert result.responses == 1
        assert result.best_reported_value == pytest.approx(0.4)

    def test_worst_case_response_count_stays_bounded(self):
        sim = FeedbackRoundSimulator(seed=2, cancellation_delta=0.1)
        responses = sim.average_responses(2000, rounds=3)
        assert responses < 100

    def test_delta_zero_gives_more_responses_than_delta_one(self):
        zero = FeedbackRoundSimulator(seed=3, cancellation_delta=0.0)
        one = FeedbackRoundSimulator(seed=3, cancellation_delta=1.0)
        assert zero.average_responses(2000, rounds=3) > one.average_responses(2000, rounds=3)

    def test_bias_improves_report_quality(self):
        unbiased = FeedbackRoundSimulator(
            seed=4, bias_method=BiasMethod.NONE, cancellation_delta=1.0
        )
        biased = FeedbackRoundSimulator(
            seed=4, bias_method=BiasMethod.OFFSET, cancellation_delta=1.0
        )
        assert biased.average_report_quality(500, rounds=15) < unbiased.average_report_quality(
            500, rounds=15
        )

    def test_lowest_receiver_always_reports_with_delta_zero(self):
        sim = FeedbackRoundSimulator(seed=5, cancellation_delta=0.0)
        result = sim.run_round([0.9, 0.5, 0.1, 0.7])
        assert result.best_reported_value == pytest.approx(0.1)

    def test_empty_round_rejected(self):
        sim = FeedbackRoundSimulator(seed=6)
        with pytest.raises(ValueError):
            sim.run_round([])

    def test_invalid_parameters_rejected_at_construction(self):
        # Both used to pass silently: delta was only checked once an echo was
        # heard, and a negative delay echoed reports before they were sent.
        with pytest.raises(ValueError, match="cancellation_delta"):
            FeedbackRoundSimulator(cancellation_delta=1.5, seed=1)
        with pytest.raises(ValueError, match="network_delay_rtts"):
            FeedbackRoundSimulator(network_delay_rtts=-1.0, seed=1)

    @pytest.mark.parametrize("num_receivers", [10, 100, 1000])
    def test_kernel_matches_the_closed_form_response_count(self, num_receivers):
        """Unbiased timers and delta = 1 are the closed form's own model.

        With every echo cancelling, a receiver responds iff its timer fires
        within tau of the earliest one, which expected_feedback_messages
        integrates.  The mean over 200 rounds must lie within 4 Monte-Carlo
        standard errors of it (a correct kernel misses about once in 16 000
        points).
        """
        sim = FeedbackRoundSimulator(
            seed=1,
            bias_method=BiasMethod.NONE,
            cancellation_delta=1.0,
            max_delay_rtts=4.0,
            network_delay_rtts=1.0,
        )
        rounds = 200
        counts = [sim.run_round([0.5] * num_receivers).responses for _ in range(rounds)]
        mean = statistics.fmean(counts)
        standard_error = statistics.stdev(counts) / math.sqrt(rounds)
        model = expected_feedback_messages(num_receivers, 4.0, network_delay_rtts=1.0)
        assert abs(mean - model) <= 4.0 * standard_error, (mean, model, standard_error)

    def test_timer_cdf_points_monotone(self):
        points = timer_cdf_points(BiasMethod.NONE, samples=2000, grid=20)
        probabilities = [p for _t, p in points]
        assert all(a <= b for a, b in zip(probabilities, probabilities[1:]))
        assert probabilities[-1] == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60))
    def test_round_invariants(self, values):
        sim = FeedbackRoundSimulator(seed=7)
        result = sim.run_round(values)
        assert 1 <= result.responses <= len(values)
        assert result.responses + result.suppressed == len(values)
        assert result.best_reported_value >= result.true_minimum_value - 1e-12


# Independent oracles for the exact integral in ``repro.analysis.scaling``:
# the brute-force Monte-Carlo it replaced and the moment-matched gamma
# approximation.  They live here, not under ``src/``, so that nothing the
# package ships can select them.


def monte_carlo_minimum(num_receivers, weights, draw_loss_rates, samples=20000, seed=99):
    """Mean and standard error of the sampled minimum weighted-average interval.

    ``draw_loss_rates()`` returns the per-receiver loss rates of one sample.
    """
    rng = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    minima = np.empty(samples)
    for s in range(samples):
        means = 1.0 / np.asarray(draw_loss_rates())
        intervals = rng.exponential(1.0, size=(num_receivers, len(w))) * means[:, None]
        minima[s] = (intervals @ w).min()
    return float(minima.mean()), float(minima.std(ddof=1) / np.sqrt(samples))


def effective_history_shape(weights):
    """Kish's effective sample size of the weighted average: the shape of the
    gamma distribution matching its first two moments."""
    return sum(weights) ** 2 / sum(w * w for w in weights)


def gamma_minimum_expectation(num_receivers, shape, scale=1.0, grid=4000):
    """E[min of n i.i.d. Gamma(shape, scale)] = Integral_0^inf (1 - F(x))^n dx."""
    stats = pytest.importorskip("scipy.stats")
    if num_receivers < 1:
        raise ValueError("num_receivers must be >= 1")
    dist = stats.gamma(shape, scale=scale)
    xs = np.linspace(0.0, float(dist.ppf(1.0 - 1e-12)), grid)
    survival = dist.sf(xs) ** num_receivers
    return float(np.sum((survival[1:] + survival[:-1]) * np.diff(xs)) / 2.0)


def everyone(num_receivers, loss_rate=1.0):
    """`_expected_minimum` population arguments of ``n`` identical receivers."""
    return np.array([num_receivers]), np.ones((1, 1)), np.array([loss_rate])


class TestScaling:
    def test_single_receiver_matches_fair_rate(self):
        # One receiver's expected average interval is exactly 1/p.
        for p in (0.005, 0.1, 0.5):
            rate = expected_minimum_rate_constant_loss(1, loss_rate=p, rtt=0.05)
            assert rate == pytest.approx(padhye_throughput(1000, 0.05, p), rel=1e-9)
        assert 250e3 < expected_minimum_rate_constant_loss(1, loss_rate=0.1, rtt=0.05) * 8 < 350e3

    def test_throughput_decreases_with_receiver_count(self):
        rates = [
            expected_minimum_rate_constant_loss(n) for n in (1, 2, 5, 50, 500, 10**4, 10**6)
        ]
        assert all(later < earlier for earlier, later in zip(rates, rates[1:]))

    def test_realistic_distribution_degrades_less(self):
        curve = throughput_scaling_curve([1, 200])
        constant_drop = curve[0][1] / max(curve[1][1], 1e-9)
        realistic_drop = curve[0][2] / max(curve[1][2], 1e-9)
        assert realistic_drop < constant_drop

    def test_longer_history_alleviates_degradation(self):
        rates = [
            expected_minimum_rate_constant_loss(200, weights=loss_interval_weights(m))
            for m in (2, 4, 8, 16, 32, 64)
        ]
        assert all(longer > shorter for shorter, longer in zip(rates, rates[1:]))

    def test_realistic_loss_distribution_shape(self):
        rates = realistic_loss_distribution(1000, random.Random(1))
        assert len(rates) == 1000
        assert all(0.004 < r <= 0.10 for r in rates)
        high = sum(1 for r in rates if r >= 0.05)
        low = sum(1 for r in rates if r < 0.02)
        assert high < low  # only a few receivers in the high-loss range
        # The sampler draws from the class table the integral uses.
        classes = realistic_loss_classes(1000)
        assert [count for count, _, _ in classes] == [high, 1000 - high - low, low]

    @pytest.mark.parametrize("history", [8, 32])
    @pytest.mark.parametrize("num_receivers", [2, 16, 200, 1000])
    def test_integral_within_monte_carlo_error(self, num_receivers, history):
        weights = loss_interval_weights(history)
        exact = _expected_minimum(weights, *everyone(num_receivers))
        mean, stderr = monte_carlo_minimum(num_receivers, weights, lambda: np.ones(num_receivers))
        assert abs(exact - mean) < 3.0 * stderr
        assert stderr < 0.005 * exact  # the oracle is sharp enough to mean something

    @pytest.mark.parametrize("num_receivers", [50, 1000])
    def test_heterogeneous_integral_within_monte_carlo_error(self, num_receivers):
        rng = random.Random(5)
        mean, stderr = monte_carlo_minimum(
            num_receivers,
            DEFAULT_LOSS_INTERVAL_WEIGHTS,
            lambda: realistic_loss_distribution(num_receivers, rng),
        )
        rate = expected_minimum_rate_heterogeneous(num_receivers)
        # The control equation falls with the loss rate 1 / E[min].
        assert padhye_throughput(1000, 0.05, 1.0 / (mean - 3.0 * stderr)) < rate
        assert rate < padhye_throughput(1000, 0.05, 1.0 / (mean + 3.0 * stderr))

    def test_heterogeneous_single_receiver_closed_form(self):
        # The only receiver sits in the high class: E[1/p], p ~ U(0.05, 0.10).
        rate = expected_minimum_rate_heterogeneous(1)
        assert rate == pytest.approx(padhye_throughput(1000, 0.05, 0.05 / math.log(2.0)), rel=1e-7)

    @pytest.mark.parametrize("num_receivers", [1, 10**3, 10**5, 10**6])
    def test_grid_doubling_stability(self, num_receivers):
        for weights in (DEFAULT_LOSS_INTERVAL_WEIGHTS, loss_interval_weights(32)):
            coarse = _expected_minimum(weights, *everyone(num_receivers))
            fine = _expected_minimum(weights, *everyone(num_receivers), GRID_DOUBLINGS + 1)
            assert coarse == pytest.approx(fine, rel=1e-6)

    @pytest.mark.parametrize("num_receivers", [1, 7, 300, 10**5])
    def test_single_interval_history_is_minimum_of_exponentials(self, num_receivers):
        # The density does not vanish at the origin, so the trapezoid is only
        # second order here: (n h)^2 / 12 with n h < 0.04 on the re-laid grid.
        for p in (1.0, 0.02):
            expected = _expected_minimum((1,), *everyone(num_receivers, p))
            assert expected == pytest.approx(1.0 / (num_receivers * p), rel=1e-4)

    def test_moment_matched_gamma_approximates_the_integral(self):
        shape = effective_history_shape(DEFAULT_LOSS_INTERVAL_WEIGHTS)
        for n in (1, 10, 1000):
            exact = _expected_minimum(DEFAULT_LOSS_INTERVAL_WEIGHTS, *everyone(n))
            assert gamma_minimum_expectation(n, shape, 1.0 / shape) == pytest.approx(exact, rel=0.1)

    def test_gamma_minimum_expectation_decreases(self):
        one = gamma_minimum_expectation(1, shape=7.0, scale=1.4)
        many = gamma_minimum_expectation(1000, shape=7.0, scale=1.4)
        assert many < one
        assert one == pytest.approx(7.0 * 1.4, rel=0.05)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            expected_minimum_rate_constant_loss(0)
        with pytest.raises(ValueError):
            expected_minimum_rate_constant_loss(10, loss_rate=0.0)
        with pytest.raises(ValueError):
            expected_minimum_rate_constant_loss(10, weights=(0.0, 0.0))
        with pytest.raises(ValueError):
            expected_minimum_rate_heterogeneous(0)
        with pytest.raises(ValueError):
            gamma_minimum_expectation(0, shape=1.0)


class TestTCPModelCurve:
    def test_curve_peak_is_small(self):
        _curve, (p_peak, value_peak) = (
            loss_events_per_rtt_curve(),
            peak_loss_events_per_rtt(),
        )
        assert value_peak < 0.35
        assert 0.01 < p_peak < 0.5

    def test_curve_is_positive_and_covers_range(self):
        curve = loss_events_per_rtt_curve()
        assert curve[0][0] == pytest.approx(1e-4)
        assert curve[-1][0] == pytest.approx(1.0)
        assert all(v >= 0 for _p, v in curve)
