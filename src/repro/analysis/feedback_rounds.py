"""Standalone Monte-Carlo simulator of a single feedback round.

The feedback-mechanism figures of the paper (Figures 1-6) study one
suppression round in isolation: all receivers suddenly have something to
report (worst case), draw their (possibly biased) timers, the earliest
reports reach the sender, are echoed after a network delay, and suppress
later timers according to the cancellation rule.

Simulating this with the full packet-level simulator for 10 000 receivers is
needlessly slow; this module reproduces the paper's own methodology with a
lightweight event-free model:

* every receiver ``i`` has a feedback value ``x_i`` (its calculated rate as a
  fraction of the sending rate; lower = more congested),
* receiver ``i`` draws timer ``t_i`` according to the configured bias method,
* feedback sent at time ``t`` is echoed to everyone at ``t + delay``,
* a receiver sends feedback at ``t_i`` unless an echo received strictly
  before ``t_i`` cancels its timer (cancellation rule with parameter delta,
  decided by :func:`repro.core.feedback.suppression_round`, the same round
  the cohort engine runs).

The simulator reports the number of responses, the time and value of the
first response, the best (lowest) value among responses and the response
delay -- exactly the quantities plotted in Figures 2, 3, 5 and 6.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.feedback import BiasMethod, FeedbackTimerPolicy, suppression_round


@dataclass
class FeedbackRoundResult:
    """Outcome of one simulated feedback round."""

    responses: int
    first_response_time: float
    first_response_value: float
    best_reported_value: float
    true_minimum_value: float
    response_times: List[float] = field(default_factory=list)
    response_values: List[float] = field(default_factory=list)
    suppressed: int = 0

    @property
    def reported_rate_quality(self) -> float:
        """Deviation of the best reported value from the true minimum.

        Feedback values are rates normalised by the current sending rate, so
        the difference is directly a fraction of the sending rate: 0 means
        the lowest-rate receiver reported, 0.1 means the best report was 10 %
        (of the sending rate) above the true minimum -- the metric of
        Figure 6.
        """
        return max(0.0, self.best_reported_value - self.true_minimum_value)


class FeedbackRoundSimulator:
    """Monte-Carlo simulator of single feedback rounds.

    Parameters
    ----------
    receiver_estimate:
        Upper bound ``N`` used by the timers (paper: 10 000).
    max_delay_rtts:
        Feedback delay ``T`` in units of RTT (paper default 4).
    network_delay_rtts:
        One-way network delay (in RTTs) before a sent report is echoed and
        can suppress others; 1 RTT for unicast feedback plus multicast echo.
    bias_method / offset_fraction / cancellation_delta:
        Feedback mechanism parameters (see :mod:`repro.core.feedback`).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        receiver_estimate: int = 10000,
        max_delay_rtts: float = 4.0,
        network_delay_rtts: float = 1.0,
        bias_method: BiasMethod = BiasMethod.MODIFIED_OFFSET,
        offset_fraction: float = 0.25,
        cancellation_delta: float = 0.1,
        seed: Optional[int] = None,
    ):
        if not 0.0 <= cancellation_delta <= 1.0:
            raise ValueError("cancellation_delta must be in [0, 1]")
        if network_delay_rtts < 0:
            # An echo would reach receivers before its report was sent.
            raise ValueError("network_delay_rtts must be >= 0")
        self.max_delay_rtts = max_delay_rtts
        self.network_delay_rtts = network_delay_rtts
        self.rng = random.Random(seed)
        self.policy = FeedbackTimerPolicy(
            self.rng, receiver_estimate, bias_method, offset_fraction, cancellation_delta
        )

    # ------------------------------------------------------------ single round

    def run_round(self, feedback_values: Sequence[float]) -> FeedbackRoundResult:
        """Simulate one round for receivers with the given feedback values.

        ``feedback_values`` are the receivers' calculated rates normalised by
        the current sending rate (1.0 = no congestion, lower = worse).
        """
        values = list(feedback_values)
        if not values:
            raise ValueError("need at least one receiver")
        timers = [self.policy.draw(self.max_delay_rtts, value).delay for value in values]
        delays = [self.network_delay_rtts] * len(values)
        responders = suppression_round(timers, values, delays, self.policy.cancellation_delta)
        response_times = [timers[i] for i in responders]
        response_values = [values[i] for i in responders]
        return FeedbackRoundResult(
            responses=len(responders),
            first_response_time=response_times[0],
            first_response_value=response_values[0],
            best_reported_value=min(response_values),
            true_minimum_value=min(values),
            response_times=response_times,
            response_values=response_values,
            suppressed=len(values) - len(responders),
        )

    # ------------------------------------------------------------ aggregates

    def average_responses(
        self,
        num_receivers: int,
        rounds: int = 20,
        worst_case_value: float = 0.3,
        value_spread: float = 0.2,
    ) -> float:
        """Average number of responses for the worst case (Figure 3).

        In the worst case all receivers suddenly experience (nearly) the same
        congestion; their measured rates differ only by estimation noise,
        modelled as a uniform spread of ``value_spread`` (relative) above
        ``worst_case_value``.  With ``delta = 0`` only strictly-lower echoed
        rates suppress, so the response count grows with the receiver count;
        with ``delta`` around 0.1 it stays nearly flat (the paper's Figure 3).
        """
        total = 0
        for _ in range(rounds):
            values = [
                worst_case_value * (1.0 + value_spread * self.rng.random())
                for _ in range(num_receivers)
            ]
            result = self.run_round(values)
            total += result.responses
        return total / rounds

    def average_response_time(
        self, num_receivers: int, rounds: int = 20, value_distribution=None
    ) -> float:
        """Average time of the first response in RTTs (Figure 5)."""
        total = 0.0
        for _ in range(rounds):
            values = self._draw_values(num_receivers, value_distribution)
            result = self.run_round(values)
            total += result.first_response_time
        return total / rounds

    def average_report_quality(
        self, num_receivers: int, rounds: int = 20, value_distribution=None
    ) -> float:
        """Average relative deviation of the best report from the true minimum
        (Figure 6)."""
        total = 0.0
        for _ in range(rounds):
            values = self._draw_values(num_receivers, value_distribution)
            result = self.run_round(values)
            total += result.reported_rate_quality
        return total / rounds

    def time_value_scatter(self, num_receivers: int) -> FeedbackRoundResult:
        """One round with uniformly distributed feedback values (Figure 2)."""
        values = [self.rng.random() for _ in range(num_receivers)]
        return self.run_round(values)

    def _draw_values(self, num_receivers: int, distribution) -> List[float]:
        if distribution is None:
            return [self.rng.random() for _ in range(num_receivers)]
        return [distribution(self.rng) for _ in range(num_receivers)]


def timer_cdf_points(
    method: BiasMethod,
    receiver_estimate: int = 10000,
    max_delay_rtts: float = 4.0,
    rate_ratio: float = 0.5,
    offset_fraction: float = 0.25,
    samples: int = 20000,
    seed: int = 7,
    grid: int = 80,
) -> List[tuple]:
    """Empirical CDF of the feedback-timer value for one bias method (Figure 1).

    Returns ``[(time_in_rtts, cumulative_probability), ...]`` on a regular
    time grid, estimated from ``samples`` random draws.
    """
    policy = FeedbackTimerPolicy(
        random.Random(seed), receiver_estimate, bias_method=method, offset_fraction=offset_fraction
    )
    draws = sorted(policy.draw(max_delay_rtts, rate_ratio).delay for _ in range(samples))
    times = [max_delay_rtts * i / grid for i in range(grid + 1)]
    return [(t, bisect_right(draws, t) / len(draws)) for t in times]
