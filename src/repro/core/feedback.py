"""Biased exponentially-distributed feedback timers (Section 2.5).

The basic mechanism initialises a feedback timer to::

    t = max(T * (1 + log_N(x)), 0),  x ~ Uniform(0, 1]

so that at most a few of up to ``N`` receivers respond early.  TFMCC biases
these timers in favour of receivers whose calculated rate is low relative to
the current sending rate, using the ratio ``r = X_calc / X_send``:

* **offset** (Equation 3)::

      t = fraction * r * T + (1 - fraction) * T * (1 + log_N(x))

* **modified offset** -- same, but ``r`` is first truncated to [0.5, 0.9] and
  renormalised to [0, 1], so biasing only starts below 90 % of the sending
  rate and saturates at 50 %,

* **modified N** -- the receiver-set estimate ``N`` is reduced
  proportionally to ``r`` (never below a configured floor), shifting the
  whole CDF up instead of offsetting it.

The module also implements the cancellation rule of Section 2.5.2
(parameter ``delta``), the feedback round it drives
(:func:`suppression_round`) and the slowstart variant of the bias ratio.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

#: Floor on the reduced receiver-set estimate of the modified-N method.
MIN_RECEIVER_ESTIMATE = 10


class BiasMethod(Enum):
    """Feedback-timer biasing methods compared in the paper (Figures 1, 5, 6)."""

    NONE = "none"
    OFFSET = "offset"
    MODIFIED_OFFSET = "modified_offset"
    MODIFIED_N = "modified_n"


def truncate_rate_ratio(ratio: float, high: float = 0.9, low: float = 0.5) -> float:
    """Truncate and renormalise the rate ratio for the modified offset method.

    Maps ``ratio`` (calculated rate / sending rate) to [0, 1]: values above
    ``high`` map to 1 (no bias), values below ``low`` map to 0 (full bias),
    the range in between is linear.
    """
    if high <= low:
        raise ValueError("high must be greater than low")
    clamped = max(min(ratio, high), low)
    return (clamped - low) / (high - low)


def exponential_timer_value(u: float, max_delay: float, receiver_estimate: int) -> float:
    """Basic exponentially distributed timer value (Equation 2).

    Parameters
    ----------
    u:
        Uniform random variable in (0, 1].
    max_delay:
        Upper limit ``T`` on the feedback delay.
    receiver_estimate:
        Estimated upper bound ``N`` on the number of receivers.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError("u must be in (0, 1]")
    if max_delay <= 0:
        raise ValueError("max_delay must be positive")
    n = max(receiver_estimate, 2)
    return max(max_delay * (1.0 + math.log(u) / math.log(n)), 0.0)


def biased_timer_value(
    u: float,
    max_delay: float,
    receiver_estimate: int,
    rate_ratio: float,
    method: BiasMethod = BiasMethod.MODIFIED_OFFSET,
    offset_fraction: float = 0.25,
    truncation_high: float = 0.9,
    truncation_low: float = 0.5,
    min_receiver_estimate: int = MIN_RECEIVER_ESTIMATE,
) -> float:
    """Feedback timer value with the chosen biasing method.

    ``rate_ratio`` is ``X_calc / X_send`` (only receivers with a ratio below
    one send feedback, so the ratio is clamped into [0, 1]).
    """
    ratio = max(0.0, min(1.0, rate_ratio))
    if method is BiasMethod.NONE:
        return exponential_timer_value(u, max_delay, receiver_estimate)
    if method is BiasMethod.MODIFIED_N:
        # Shrink the receiver estimate in proportion to the ratio; never go
        # below a floor that keeps suppression working.
        reduced = max(min_receiver_estimate, int(receiver_estimate * max(ratio, 1e-3)))
        return exponential_timer_value(u, max_delay, reduced)
    if method is BiasMethod.MODIFIED_OFFSET:
        ratio = truncate_rate_ratio(ratio, truncation_high, truncation_low)
    if not 0.0 < offset_fraction < 1.0:
        raise ValueError("offset_fraction must be in (0, 1)")
    deterministic = offset_fraction * ratio * max_delay
    random_part = (1.0 - offset_fraction) * exponential_timer_value(
        u, max_delay, receiver_estimate
    )
    return deterministic + random_part


def should_cancel(calculated_rate: float, echoed_rate: float, delta: float) -> bool:
    """Feedback cancellation rule (Section 2.5.2).

    The receiver cancels its feedback timer on hearing echoed feedback
    reporting ``echoed_rate`` when ``echoed_rate - calculated_rate <= delta *
    echoed_rate``, i.e. when its own rate is not more than ``delta`` (as a
    fraction of the echoed rate) below the echoed rate.

    ``delta = 0`` cancels only when the echoed rate is lower than or equal to
    the receiver's own; ``delta = 1`` cancels on any feedback.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if echoed_rate < 0:
        return False
    return echoed_rate - calculated_rate <= delta * echoed_rate


def suppression_round(
    timers: Sequence[float], values: Sequence[float], echo_delays: Sequence[float], delta: float
) -> List[int]:
    """Receivers that respond in one feedback round, in firing order.

    Receivers fire in timer order (ties in index order) and report their
    non-negative ``values``.  The sender echoes the lowest value reported so
    far; receiver ``i`` hears the echo of a response fired at ``t_j`` at
    ``t_j + echo_delays[i]``, and is cancelled when the lowest value it heard
    strictly before ``timers[i]`` passes :func:`should_cancel`.  The rule is
    monotone in the echoed value, so one bisect over the responses' firing
    times and their prefix minima answers each receiver.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    fired: List[float] = []  # firing times of the responses so far, ascending
    lowest: List[float] = []  # lowest[k]: min value among responses 0..k
    responders: List[int] = []
    for i in sorted(range(len(timers)), key=timers.__getitem__):
        fire_time, delay, value = timers[i], echo_delays[i], values[i]
        heard = bisect_left(fired, fire_time, key=lambda t: t + delay)
        if heard and should_cancel(value, lowest[heard - 1], delta):
            continue
        fired.append(fire_time)
        lowest.append(min(value, lowest[-1]) if lowest else value)
        responders.append(i)
    return responders


def slowstart_bias_ratio(receive_rate: float, send_rate: float) -> float:
    """Bias ratio used during slowstart (Section 2.6): receive / send rate."""
    if send_rate <= 0:
        return 1.0
    return max(0.0, min(1.0, receive_rate / send_rate))


@dataclass
class FeedbackDecision:
    """Result of drawing a feedback timer: when to fire and with what value."""

    delay: float
    rate_ratio: float


class FeedbackTimerPolicy:
    """Draws feedback-timer values and evaluates cancellation for a receiver.

    This wraps the pure functions above with the configuration and RNG so the
    receiver agent and the standalone feedback-round simulator share one code
    path.
    """

    def __init__(
        self,
        rng: random.Random,
        receiver_estimate: int,
        bias_method: BiasMethod = BiasMethod.MODIFIED_OFFSET,
        offset_fraction: float = 0.25,
        cancellation_delta: float = 0.1,
        truncation_high: float = 0.9,
        truncation_low: float = 0.5,
    ):
        self.rng = rng
        self.receiver_estimate = receiver_estimate
        self.bias_method = bias_method
        self.offset_fraction = offset_fraction
        self.cancellation_delta = cancellation_delta
        self.truncation_high = truncation_high
        self.truncation_low = truncation_low

    def draw(self, max_delay: float, rate_ratio: float) -> FeedbackDecision:
        """Draw a feedback-timer delay for a receiver with the given rate ratio."""
        u = 1.0 - self.rng.random()  # uniform in (0, 1]
        delay = biased_timer_value(
            u,
            max_delay,
            self.receiver_estimate,
            rate_ratio,
            method=self.bias_method,
            offset_fraction=self.offset_fraction,
            truncation_high=self.truncation_high,
            truncation_low=self.truncation_low,
        )
        return FeedbackDecision(delay=delay, rate_ratio=rate_ratio)

    def cancels(self, calculated_rate: float, echoed_rate: float) -> bool:
        """True if echoed feedback with ``echoed_rate`` suppresses this receiver."""
        return should_cancel(calculated_rate, echoed_rate, self.cancellation_delta)
