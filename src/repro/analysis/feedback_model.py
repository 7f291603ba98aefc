"""Closed-form models of the exponential feedback-suppression mechanism.

Section 2.5.4 of the paper quotes the expected number of duplicate feedback
messages for exponentially distributed timers from Fuhrmann & Widmer
("On the scaling of feedback algorithms for very large multicast groups")::

    E[N] = n * [ (1 + 1/N)^c * e^(-1) - (1 - 1/N)^(c*n) ] + 1      (approx.)

with ``n`` the actual number of receivers, ``N`` the receiver-set estimate
used by the timers, ``c = tau / T'`` the ratio of the network delay to the
maximum suppression delay.  Rather than rely on the exact garbled form in the
scanned paper, we derive the expectation directly from the timer CDF, which
reproduces Figure 4's shape (response count rising for small ``T'`` and
falling towards a handful of responses for ``T'`` of 3-6 RTTs):

A receiver responds iff its timer ``t_i`` fires before the earliest timer
plus the network delay ``tau`` (feedback must travel to the sender and be
echoed before it can suppress).  For exponentially distributed timers with
CDF ``F(t)`` on [0, T'], conditioning on the earliest timer value ``t`` gives::

    E[N] = n * Integral_0^T' [F(min(t + tau, T')) - F(t) + f(t) dt-term] ...

We evaluate the expectation by numeric integration over the minimum-order
statistic, which is exact for independent timers.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple


def feedback_cdf(t: float, max_delay: float, receiver_estimate: int) -> float:
    """CDF of the exponentially distributed feedback timer (Equation 2).

    ``P(timer <= t)`` for ``t`` in ``[0, max_delay]``: the timer
    ``t = T * (1 + log_N(x))`` is *increasing* in ``x``, so
    ``P(timer <= t) = P(x <= N^(t/T - 1)) = N^(t/T - 1)``.  At ``t = 0`` this
    leaves an atom of ``1/N`` (receivers whose ``x`` is below ``1/N`` respond
    immediately), which is why underestimating the receiver-set size risks an
    implosion.
    """
    if max_delay <= 0:
        raise ValueError("max_delay must be positive")
    n = max(receiver_estimate, 2)
    if t < 0:
        return 0.0
    if t >= max_delay:
        return 1.0
    return n ** (t / max_delay - 1.0)


def biased_feedback_cdf(
    t: float,
    max_delay: float,
    receiver_estimate: int,
    rate_ratio: float,
    offset_fraction: float = 0.25,
) -> float:
    """CDF of the offset-biased feedback timer (Equation 3) for a given ratio.

    The deterministic offset shifts the distribution right by
    ``offset_fraction * rate_ratio * max_delay`` and compresses the random
    part into ``(1 - offset_fraction) * max_delay``.
    """
    offset = offset_fraction * rate_ratio * max_delay
    scale = (1.0 - offset_fraction)
    if t < offset:
        return 0.0
    return feedback_cdf((t - offset) / scale, max_delay, receiver_estimate)


def expected_feedback_messages(
    num_receivers: int,
    max_delay_rtts: float,
    network_delay_rtts: float = 1.0,
    receiver_estimate: int = 10000,
    integration_steps: int = 2000,
) -> float:
    """Expected number of feedback messages in one worst-case round (Figure 4).

    All ``num_receivers`` receivers want to report (worst case).  A receiver's
    report is sent if its timer fires earlier than ``min_j(t_j) + tau`` where
    ``tau`` is the network delay needed for the earliest report to reach the
    sender and be echoed (for unicast feedback channels ``tau`` is one RTT).

    Parameters are expressed in RTTs, matching the paper's axes.

    The expectation is computed by numerically integrating over the density
    of each receiver's timer and the probability that fewer than one other
    receiver fired more than ``tau`` earlier::

        E[N] = n * P(no other timer fires before t_i - tau)
             = n * Integral f(t) * (1 - F(t - tau))^(n-1) dt
    """
    if num_receivers < 1:
        raise ValueError("num_receivers must be >= 1")
    if max_delay_rtts <= 0:
        raise ValueError("max_delay_rtts must be positive")
    n = num_receivers
    big_n = max(receiver_estimate, 2)
    big_t = max_delay_rtts
    tau = max(network_delay_rtts, 0.0)
    if n == 1:
        return 1.0

    # The timer distribution has an atom at zero, P(t = 0) = 1/N: such a
    # receiver always responds (nothing can have been echoed before time
    # zero), so the sum starts from it.
    #
    # The loop spells out ``feedback_cdf(t, big_t, big_n)`` for its two
    # arguments, ``t`` and ``t - tau`` (both positive here) — same operations,
    # same bits, without two calls per step for a few thousand steps per point.
    steps = integration_steps
    dt = big_t / steps
    prev_cdf = big_n ** -1.0  # feedback_cdf at t = 0
    total = prev_cdf
    for i in range(1, steps + 1):
        t = i * dt
        current_cdf = 1.0 if t >= big_t else big_n ** (t / big_t - 1.0)
        survival = 1.0
        earlier = t - tau
        if earlier > 0:
            below = 1.0 if earlier >= big_t else big_n ** (earlier / big_t - 1.0)
            survival = (1.0 - below) ** (n - 1)
        # P(t_i in this slice) x P(nothing fired more than tau before it)
        total += (current_cdf - prev_cdf) * survival
        prev_cdf = current_cdf
    return n * total


def expected_response_time(
    num_receivers: int,
    max_delay_rtts: float = 3.0,
    receiver_estimate: int = 10000,
    offset_fraction: float = 0.0,
    rate_ratio: float = 0.0,
    samples: int = 4000,
    seed: int = 12345,
) -> float:
    """Expected time until the first feedback timer fires (Figure 5 model).

    Monte-Carlo estimate of ``E[min_i t_i]`` for ``num_receivers`` receivers
    whose timers are biased with the given offset fraction and rate ratio
    (0 = most congested receiver).  Time is in RTTs.
    """
    import random

    rng = random.Random(seed)
    n = max(num_receivers, 1)
    big_n = max(receiver_estimate, 2)
    total = 0.0
    for _ in range(samples):
        best = math.inf
        for _i in range(n):
            u = 1.0 - rng.random()
            t = max(max_delay_rtts * (1.0 + math.log(u) / math.log(big_n)), 0.0)
            t = offset_fraction * rate_ratio * max_delay_rtts + (1.0 - offset_fraction) * t
            if t < best:
                best = t
        total += best
    return total / samples


def expected_messages_grid(
    receiver_counts: Sequence[int],
    max_delays_rtts: Sequence[float],
    network_delay_rtts: float = 1.0,
    receiver_estimate: int = 10000,
) -> List[Tuple[float, int, float]]:
    """Evaluate :func:`expected_feedback_messages` on a (T', n) grid (Figure 4).

    Returns a list of ``(max_delay_rtts, num_receivers, expected_messages)``.
    """
    results = []
    for t_prime in max_delays_rtts:
        for n in receiver_counts:
            value = expected_feedback_messages(
                n, t_prime, network_delay_rtts, receiver_estimate
            )
            results.append((t_prime, n, value))
    return results
