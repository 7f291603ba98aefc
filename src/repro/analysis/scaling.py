"""Throughput scaling with very large receiver sets (Section 3, Figure 7).

With ``n`` receivers experiencing *independent* loss, the loss intervals at
each receiver are (approximately) exponentially distributed and the sender
tracks the *minimum* calculated rate -- i.e. the receiver whose weighted
average loss interval happens to be smallest.  The expected minimum of ``n``
such averages shrinks with ``n``, so the achieved rate drops below the fair
rate even though the average congestion level is unchanged.

The expectation is the order-statistic integral ``E[min] = Integral_0^inf
P(every receiver's average > x) dx``, evaluated here without sampling for

* the *constant* scenario -- all receivers have the same loss probability
  (paper: 10 % loss, 50 ms RTT, fair rate around 300 kbit/s), and
* the *realistic* scenario -- a tree-like loss distribution where only a few
  receivers are in the high-loss range (5-10 %), some in 2-5 %, and the vast
  majority at 0.5-2 %.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import DEFAULT_LOSS_INTERVAL_WEIGHTS
from repro.core.equations import padhye_throughput

TAIL_NATS = 41.4  # the integrand is dropped below exp(-TAIL_NATS) = 1e-18
GRID_DOUBLINGS = 13  # the quadrature grid has 2 ** GRID_DOUBLINGS points ...
BLOCK_DOUBLINGS = 6  # ... propagated in blocks of 2 ** BLOCK_DOUBLINGS rows
CLASS_NODES = 6  # Gauss-Legendre nodes per loss class of the realistic scenario
CLASS_LOWEST = (0.05, 0.02, 0.005)  # loss-rate ranges of its high, medium
CLASS_HIGHEST = (0.10, 0.05, 0.02)  # and low class


def _absorption_grid(rates: np.ndarray, steps: np.ndarray, doublings: int) -> np.ndarray:
    """``P(sum_i Exp(rates[i]) <= k h)`` for ``k < 2 ** doublings``, one row per ``h`` in ``steps``.

    The sum is phase-type: a chain walks through one transient state per
    phase into an absorbing one.  ``exp(Q h)`` is summed by uniformisation, so
    every term and every product below is non-negative and the probability
    keeps its *relative* accuracy, however small and however close the rates
    (a partial-fraction closed form cancels catastrophically for repeated or
    near-equal ones).
    """
    m = len(rates)
    fastest = rates.max()
    jumps = np.diag(np.append(fastest - rates, fastest)) + np.diag(rates, 1)  # Q + fastest I
    scaled = jumps * steps[:, None, None]
    transition = term = np.broadcast_to(np.eye(m + 1), scaled.shape)
    for order in itertools.count(1):
        term = term @ scaled / order
        if np.array_equal(transition + term, transition):
            break
        transition = transition + term
    transition = transition * np.exp(-fastest * steps)[:, None, None]
    # Row k is the state distribution at k h.  The first block grows by
    # doubling with exp(Q h) ** len(block), every further block is the previous
    # one advanced by a block length: a product big enough for a threaded BLAS
    # to split stalls for milliseconds on a shared host.
    block = np.tile(np.eye(1, m + 1), (len(steps), 1, 1))
    for _ in range(BLOCK_DOUBLINGS):
        block = np.concatenate([block, block @ transition], axis=1)
        transition = transition @ transition
    blocks = [block]
    for _ in range((1 << doublings - BLOCK_DOUBLINGS) - 1):
        blocks.append(blocks[-1] @ transition)
    return np.concatenate(blocks, axis=1)[:, :, m]


def _expected_minimum(
    weights: Sequence[float],
    counts: np.ndarray,
    mix: np.ndarray,
    loss_rates: np.ndarray,
    doublings: int = GRID_DOUBLINGS,
) -> float:
    """E[min over all receivers of the weighted-average loss interval], in packets.

    Class ``c`` holds ``counts[c]`` i.i.d. receivers whose loss rate is
    ``loss_rates[j]`` with probability ``mix[c, j]``, so ``P(all averages >
    x)`` is the product over the classes of ``(sum_j mix[c, j] S(x p_j)) **
    counts[c]`` with ``S`` the survival function of the unit-mean average.
    The grid is re-laid onto the support of the integrand until that covers
    an eighth of it, which keeps any population size and history length
    resolved, and summed by trapezoid.
    """
    w = np.asarray(weights, dtype=float)
    if (w < 0.0).any() or not (w > 0.0).any():
        raise ValueError("weights must be non-negative with a positive sum")
    w = w[w > 0.0] / w.sum()
    points = 1 << doublings
    # Chernoff at theta = 1 / (2 max w): S(x) <= 2^m exp(-x / (2 max w)),
    # stretched to the receiver with the longest mean interval.
    span = 2.0 * w.max() * (TAIL_NATS + len(w) * math.log(2.0)) / loss_rates.min()
    while True:
        step = span / (points - 1)
        absorbed = mix @ _absorption_grid(1.0 / w, step * loss_rates, doublings)
        with np.errstate(divide="ignore"):  # log(0) far in the tail
            log_all = counts @ np.log1p(-np.minimum(absorbed, 1.0))
        support = int(np.argmax(log_all < -TAIL_NATS)) or points  # first negligible point
        if support >= points // 8:
            break
        span = step * support
    integrand = np.exp(log_all)
    return step * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))


def _rate_at_expected_minimum(expected_min: float, rtt: float, packet_size: int) -> float:
    """The control equation at the loss rate ``1 / E[min]`` (Section 3)."""
    p_worst = min(1.0, 1.0 / max(expected_min, 1.0))
    return padhye_throughput(packet_size, rtt, p_worst)


def expected_minimum_rate_constant_loss(
    num_receivers: int,
    loss_rate: float = 0.1,
    rtt: float = 0.05,
    packet_size: int = 1000,
    weights: Sequence[float] = tuple(DEFAULT_LOSS_INTERVAL_WEIGHTS),
) -> float:
    """Expected TFMCC throughput (bytes/s) with ``n`` i.i.d.-loss receivers.

    Each receiver averages exponential loss intervals of mean ``1/p`` with
    the given weights; the sender tracks the receiver with the smallest
    average interval, so the loss rate the protocol sees is the inverse of the
    *expected minimum* of the averages.
    """
    if num_receivers < 1:
        raise ValueError("num_receivers must be >= 1")
    if not 0.0 < loss_rate < 1.0:
        raise ValueError("loss_rate must be in (0, 1)")
    expected_min = _expected_minimum(
        weights, np.array([num_receivers]), np.ones((1, 1)), np.array([loss_rate])
    )
    return _rate_at_expected_minimum(expected_min, rtt, packet_size)


def realistic_loss_classes(
    num_receivers: int, high_loss_constant: float = 2.0
) -> List[Tuple[int, float, float]]:
    """``(count, lowest, highest loss rate)`` per class of a multicast tree (Section 3).

    A small number of receivers (proportional to ``c * log(n)``) lies in the
    high-loss range 5-10 %, a slightly larger group in 2-5 %, and the vast
    majority between 0.5 % and 2 %.
    """
    if num_receivers < 1:
        raise ValueError("num_receivers must be >= 1")
    high = max(1, int(round(high_loss_constant * math.log(max(num_receivers, 2)))))
    high = min(high, num_receivers)
    medium = min(num_receivers - high, 3 * high)
    low = num_receivers - high - medium
    return list(zip((high, medium, low), CLASS_LOWEST, CLASS_HIGHEST))


def realistic_loss_distribution(
    num_receivers: int, rng: random.Random, high_loss_constant: float = 2.0
) -> List[float]:
    """Draw per-receiver loss rates, uniform within each realistic loss class."""
    return [
        rng.uniform(lowest, highest)
        for count, lowest, highest in realistic_loss_classes(num_receivers, high_loss_constant)
        for _ in range(count)
    ]


def expected_minimum_rate_heterogeneous(
    num_receivers: int,
    rtt: float = 0.05,
    packet_size: int = 1000,
    weights: Sequence[float] = tuple(DEFAULT_LOSS_INTERVAL_WEIGHTS),
) -> float:
    """Expected throughput with the realistic (tree-like) loss distribution.

    The uniform loss rate within a class is integrated by Gauss-Legendre
    quadrature, which turns the class into a discrete mixture.
    """
    nodes, node_weights = np.polynomial.legendre.leggauss(CLASS_NODES)
    classes = [entry for entry in realistic_loss_classes(num_receivers) if entry[0]]
    counts, lowest, highest = np.array(classes).T
    loss_rates = 0.5 * ((lowest + highest)[:, None] + (highest - lowest)[:, None] * nodes)
    mix = np.kron(np.eye(len(counts)), 0.5 * node_weights)
    expected_min = _expected_minimum(weights, counts, mix, loss_rates.ravel())
    return _rate_at_expected_minimum(expected_min, rtt, packet_size)


def throughput_scaling_curve(
    receiver_counts: Sequence[int],
    loss_rate: float = 0.1,
    rtt: float = 0.05,
    packet_size: int = 1000,
    weights: Sequence[float] = tuple(DEFAULT_LOSS_INTERVAL_WEIGHTS),
) -> List[Tuple[int, float, float]]:
    """The two series of Figure 7.

    Returns ``[(n, constant_loss_kbit, realistic_kbit), ...]`` -- expected
    TFMCC throughput in kbit/s for the constant-loss and the realistic loss
    distributions.
    """
    curve = []
    for n in receiver_counts:
        constant = expected_minimum_rate_constant_loss(n, loss_rate, rtt, packet_size, weights)
        realistic = expected_minimum_rate_heterogeneous(n, rtt, packet_size, weights)
        curve.append((n, constant * 8.0 / 1e3, realistic * 8.0 / 1e3))
    return curve
