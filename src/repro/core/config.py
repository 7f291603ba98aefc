"""TFMCC protocol configuration.

Every protocol constant mentioned in the paper is collected here with its
paper default, so experiments and ablations change behaviour through a single
dataclass rather than scattered magic numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.feedback import BiasMethod


#: Loss-interval weights for a history of eight intervals ("with eight
#: weights we might use {5, 5, 5, 5, 4, 3, 2, 1}", Section 2.3).
DEFAULT_LOSS_INTERVAL_WEIGHTS: List[float] = [5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0]


def loss_interval_weights(num_intervals: int) -> List[float]:
    """Generate TFRC-style weights for an arbitrary history length.

    The most recent half of the intervals get weight 1 (scaled), the older
    half decay linearly to ``1/(n/2 + 1)``, mirroring the pattern of the
    paper's 8-interval example.
    """
    if num_intervals < 2:
        raise ValueError("need at least two loss intervals")
    half = num_intervals // 2
    weights = []
    for i in range(num_intervals):
        if i < half:
            weights.append(1.0)
        else:
            weights.append(1.0 - (i - half + 1) / (num_intervals - half + 1.0))
    return weights


#: The TFMCCConfig fields that must be finite numbers > 0.
POSITIVE_FIELDS = (
    "packet_size",
    "initial_rtt",
    "max_rtt",
    "feedback_rtts",
    "slowstart_overshoot",
    "clr_timeout_feedback_delays",
    "clr_increase_limit_packets_per_rtt",
    "previous_clr_timeout_rtts",
    "sender_report_interval_rtts",
    "initial_rate_packets",
)


@dataclass
class TFMCCConfig:
    """Tunable parameters of the TFMCC protocol (paper defaults).

    Attributes
    ----------
    packet_size:
        Data packet size ``s`` in bytes.
    initial_rtt:
        RTT estimate used by receivers before their first measurement
        (Section 2.4.1: "we assume that for most networks a value of 500 ms
        is appropriate").
    max_rtt:
        Upper bound on the group RTT advertised by the sender; feedback round
        duration is a multiple of this value.
    clr_rtt_gain / receiver_rtt_gain:
        EWMA gains for RTT smoothing (Section 2.4.2: 0.05 for the CLR, 0.5
        for other receivers).
    one_way_rtt_gain:
        EWMA gain for one-way-delay based RTT adjustments (smaller because
        they happen on every data packet, Section 2.4.3).
    num_loss_intervals:
        Loss-history length ``m`` (8..32, default 8).
    loss_interval_weights:
        Weights for the weighted average loss interval; default matches the
        paper's example for ``m = 8``.
    feedback_rtts:
        Feedback delay ``T`` as a multiple of ``max_rtt`` (Section 2.5.1:
        values 3..6 are useful, default 4).
    receiver_estimate:
        Upper bound ``N`` on the number of receivers used by the feedback
        timers (paper simulations use 10 000).
    bias_method:
        Feedback-timer biasing method (Section 2.5.1); the paper's choice is
        the modified offset method.
    offset_fraction:
        Fraction of ``T`` used for the rate-dependent deterministic offset
        (the remaining ``(1 - offset_fraction) * T`` spreads the random part).
    cancellation_delta:
        Feedback-cancellation threshold delta (Section 2.5.2): cancel the
        feedback timer on hearing an echoed rate ``X_fb`` when the receiver's
        own calculated rate satisfies ``X_calc >= (1 - delta) * X_fb``.
        delta = 0 cancels only on strictly lower echoed rates, delta = 1
        cancels on any echoed feedback; the paper recommends 0.1.
    low_rate_spacing_packets:
        ``g`` in Section 2.5.3: feedback delay is at least ``(g + 1)`` data
        packet intervals to keep suppression working at low sending rates.
    slowstart_overshoot:
        ``d`` in Section 2.6: slowstart target is ``d`` times the minimum
        receive rate (paper uses 2).
    clr_timeout_feedback_delays:
        Number of feedback delays without CLR feedback after which the CLR is
        assumed to have left (Section 4.2: 10).
    clr_increase_limit_packets_per_rtt:
        Rate-increase limit (in packets per RTT) applied after a CLR change
        (Section 2.2: one packet per RTT, TCP's additive-increase constant).
    remember_previous_clr / previous_clr_timeout_rtts:
        Appendix C option: keep the previous CLR's state for a few RTTs and
        switch back without feedback if its rate is still lower.
    sender_report_interval_rtts:
        Interval, in CLR RTTs, between unsuppressed CLR reports.
    initial_rate_packets:
        Initial sending rate, in packets per ``initial_rtt``.
    rate_truncation_high / rate_truncation_low:
        Bounds of the normalised bias range for the modified offset method
        (Section 2.5.1: bias starts below 90 % of the sending rate and
        saturates at 50 %).
    """

    packet_size: int = 1000
    # RTT measurement
    initial_rtt: float = 0.5
    max_rtt: float = 0.5
    clr_rtt_gain: float = 0.05
    receiver_rtt_gain: float = 0.5
    one_way_rtt_gain: float = 0.05
    # Loss measurement
    num_loss_intervals: int = 8
    loss_interval_weights: Optional[List[float]] = field(
        default_factory=lambda: list(DEFAULT_LOSS_INTERVAL_WEIGHTS)
    )
    # Feedback
    feedback_rtts: float = 4.0
    receiver_estimate: int = 10000
    bias_method: BiasMethod = BiasMethod.MODIFIED_OFFSET
    offset_fraction: float = 0.25
    cancellation_delta: float = 0.1
    low_rate_spacing_packets: int = 3
    rate_truncation_high: float = 0.9
    rate_truncation_low: float = 0.5
    # Sender behaviour
    slowstart_overshoot: float = 2.0
    clr_timeout_feedback_delays: float = 10.0
    clr_increase_limit_packets_per_rtt: float = 1.0
    remember_previous_clr: bool = False
    previous_clr_timeout_rtts: float = 4.0
    sender_report_interval_rtts: float = 1.0
    initial_rate_packets: float = 1.0

    def __post_init__(self) -> None:
        # Each is a divisor, a multiple of one or an event delay: a NaN one
        # fails mid-run and an infinite one stalls or hangs it.
        for name in POSITIVE_FIELDS:
            value = getattr(self, name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not 0.0 <= self.cancellation_delta <= 1.0:
            raise ValueError("cancellation_delta must be in [0, 1]")
        if not 0.0 < self.offset_fraction < 1.0:
            raise ValueError("offset_fraction must be in (0, 1)")
        if self.num_loss_intervals < 2:
            raise ValueError("num_loss_intervals must be >= 2")
        if self.loss_interval_weights is None:
            self.loss_interval_weights = loss_interval_weights(self.num_loss_intervals)
        if len(self.loss_interval_weights) != self.num_loss_intervals:
            # Regenerate weights when the history length is customised but the
            # weights were left at their default.
            if list(self.loss_interval_weights) == DEFAULT_LOSS_INTERVAL_WEIGHTS:
                self.loss_interval_weights = loss_interval_weights(self.num_loss_intervals)
            else:
                raise ValueError(
                    "loss_interval_weights length must equal num_loss_intervals"
                )
        if self.receiver_estimate < 1:
            raise ValueError("receiver_estimate must be >= 1")
        if not self.rate_truncation_low < self.rate_truncation_high <= 1.0:
            raise ValueError("rate truncation bounds must satisfy low < high <= 1")

    @property
    def feedback_delay(self) -> float:
        """Maximum feedback delay ``T`` in seconds (before low-rate scaling)."""
        return self.feedback_rtts * self.max_rtt

    def feedback_delay_for_rate(self, send_rate_bps: float) -> float:
        """Feedback delay adjusted for low sending rates (Section 2.5.3)."""
        if send_rate_bps <= 0:
            return self.feedback_delay
        packet_interval = self.packet_size * 8.0 / send_rate_bps
        return max(self.feedback_delay, (self.low_rate_spacing_packets + 1) * packet_interval)
