"""Throughput scaling with the receiver-set size (Figure 7 and Figure 17).

Figure 7 shows the expected TFMCC throughput as a function of the number of
receivers for (a) all receivers experiencing independent loss at the same
10 % rate and (b) a realistic tree-like loss distribution.  Figure 17 is the
analytic loss-events-per-RTT curve used in Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.scaling import throughput_scaling_curve
from repro.analysis.tcp_model import loss_events_per_rtt_curve, peak_loss_events_per_rtt
from repro.core.config import loss_interval_weights


@dataclass
class ScalingPoint:
    """One point of the Figure 7 curves (rates in kbit/s)."""

    num_receivers: int
    constant_loss_kbps: float
    realistic_loss_kbps: float


def figure7_scaling(
    receiver_counts: Sequence[int] = (1, 10, 100, 1000, 10000),
    loss_rate: float = 0.1,
    rtt: float = 0.05,
    history_length: int = 8,
) -> List[ScalingPoint]:
    """Figure 7: throughput vs receiver count for the two loss distributions.

    ``history_length`` controls the loss-history length m; increasing it
    (e.g. to 32) alleviates the degradation at the cost of responsiveness --
    the ablation benchmark sweeps this parameter.
    """
    curve = throughput_scaling_curve(
        receiver_counts, loss_rate, rtt, weights=loss_interval_weights(history_length)
    )
    return [ScalingPoint(*point) for point in curve]


def figure17_loss_events_per_rtt() -> Tuple[List[Tuple[float, float]], Tuple[float, float]]:
    """Figure 17: loss events per RTT vs loss event rate, plus the curve peak."""
    return loss_events_per_rtt_curve(), peak_loss_events_per_rtt()
