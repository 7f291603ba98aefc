"""Analytical and reduced models of TFMCC's mechanisms.

The paper evaluates the feedback-suppression mechanism (Figures 1-6) with a
one-round model and the throughput scaling with receiver-set size (Figure 7)
with order statistics of the loss-interval distribution; the analytic curve
of loss events per RTT (Figure 17) comes directly from the control equation.
This subpackage implements those models:

* :mod:`repro.analysis.feedback_model` -- closed-form expected number of
  duplicate feedback messages and response-time model,
* :mod:`repro.analysis.feedback_rounds` -- a standalone Monte-Carlo simulator
  of a single feedback round (timer draws, network delays, suppression),
* :mod:`repro.analysis.scaling` -- exact order-statistic integral of the
  throughput degradation with many receivers,
* :mod:`repro.analysis.tcp_model` -- loss-events-per-RTT curve.
"""

from repro.analysis.feedback_model import (
    expected_feedback_messages,
    expected_response_time,
    feedback_cdf,
)
from repro.analysis.feedback_rounds import FeedbackRoundResult, FeedbackRoundSimulator
from repro.analysis.scaling import (
    expected_minimum_rate_constant_loss,
    expected_minimum_rate_heterogeneous,
    realistic_loss_distribution,
    throughput_scaling_curve,
)
from repro.analysis.tcp_model import loss_events_per_rtt_curve

__all__ = [
    "FeedbackRoundResult",
    "FeedbackRoundSimulator",
    "expected_feedback_messages",
    "expected_minimum_rate_constant_loss",
    "expected_minimum_rate_heterogeneous",
    "expected_response_time",
    "feedback_cdf",
    "loss_events_per_rtt_curve",
    "realistic_loss_distribution",
    "throughput_scaling_curve",
]
