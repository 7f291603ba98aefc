"""TFMCC: TCP-Friendly Multicast Congestion Control.

This subpackage implements the paper's primary contribution:

* :mod:`repro.core.equations` -- the TCP throughput models (Padhye and
  Mathis) and their inverses,
* :mod:`repro.core.loss_history` -- loss-event detection and the weighted
  loss-interval history,
* :mod:`repro.core.rtt` -- scalable round-trip time estimation,
* :mod:`repro.core.feedback` -- biased exponentially-distributed feedback
  timers and suppression rules,
* :mod:`repro.core.sender` / :mod:`repro.core.receiver` -- the TFMCC sender
  and receiver agents that run on the packet-level simulator.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.config": ("TFMCCConfig",),
    "repro.core.equations": (
        "loss_events_per_rtt",
        "mathis_loss_rate",
        "mathis_throughput",
        "padhye_loss_rate",
        "padhye_throughput",
    ),
    "repro.core.feedback": ("BiasMethod", "FeedbackTimerPolicy"),
    "repro.core.loss_history": ("LossEventDetector", "LossIntervalHistory"),
    "repro.core.receiver": ("TFMCCReceiver",),
    "repro.core.rtt": ("ReceiverRTTEstimator", "SenderRTTEstimator"),
    "repro.core.sender": ("TFMCCSender",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
