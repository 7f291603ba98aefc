"""Metrics subsystem: trace probes, paper metrics and sweep aggregation.

Three layers, lowest first:

* :mod:`repro.metrics.trace` — :class:`TraceRecorder` and probes that stream
  structured events (feedback rounds, CLR changes, loss events, queue
  occupancy) out of a running simulation;
* :mod:`repro.metrics.stats` — pure functions computing the paper's headline
  quantities (Jain fairness, TCP-friendliness, rate CoV, loss-interval
  statistics, scaling degradation);
* :mod:`repro.metrics.aggregate` — grouping and shard-merging aggregation
  over sweep result records.

The :mod:`repro.report` package composes these into per-figure datasets.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.metrics.trace": ("TraceRecorder", "QueueOccupancyProbe", "summarise_trace"),
    "repro.metrics.stats": (
        "jain_fairness",
        "windowed_fairness",
        "coefficient_of_variation",
        "summary_stats",
        "tcp_friendliness_ratio",
        "model_tcp_rate_bps",
        "loss_interval_stats",
        "degradation_curve",
    ),
    "repro.metrics.aggregate": (
        "load_records",
        "merge_shards",
        "record_engine",
        "record_param",
        "group_records",
        "aggregate_field",
        "scaling_points",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
