"""Structured event tracing for simulation runs.

:class:`TraceRecorder` is a channelled append-only event sink: protocol
agents and probes call :meth:`TraceRecorder.emit` with a channel name, the
simulation time and a few positional fields.  It replaces the bespoke
"add another counter to the agent and another field to the record" pattern —
any component can stream structured events without the collection layer
knowing about it in advance.

Channels emitted by the built-in probes
---------------------------------------

``round``        ``(t, flow_id, round_id, rate_bps, feedback, nonclr_feedback)``
                 one event per completed feedback round (sender).
``clr_change``   ``(t, flow_id, receiver_id, rate_bps)`` CLR switches (sender).
``feedback``     ``(t, flow_id, receiver_id, is_clr)`` reports reaching the
                 sender.
``loss_event``   ``(t, receiver_id, new_events, loss_event_rate)`` loss events
                 detected by a receiver.
``suppressed``   ``(t, receiver_id, round_id)`` feedback timers cancelled by
                 echoed feedback.
``queue``        ``(t, link_name, queue_length)`` sampled queue occupancy
                 (:class:`QueueOccupancyProbe`).
``tfrc_report``  ``(t, flow_id, rate_bps, receive_rate_bps, loss_event_rate)``
                 one event per feedback report a TFRC sender processed; TFRC
                 receivers additionally share the ``loss_event`` and
                 ``feedback`` channels with their TFMCC counterparts.
``dynamics``     ``(t, kind, target)`` time-scripted network events applied
                 by the scenario builder (link failures, parameter steps,
                 channel updates, membership churn).
``channel``      ``(t, link_name, per, snr_db, collisions)`` sampled state of
                 observable channel models (:class:`ChannelStateProbe`);
                 ``snr_db`` is None for non-SNR models, ``collisions`` is
                 None for non-contention models.
``mobility``     ``(t, moved)`` one event per mobility update tick: how many
                 link channels had their SNR re-derived from node positions.
``route_rebuild`` ``(t, reason, topology_version)`` unicast-route rebuilds
                 (and multicast re-grafts) triggered by live topology
                 changes (emitted by ``Network``).
``rtt_acquired`` ``(t, receiver_id)`` a receiver's first real (echo-based) RTT
                 measurement; at most once per receiver.
``slowstart_exit`` ``(t, flow_id, rate_bps)`` the sender leaving slowstart and
                 the rate it had reached; at most once per sender.

The recorder is deliberately dumb — ordered tuples per channel — so emitting
is one dict lookup and one list append on the hot path.  Interpretation lives
in :func:`summarise_trace`, which reduces a finished run's trace to the
compact JSON-compatible summary embedded in result records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import loss_interval_stats, summary_stats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids simulator imports
    from repro.simulator.engine import Simulator


class TraceRecorder:
    """Append-only, channelled event sink for simulation probes.

    Parameters
    ----------
    max_events_per_channel:
        Safety cap per channel; once reached further events on that channel
        are counted in :attr:`dropped` instead of stored, so a pathological
        run cannot exhaust memory through tracing.
    """

    __slots__ = ("_events", "dropped", "max_events_per_channel")

    def __init__(self, max_events_per_channel: int = 500_000):
        self._events: Dict[str, List[tuple]] = {}
        self.dropped: Dict[str, int] = {}
        self.max_events_per_channel = max_events_per_channel

    def emit(self, channel: str, time: float, *fields: Any) -> None:
        """Record one event on ``channel`` at simulation time ``time``."""
        events = self._events.get(channel)
        if events is None:
            events = self._events[channel] = []
        if len(events) >= self.max_events_per_channel:
            self.dropped[channel] = self.dropped.get(channel, 0) + 1
            return
        events.append((time,) + fields)

    def events(self, channel: str) -> List[tuple]:
        """All events of a channel in emission order (empty if unused)."""
        return self._events.get(channel, [])

    def count(self, channel: str) -> int:
        return len(self._events.get(channel, ()))

    def channels(self) -> List[str]:
        return sorted(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped.clear()


class QueueOccupancyProbe:
    """Samples the queue length of a set of links on a fixed interval.

    A single recurring simulator event walks all links, so the per-sample
    cost is one ``emit`` per link and the data plane itself is untouched.
    """

    def __init__(
        self,
        sim: "Simulator",
        recorder: TraceRecorder,
        links: Sequence[Any],
        interval: float = 0.5,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.recorder = recorder
        self.links = list(links)
        self.interval = interval
        self._timer = None
        self.samples = 0

    def start(self, at: float = 0.0) -> None:
        self._timer = self.sim.schedule_at(max(at, self.sim.now), self._sample)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        now = self.sim.now
        emit = self.recorder.emit
        for link in self.links:
            emit("queue", now, link.name, link.queue_length)
        self.samples += 1
        self._timer = self.sim.reschedule(self._timer, self.interval, self._sample)


class ChannelStateProbe:
    """Samples the state of observable channel models on a fixed interval.

    Observability is checked live on every tick (not frozen at attach time),
    so channels installed mid-run by ``channel_update`` dynamics events are
    picked up as soon as they appear.  Emits one ``channel`` event per
    observable link per tick: ``(t, link_name, per, snr_db, collisions)``.
    """

    def __init__(
        self,
        sim: "Simulator",
        recorder: TraceRecorder,
        links: Sequence[Any],
        interval: float = 0.5,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.recorder = recorder
        self.links = list(links)
        self.interval = interval
        self._timer = None
        self.samples = 0

    def start(self, at: float = 0.0) -> None:
        self._timer = self.sim.schedule_at(max(at, self.sim.now), self._sample)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        now = self.sim.now
        emit = self.recorder.emit
        for link in self.links:
            channel = link.channel
            if channel is None or not channel.observable:
                continue
            state = channel.state()
            emit(
                "channel",
                now,
                link.name,
                state.get("per"),
                state.get("snr_db"),
                state.get("collisions"),
            )
        self.samples += 1
        self._timer = self.sim.reschedule(self._timer, self.interval, self._sample)


def summarise_trace(
    recorder: TraceRecorder,
    warmup: float = 0.0,
    loss_intervals: Optional[Sequence[Sequence[float]]] = None,
    time_resolved: bool = False,
) -> Dict[str, Any]:
    """Reduce a finished run's trace to a JSON-compatible summary.

    Only events at or after ``warmup`` contribute (matching the warmup
    convention of the throughput metrics).  ``loss_intervals`` optionally
    supplies the per-receiver closed loss intervals collected at run end, so
    the summary can include Section-2.3 loss-interval statistics.
    ``time_resolved`` (a run that asked for both ``with_trace`` and
    ``with_series``) gives static runs the ``dynamics`` section too, plus
    the two emit-once channels; a ``with_trace``-only summary is unchanged.
    """
    rounds = [e for e in recorder.events("round") if e[0] >= warmup]
    feedback_per_round = [e[4] for e in rounds]
    nonclr_per_round = [e[5] for e in rounds]
    rates = [e[3] for e in rounds]
    queue_samples = [e[2] for e in recorder.events("queue") if e[0] >= warmup]
    loss_events = [e for e in recorder.events("loss_event") if e[0] >= warmup]

    summary: Dict[str, Any] = {
        "rounds": len(rounds),
        "clr_changes": sum(1 for e in recorder.events("clr_change") if e[0] >= warmup),
        "feedback": {
            "messages": sum(feedback_per_round),
            "per_round": summary_stats(feedback_per_round),
            "nonclr_per_round": summary_stats(nonclr_per_round),
        },
        "suppressed": sum(1 for e in recorder.events("suppressed") if e[0] >= warmup),
        "loss_events": sum(e[2] for e in loss_events),
        "sender_rate": summary_stats(rates),
        "queue": summary_stats(queue_samples),
    }
    tfrc_reports = [e for e in recorder.events("tfrc_report") if e[0] >= warmup]
    if tfrc_reports:
        # Present only when TFRC flows ran, so TFMCC-only summaries (and
        # with them pre-redesign records) are unchanged.
        summary["tfrc"] = {
            "reports": len(tfrc_reports),
            "rate": summary_stats([e[2] for e in tfrc_reports]),
            "loss_event_rate": summary_stats([e[4] for e in tfrc_reports]),
        }
    dynamics_events = recorder.events("dynamics")
    route_rebuilds = recorder.events("route_rebuild")
    if dynamics_events or route_rebuilds or time_resolved:
        # Time-resolved detail for the responsiveness analysis: when did the
        # scripted events fire, when were routes rebuilt, when did the CLR
        # switch and how did the sender rate evolve round by round.  Only
        # present for dynamics runs (or on request), so static-run
        # summaries are unchanged.
        # Each entry carries the sender flow id (last element) so multi-flow
        # scenarios stay distinguishable after the reduction.
        summary["dynamics"] = {
            "events": [list(e) for e in dynamics_events],
            "route_rebuilds": len(route_rebuilds),
            "clr_switches": [[e[0], e[2], e[1]] for e in recorder.events("clr_change")][:500],
            "rate_series": [[e[0], e[3], e[1]] for e in recorder.events("round")][:2000],
        }
        if time_resolved:
            summary["dynamics"]["rtt_acquired"] = [
                list(e) for e in recorder.events("rtt_acquired")
            ][:2000]
            summary["dynamics"]["slowstart_exit"] = [
                list(e) for e in recorder.events("slowstart_exit")
            ]
    channel_events = recorder.events("channel")
    mobility_events = recorder.events("mobility")
    if channel_events or mobility_events:
        # Channel-layer telemetry: PER/SNR statistics over the sampled
        # observable channels, collision totals, and capped time series for
        # the wireless figures.  Only present when the channel probe or the
        # mobility driver ran, so pre-channel summaries are unchanged.
        post = [e for e in channel_events if e[0] >= warmup]
        pers = [e[2] for e in post if e[2] is not None]
        snrs = [e[3] for e in post if e[3] is not None]
        collisions_final: Dict[str, float] = {}
        for e in channel_events:
            if e[4] is not None:
                # Cumulative counter: the last sample per link is the total.
                collisions_final[e[1]] = e[4]
        summary["channel"] = {
            "samples": len(post),
            "per": summary_stats(pers),
            "snr_db": summary_stats(snrs),
            "collisions": sum(collisions_final.values()),
            "per_series": [[e[0], e[1], e[2]] for e in channel_events][:2000],
            "snr_series": [
                [e[0], e[1], e[3]] for e in channel_events if e[3] is not None
            ][:2000],
            "mobility_updates": len(mobility_events),
        }
    if loss_intervals is not None:
        merged: List[float] = []
        receivers_with_loss = 0
        for intervals in loss_intervals:
            if intervals:
                receivers_with_loss += 1
                merged.extend(intervals)
        stats = loss_interval_stats(merged)
        stats["receivers_with_loss"] = receivers_with_loss
        summary["loss_intervals"] = stats
    if recorder.dropped:
        summary["dropped_events"] = dict(sorted(recorder.dropped.items()))
    return summary
