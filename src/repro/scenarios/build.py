"""Turn a :class:`~repro.scenarios.spec.ScenarioSpec` into live simulation.

``build_scenario`` constructs the simulator and topology, then materialises
every flow of the spec's unified ``flows`` tuple through the protocol
registry (:mod:`repro.protocols`) exactly in spec order — TFMCC sessions
with membership schedules, TFRC flows, TCP flows, background sources, and
any protocol registered later — so that a given (spec, seed) pair always
produces the same event sequence — and therefore bit-identical results —
regardless of where or how the run is executed (inline, CLI, or a sweep
worker process).

``run_scenario`` is the pure function used by the sweep runner: it builds,
runs, and reduces the simulation to a JSON-compatible result record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.channel import SnrPerChannel
from repro.telemetry.collect import collect_run
from repro.metrics.trace import (
    ChannelStateProbe,
    QueueOccupancyProbe,
    TraceRecorder,
    summarise_trace,
)
from repro.protocols import BuiltFlow, get_protocol
from repro.scenarios.spec import (
    ChainSpec,
    CustomSpec,
    DumbbellSpec,
    DuplexLinkSpec,
    ImpairmentSpec,
    NetworkEventSpec,
    ScenarioSpec,
    StarSpec,
    TopologySpec,
    edge_runs,
)
from repro.session import TFMCCSession
from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor, fairness_index
from repro.simulator.sources import TrafficSink
from repro.simulator.topology import Network

# The protocol factories import their agents inside ``build``, so a spec
# validates without the simulator.  The run path loads them here instead:
# a sweep, service or report parent then has them before its pool forks.
import repro.tcp  # noqa: F401
import repro.tfrc  # noqa: F401


def _topology_impairments(topo: TopologySpec) -> List[ImpairmentSpec]:
    """Every per-link impairment a topology spec carries."""
    imps = [link.impairment for link in topo.extra_links]
    if isinstance(topo, StarSpec):
        imps.extend(edge.impairment for edge, _ in edge_runs(topo.leaves))
    elif isinstance(topo, ChainSpec):
        imps.extend(hop.impairment for hop in topo.hops)
    return imps


def spec_uses_channels(spec: ScenarioSpec) -> bool:
    """True when the spec engages the channel layer anywhere.

    Gates everything channel-related that would alter a record — the
    channel trace probe (extra simulator events), the ``channel_drops``
    link-stats key, the trace summary section — so records of pre-channel
    specs stay byte-identical.
    """
    if any(imp.channel is not None for imp in _topology_impairments(spec.topology)):
        return True
    if any(event.kind == "channel_update" for event in spec.dynamics.events):
        return True
    return spec.dynamics.mobility is not None


def _jitter(impairment: ImpairmentSpec, default: Optional[float] = None) -> float:
    """Resolve a link's jitter: explicit spec value wins, else the default."""
    if impairment.jitter is not None:
        return impairment.jitter
    return default if default is not None else 0.0


def _add_duplex(net: Network, link: DuplexLinkSpec) -> None:
    net.add_duplex_link(
        link.a,
        link.b,
        link.bandwidth,
        link.delay,
        link.queue_limit,
        jitter=_jitter(link.impairment),
        channel_factory=link.impairment.channel_factory(),
    )


def build_network(sim: Simulator, topo: TopologySpec) -> Network:
    """Construct the :class:`Network` described by a topology spec."""
    if isinstance(topo, DumbbellSpec):
        net = Network.dumbbell(
            sim,
            num_left=topo.num_left,
            num_right=topo.num_right,
            bottleneck_bandwidth=topo.bottleneck_bps,
            bottleneck_delay=topo.bottleneck_delay,
            access_bandwidth=topo.access_bps,
            access_delay=topo.access_delay,
            queue_limit=topo.queue_limit,
            access_queue_limit=topo.access_queue_limit,
            access_jitter=topo.access_jitter,
        )
    elif isinstance(topo, StarSpec):
        jitter = topo.jitter
        runs = edge_runs(topo.leaves)
        if jitter is None and runs:
            # Phase-effect mitigation: one packet time at the slowest leaf.
            jitter = 1000.0 * 8.0 / min(leaf.bandwidth for leaf, _ in runs)
        net = Network(sim)
        net.add_duplex_link("source", "hub", topo.hub_bps, topo.hub_delay, jitter=jitter or 0.0)
        first = 0
        for leaf, count in runs:
            leaf_jitter = _jitter(leaf.impairment, jitter)
            channel_factory = leaf.impairment.channel_factory()
            for i in range(first, first + count):
                net.add_duplex_link(
                    f"leaf{i}",
                    "hub",
                    leaf.bandwidth,
                    leaf.delay,
                    leaf.queue_limit,
                    jitter=leaf_jitter,
                    channel_factory=channel_factory,
                )
            first += count
    elif isinstance(topo, ChainSpec):
        jitter = topo.jitter
        if jitter is None and topo.hops:
            jitter = 1000.0 * 8.0 / min(hop.bandwidth for hop in topo.hops)
        net = Network(sim)
        for i, hop in enumerate(topo.hops):
            net.add_duplex_link(
                f"n{i}",
                f"n{i + 1}",
                hop.bandwidth,
                hop.delay,
                hop.queue_limit,
                jitter=_jitter(hop.impairment, jitter),
                channel_factory=hop.impairment.channel_factory(),
            )
    elif isinstance(topo, CustomSpec):
        net = Network(sim)
    else:
        raise ValueError(f"cannot build topology of type {type(topo).__name__}")

    for extra in topo.extra_links:
        _add_duplex(net, extra)
    return net


# ----------------------------------------------------------------- dynamics


def _event_links(net: Network, event: NetworkEventSpec) -> List[Any]:
    """Resolve the link direction(s) a link event applies to (fail fast)."""
    pairs = []
    if event.direction in ("both", "forward"):
        pairs.append((event.a, event.b))
    if event.direction in ("both", "reverse"):
        pairs.append((event.b, event.a))
    links = []
    for src, dst in pairs:
        link = net.link_between(src, dst)
        if link is None:
            raise ValueError(
                f"dynamics event {event.kind!r} at t={event.at}: "
                f"no link {src!r}->{dst!r} in the topology"
            )
        links.append(link)
    return links


def _apply_link_event(built: "BuiltScenario", event: NetworkEventSpec) -> None:
    net = built.network
    if built.recorder is not None:
        built.recorder.emit("dynamics", built.sim.now, event.kind, event.target)
    if event.kind == "link_down":
        net.fail_link(event.a, event.b)
        return
    if event.kind == "link_up":
        net.restore_link(event.a, event.b)
        return
    links = _event_links(net, event)
    if event.kind == "channel_update":
        for link in links:
            if event.channel is not None:
                # One fresh model per direction: channel state is never shared.
                link.set_channel(event.channel.build())
            if event.snr_db is not None:
                channel = link.channel
                if not hasattr(channel, "set_snr"):
                    raise ValueError(
                        f"channel_update at t={event.at}: link {link.name} has "
                        f"no SNR-tunable channel (found "
                        f"{type(channel).__name__}); install an snr_per "
                        "channel first or give channel= instead of snr_db="
                    )
                channel.set_snr(event.snr_db)
        return
    if event.bandwidth is not None:
        for link in links:
            link.set_bandwidth(event.bandwidth)
    if event.loss_rate is not None:
        for link in links:
            link.set_loss_rate(event.loss_rate)
    if event.gilbert_elliott is not None:
        for link in links:
            link.set_channel(event.gilbert_elliott.build())
    if event.delay is not None:
        # Delay is the routing weight: routes and trees rebuild.
        net.set_link_delay(event.a, event.b, event.delay)


def _apply_member_event(
    built: "BuiltScenario", event: NetworkEventSpec, session: TFMCCSession, receiver_id: str
) -> None:
    if built.recorder is not None:
        built.recorder.emit("dynamics", built.sim.now, event.kind, receiver_id)
    if event.kind == "receiver_join":
        session.add_receiver(event.node, receiver_id=receiver_id)
    else:
        session.remove_receiver(receiver_id)


class _MobilityDriver:
    """Recurring event that re-derives SNR->PER channels from node motion.

    Every ``update_interval`` (starting at t=0, so static positions take
    effect before the first packet) the driver interpolates node positions
    from the waypoint schedule and, for each link whose channel is an
    ``snr_per`` model with both endpoint positions known, re-derives the
    channel SNR from the euclidean endpoint distance.
    """

    def __init__(self, built: "BuiltScenario"):
        self.built = built
        self.mobility = built.spec.dynamics.mobility
        self._timer = None

    def start(self) -> None:
        self._timer = self.built.sim.schedule_at(0.0, self._update)

    def _update(self) -> None:
        built, mobility = self.built, self.mobility
        sim = built.sim
        now = sim.now
        moved = 0
        for link in built.network.links:
            channel = link.channel
            if not isinstance(channel, SnrPerChannel):
                continue
            pos_src = mobility.position_at(link.src.node_id, now)
            pos_dst = mobility.position_at(link.dst.node_id, now)
            if pos_src is None or pos_dst is None:
                continue
            channel.set_distance(
                math.hypot(pos_src[0] - pos_dst[0], pos_src[1] - pos_dst[1])
            )
            moved += 1
        built.mobility_updates += 1
        if built.recorder is not None:
            built.recorder.emit("mobility", now, moved)
        self._timer = sim.reschedule(self._timer, mobility.update_interval, self._update)


def _schedule_dynamics(built: "BuiltScenario") -> None:
    """Schedule every dynamics event; same-time events fire in spec order.

    Scheduling happens once at build time (in spec order), so the event
    sequence — and with it every downstream RNG draw — is identical across
    processes and executions.
    """
    spec, sim, net = built.spec, built.sim, built.network
    flow_names = [session.name for session in built.sessions]
    sessions = dict(zip(flow_names, built.sessions))
    for index, event in enumerate(spec.dynamics.events):
        if event.kind in ("receiver_join", "receiver_leave"):
            flow = event.flow if event.flow is not None else flow_names[0]
            session = sessions.get(flow)
            if session is None:
                raise ValueError(
                    f"dynamics event at t={event.at} references unknown TFMCC "
                    f"flow {flow!r} (flows: {', '.join(flow_names) or 'none'})"
                )
            if event.kind == "receiver_join":
                # Pre-assign the receiver id so the metrics layer knows all
                # flows up front (the receiver object is created at join time).
                rid = event.receiver_id or f"{session.name}-dyn{index}"
                built.receiver_ids[flow_names.index(flow)].append(rid)
            else:
                rid = event.receiver_id
            sim.schedule_at(event.at, _apply_member_event, built, event, session, rid)
        else:
            _event_links(net, event)  # validate endpoints at build time
            sim.schedule_at(event.at, _apply_link_event, built, event)
    if spec.dynamics.mobility is not None:
        _MobilityDriver(built).start()


@dataclass
class BuiltScenario:
    """A scenario materialised into live simulator objects, ready to run."""

    spec: ScenarioSpec
    seed: int
    sim: Simulator
    network: Network
    monitor: ThroughputMonitor
    #: One entry per spec flow, in spec order (built by the protocol registry).
    flows: List[BuiltFlow] = field(default_factory=list)
    sessions: List[TFMCCSession] = field(default_factory=list)
    #: Receiver ids per session, in spec order (including scheduled joiners).
    receiver_ids: List[List[str]] = field(default_factory=list)
    background: Dict[str, Tuple[Any, TrafficSink]] = field(default_factory=dict)
    #: Structured trace sink; set when the spec (or caller) asked for tracing.
    recorder: Optional[TraceRecorder] = None
    #: Mobility driver ticks executed (0 for specs without mobility).
    mobility_updates: int = 0

    def run(self) -> float:
        """Run the simulation to the scenario's configured duration."""
        return self.sim.run(until=self.spec.duration)

    def collect(self) -> Dict[str, Any]:
        """Reduce the finished run to a JSON-compatible result record."""
        return collect_record(self)


def build_scenario(
    spec: ScenarioSpec,
    seed: int = 1,
    recorder: Optional[TraceRecorder] = None,
) -> BuiltScenario:
    """Materialise ``spec`` into a ready-to-run simulation.

    Every flow in ``spec.flows`` is built, in spec order, by the factory its
    ``kind`` names in the protocol registry (:mod:`repro.protocols`);
    protocol parameters live in ``FlowSpec.params``
    (``spec.with_tfmcc_config(config)`` writes a whole config there).
    ``recorder`` attaches the structured trace probes; when None,
    ``spec.metrics.with_trace`` creates one implicitly so that tracing also
    works through the multiprocessing sweep path (the recorder itself stays
    in the worker, the record carries its summary).
    """
    spec.check_endpoints()
    sim = Simulator(seed=seed)
    network = build_network(sim, spec.topology)
    monitor = ThroughputMonitor(sim, interval=spec.metrics.interval)
    if recorder is None and spec.metrics.with_trace:
        recorder = TraceRecorder()
    built = BuiltScenario(
        spec=spec, seed=seed, sim=sim, network=network, monitor=monitor, recorder=recorder
    )
    if recorder is not None:
        # Route rebuilds triggered by dynamics land on the trace.
        network.probe = recorder
    if recorder is not None and network.links:
        QueueOccupancyProbe(
            sim, recorder, network.links, interval=spec.metrics.trace_queue_interval
        ).start()
    if recorder is not None and network.links and spec_uses_channels(spec):
        # Gated on channel use: the probe schedules simulator events, which
        # feed the record's event count — pre-channel records must not move.
        ChannelStateProbe(
            sim, recorder, network.links, interval=spec.metrics.trace_queue_interval
        ).start()

    # Flows build strictly in spec order — the construction order (and with
    # it every RNG draw downstream) is part of the determinism contract.
    # Session/flow names are canonical in the spec, so records never depend
    # on process-local counters.
    for flow in spec.flows:
        built.flows.append(get_protocol(flow.kind).build(built, flow))

    if spec.dynamics:
        _schedule_dynamics(built)

    return built


# ------------------------------------------------------------------ metrics


def collect_record(built: BuiltScenario) -> Dict[str, Any]:
    """Summarise a finished run as a plain-JSON result record."""
    spec, monitor = built.spec, built.monitor
    duration = spec.duration
    t_start = duration * spec.metrics.warmup_fraction

    flows: List[Dict[str, Any]] = []
    series: Dict[str, List[List[float]]] = {}

    def add_flow(flow_id: str, kind: str) -> float:
        avg = monitor.average_throughput(flow_id, t_start, duration)
        flows.append({"id": flow_id, "kind": kind, "avg_bps": avg})
        if spec.metrics.with_series:
            series[flow_id] = [[t, v] for t, v in monitor.series(flow_id, 0.0, duration)]
        return avg

    # Per-kind rate pools: flows report under their protocol's record label
    # ("tfmcc" receivers, "tcp", "tfrc", "background"), in flow order.
    kind_rates: Dict[str, List[float]] = {"tfmcc": [], "tcp": [], "tfrc": []}
    for built_flow in built.flows:
        rates = kind_rates.get(built_flow.record_kind)
        for flow_id in built_flow.monitor_ids:
            avg = add_flow(flow_id, built_flow.record_kind)
            if rates is not None:
                rates.append(avg)

    tfmcc_rates, tcp_rates = kind_rates["tfmcc"], kind_rates["tcp"]
    tfmcc_mean = sum(tfmcc_rates) / len(tfmcc_rates) if tfmcc_rates else 0.0
    tcp_mean = sum(tcp_rates) / len(tcp_rates) if tcp_rates else 0.0

    record: Dict[str, Any] = {
        "scenario": spec.name,
        "seed": built.seed,
        "duration": duration,
        "warmup_s": t_start,
        "events": built.sim.events_processed,
        "flows": flows,
        "tfmcc_mean_bps": tfmcc_mean,
        "tcp_mean_bps": tcp_mean,
        "tfmcc_tcp_ratio": (tfmcc_mean / tcp_mean) if tcp_mean > 0 else None,
        # All adaptive transports join the Jain index; the TFRC list is
        # empty for specs without tfrc flows, so pre-redesign records are
        # byte-identical.
        "fairness_index": fairness_index(tfmcc_rates + tcp_rates + kind_rates["tfrc"]),
    }
    if any(bf.record_kind == "tfrc" for bf in built.flows):
        # Only specs carrying TFRC flows get the extra keys, so pre-redesign
        # records stay byte-identical.
        tfrc_rates = kind_rates["tfrc"]
        tfrc_mean = sum(tfrc_rates) / len(tfrc_rates) if tfrc_rates else 0.0
        record["tfrc_mean_bps"] = tfrc_mean
        record["tfmcc_tfrc_ratio"] = (tfmcc_mean / tfrc_mean) if tfrc_mean > 0 else None
    if spec.metrics.link_stats:
        record["links"] = {
            "packets_sent": sum(l.packets_sent for l in built.network.links),
            "queue_drops": sum(l.queue_drops for l in built.network.links),
            "random_drops": sum(l.random_drops for l in built.network.links),
        }
        if spec.dynamics:
            # Only dynamics scenarios can drop on downed links; keying the
            # extra field off the spec keeps static records byte-identical.
            record["links"]["down_drops"] = sum(
                l.down_drops for l in built.network.links
            )
        if spec_uses_channels(spec):
            # Per-cause channel-drop breakdown ("per", "collision", "burst",
            # "random"); gated on channel use so legacy records keep their
            # exact key set.
            by_cause: Dict[str, int] = {}
            for link in built.network.links:
                for cause, count in link.drops_by_cause.items():
                    by_cause[cause] = by_cause.get(cause, 0) + count
            record["links"]["channel_drops"] = {
                cause: by_cause[cause] for cause in sorted(by_cause)
            }
    if spec.metrics.with_series:
        record["series"] = series
    if built.recorder is not None:
        loss_intervals = [
            receiver.history.intervals
            for session in built.sessions
            for receiver in session.receivers.values()
        ]
        # Flows that declared loss-history sources (TFRC receivers share the
        # loss-interval machinery) join the summary too.
        loss_intervals.extend(
            history.intervals
            for built_flow in built.flows
            for history in built_flow.loss_histories
        )
        record["trace"] = summarise_trace(
            built.recorder,
            warmup=t_start,
            loss_intervals=loss_intervals,
            time_resolved=spec.metrics.with_trace and spec.metrics.with_series,
        )
    return record


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 1,
    recorder: Optional[TraceRecorder] = None,
) -> Dict[str, Any]:
    """Build, run and summarise ``spec`` — deterministic in (spec, seed).

    Dispatches on ``spec.engine.kind`` through the engine registry; the
    default ``"exact"`` engine is this module's :func:`build_scenario`, so
    default-spec records are byte-identical to the pre-registry behaviour.
    """
    from repro.engines import get_engine

    with telemetry.run_scope() as tel:
        if tel is not None:
            t0 = perf_counter()
        built = get_engine(spec.engine.kind).build(spec, seed=seed, recorder=recorder)
        if tel is None:
            built.run()
            return built.collect()
        t1 = perf_counter()
        tel.timing("phase.build", t1 - t0)
        built.run()
        t2 = perf_counter()
        tel.timing("phase.run", t2 - t1)
        record = built.collect()
        tel.timing("phase.collect", perf_counter() - t2)
        collect_run(tel, built)
        return record
