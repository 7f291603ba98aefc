"""Named-scenario registry.

Each entry maps a name to a *factory*: a function that turns keyword
parameters into a concrete :class:`ScenarioSpec`.  The registry is what the
``python -m repro`` CLI lists, runs and sweeps, and what every report figure
(:mod:`repro.report.figures`) requests its runs from — each simulated figure
of the paper is one or more of these scenarios plus a reduction.

Registered scenarios
--------------------
``fairness``                Figure 9: TFMCC + N TCP over one bottleneck.
``individual-bottlenecks``  Figure 10: per-receiver tail circuits.
``scaling``                 Receiver-count scaling on one bottleneck.
``responsiveness``          Figures 11/20: staggered joins/leaves on a star
                            of lossy (or, with ``link_delays``, slow) leaves.
``rtt_acquisition``         Figure 12: first RTT measurements, one bottleneck.
``rtt_step``                Figure 13: one receiver's RTT steps up mid-run.
``slowstart``               Figure 14: slowstart alone / against TCP flows.
``late-join``               Figures 15/16: slow receiver joins mid-session.
``return_path_traffic``     Figure 18: TCP flows on the receivers' return paths.
``lossy_return_paths``      Figure 19: lossy feedback/ACK paths.
``increasing_congestion``   Figure 21: the TCP flow count doubles per phase.
``bursty-loss``             NEW: Gilbert-Elliott bursty-loss multicast.
``background-traffic``      NEW: on-off CBR contention on the bottleneck.
``flash-crowd``             NEW: a crowd of receivers joins almost at once.
``link_failure_reroute``    DYNAMICS: primary-link failure, reroute + re-graft.
``bandwidth_step``          DYNAMICS: bottleneck bandwidth step.
``loss_step_responsiveness`` DYNAMICS: loss step + CLR hand-off.
``receiver_churn``          DYNAMICS: scripted join/leave churn schedules.
``tfmcc_vs_tfrc``           FLOWS: TFMCC vs its unicast ancestor, same path.
``protocol_mix``            FLOWS: every registered transport on one bottleneck.

The DYNAMICS scenarios are extensions in the spirit of the paper's
responsiveness experiments (Figures 11, 20 and 21), not reproductions of a
numbered figure.  Default parameter values are sized for interactive CLI use
(seconds, not minutes, of wall clock); the report figures pass the paper's
values, and so does e.g. ``--set duration=200``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.scenarios.spec import (
    ChannelSpec,
    CustomSpec,
    DumbbellSpec,
    DuplexLinkSpec,
    DynamicsSpec,
    EdgeSpec,
    FlowSpec,
    GilbertElliottSpec,
    ImpairmentSpec,
    MetricsSpec,
    MobilitySpec,
    NetworkEventSpec,
    ReceiverRun,
    ReceiverSpec,
    ScenarioSpec,
    StarSpec,
    WaypointSpec,
)


@dataclass(frozen=True)
class ScenarioFactory:
    """A named, parameterised recipe for building scenario specs."""

    name: str
    description: str
    build: Callable[..., ScenarioSpec]

    @property
    def defaults(self) -> Dict[str, Any]:
        """Keyword parameters of the factory and their default values."""
        return {
            p.name: p.default
            for p in inspect.signature(self.build).parameters.values()
            if p.default is not inspect.Parameter.empty
        }

    def validate_params(self, params: Any) -> None:
        """Raise ValueError if ``params`` names parameters the factory lacks."""
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"unknown parameters for scenario {self.name!r}: {sorted(unknown)} "
                f"(accepted: {sorted(self.defaults)})"
            )

    def spec(self, **params: Any) -> ScenarioSpec:
        self.validate_params(params)
        try:
            return self.build(**params)
        except TypeError as exc:
            # A builder doing arithmetic on a mistyped value (duration="10")
            # before the spec's own checks see it: a bad parameter, not a crash.
            raise ValueError(f"scenario {self.name!r}: bad parameter value ({exc})") from exc


_REGISTRY: Dict[str, ScenarioFactory] = {}


def register(factory: ScenarioFactory) -> ScenarioFactory:
    if factory.name in _REGISTRY:
        raise ValueError(f"scenario {factory.name!r} already registered")
    _REGISTRY[factory.name] = factory
    return factory


def scenario(name: str, description: str) -> Callable[[Callable[..., ScenarioSpec]], Any]:
    """Decorator: register the spec builder below it as the named scenario."""

    def decorate(build: Callable[..., ScenarioSpec]) -> Callable[..., ScenarioSpec]:
        register(ScenarioFactory(name=name, description=description, build=build))
        return build

    return decorate


def get_scenario(name: str) -> ScenarioFactory:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def scenarios() -> List[ScenarioFactory]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def split_params(params: Mapping[str, Any]) -> "tuple[Dict[str, Any], Dict[str, Any]]":
    """Split run parameters into (factory params, dotted override paths).

    Keys containing a ``.`` are spec override paths applied with
    :meth:`ScenarioSpec.with_overrides` after the factory built the spec —
    e.g. ``flows.0.params.max_rtt`` to ablate a protocol parameter, or
    ``topology.bottleneck_bps`` to vary the topology directly.
    """
    factory_params = {k: v for k, v in params.items() if "." not in k}
    overrides = {k: v for k, v in params.items() if "." in k}
    return factory_params, overrides


@dataclass(frozen=True)
class SweepRun:
    """One unit of work: a concrete scenario plus its seed and position.

    It lives with the registry, not the sweep, so naming and resolving a run
    (``repro show``, a figure's run list) does not import the sweep pool.
    """

    index: int
    seed: int
    params: Dict[str, Any]
    scenario: Optional[str] = None  # registry name, or None when spec_dict is set
    spec_dict: Optional[Dict[str, Any]] = None

    def resolve_spec(self) -> ScenarioSpec:
        factory_params, overrides = split_params(self.params)
        if self.spec_dict is not None:
            spec = ScenarioSpec.from_dict(self.spec_dict)
        else:
            assert self.scenario is not None
            spec = get_scenario(self.scenario).spec(**factory_params)
        if overrides:
            spec = spec.with_overrides(**overrides)
        return spec


# ------------------------------------------------------- paper-equivalent specs


def _dumbbell_tcp_flows(num_tcp: int) -> Tuple[FlowSpec, ...]:
    """``tcp<i>`` from ``src<i>`` to ``dst<i>``; pair 0 is the TFMCC flow's."""
    return tuple(
        FlowSpec(kind="tcp-reno", name=f"tcp{i}", src=f"src{i}", dst=f"dst{i}")
        for i in range(1, num_tcp + 1)
    )


def _star_tcp_flows(num_leaves: int) -> Tuple[FlowSpec, ...]:
    """``tcp<i>`` from the star's source to ``leaf<i>``, one per leaf."""
    return tuple(
        FlowSpec(kind="tcp-reno", name=f"tcp{i}", src="source", dst=f"leaf{i}")
        for i in range(num_leaves)
    )


@scenario("fairness", "TFMCC and N TCP flows over one shared bottleneck (Figure 9)")
def shared_bottleneck_spec(
    num_tcp: int = 4,
    bottleneck_bps: float = 4e6,
    bottleneck_delay: float = 0.02,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
    with_series: bool = False,
) -> ScenarioSpec:
    """Figure 9 family: one TFMCC flow and ``num_tcp`` TCP flows, one bottleneck."""
    topology = DumbbellSpec(
        num_left=num_tcp + 1,
        num_right=num_tcp + 1,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=bottleneck_delay,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    return ScenarioSpec(
        name="fairness",
        description="TFMCC and TCP sharing a single bottleneck (Figure 9)",
        duration=duration,
        topology=topology,
        flows=(FlowSpec(kind="tfmcc", src="src0", receivers=(ReceiverSpec(node="dst0"),)),)
        + _dumbbell_tcp_flows(num_tcp),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_series=with_series),
    )


@scenario(
    "individual-bottlenecks",
    "Each receiver behind its own tail circuit with one TCP (Figure 10)",
)
def individual_bottlenecks_spec(
    num_receivers: int = 6,
    tail_bps: float = 1e6,
    tail_delay: float = 0.02,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """Figure 10 family: every receiver behind its own tail shared with one TCP."""
    core_bw = tail_bps * num_receivers * 4
    jitter = 1000.0 * 8.0 / tail_bps
    imp = ImpairmentSpec(jitter=jitter)
    links = [DuplexLinkSpec("sender", "core", core_bw, 0.001, impairment=imp)]
    for i in range(num_receivers):
        links.append(DuplexLinkSpec("core", f"tail{i}", tail_bps, tail_delay, impairment=imp))
        links.append(DuplexLinkSpec(f"tail{i}", f"rcv{i}", core_bw, 0.001, impairment=imp))
        links.append(DuplexLinkSpec(f"tcp_src{i}", "core", core_bw, 0.001, impairment=imp))
    return ScenarioSpec(
        name="individual-bottlenecks",
        description="One tail circuit per receiver, one TCP per tail (Figure 10)",
        duration=duration,
        topology=CustomSpec(extra_links=tuple(links)),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="sender",
                receivers=tuple(ReceiverSpec(node=f"rcv{i}") for i in range(num_receivers)),
            ),
        )
        + tuple(
            FlowSpec(kind="tcp-reno", name=f"tcp{i}", src=f"tcp_src{i}", dst=f"rcv{i}")
            for i in range(num_receivers)
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("scaling", "Receiver-count scaling over a shared bottleneck (Figure 7 companion)")
def scaling_spec(
    num_receivers: int = 8,
    bottleneck_bps: float = 2e6,
    bottleneck_delay: float = 0.02,
    duration: float = 45.0,
    warmup_fraction: float = 0.3,
) -> ScenarioSpec:
    """Throughput-degradation companion to Figure 7: many receivers, one link.

    All receivers share the same bottleneck, so their loss processes are
    loosely correlated; growing ``num_receivers`` exercises the scaling
    behaviour of CLR selection and feedback suppression in simulation.
    """
    topology = DumbbellSpec(
        num_left=1,
        num_right=num_receivers,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=bottleneck_delay,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    return ScenarioSpec(
        name="scaling",
        description="Receiver-count scaling over a shared bottleneck (Figure 7 companion)",
        duration=duration,
        topology=topology,
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="src0",
                receivers=ReceiverRun("dst{}", num_receivers),
            ),
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("late-join", "A receiver behind a slow tail joins mid-session (Figures 15/16)")
def late_join_spec(
    num_main_receivers: int = 2,
    num_tcp: int = 2,
    shared_bps: float = 2e6,
    tail_bps: float = 50e3,
    join_time: float = 20.0,
    leave_time: float = 40.0,
    duration: float = 60.0,
    with_tcp_on_tail: bool = False,
    warmup_fraction: float = 0.15,
    with_series: bool = False,
) -> ScenarioSpec:
    """Figures 15/16 family: a receiver behind a slow tail joins mid-session."""
    jitter = 1000.0 * 8.0 / shared_bps
    imp = ImpairmentSpec(jitter=jitter)
    topology = DumbbellSpec(
        num_left=num_tcp + 1,
        num_right=max(num_main_receivers, num_tcp + 1),
        bottleneck_bps=shared_bps,
        bottleneck_delay=0.02,
        access_bps=shared_bps * 12.5,
        access_delay=0.001,
        extra_links=(
            DuplexLinkSpec("router_right", "slow_tail", tail_bps, 0.02, queue_limit=20, impairment=imp),
            DuplexLinkSpec("slow_tail", "slow_rcv", shared_bps, 0.001, impairment=imp),
            DuplexLinkSpec("tcp_slow_src", "router_left", shared_bps * 12.5, 0.001, impairment=imp),
        ),
    )
    receivers = tuple(
        ReceiverSpec(node=f"dst{i}") for i in range(num_main_receivers)
    ) + (
        ReceiverSpec(node="slow_rcv", receiver_id="late-rcv", join_at=join_time, leave_at=leave_time),
    )
    flows = (FlowSpec(kind="tfmcc", src="src0", receivers=receivers),)
    flows += _dumbbell_tcp_flows(num_tcp)
    if with_tcp_on_tail:
        flows += (FlowSpec(kind="tcp-reno", name="tcp_slow", src="tcp_slow_src", dst="slow_rcv"),)
    return ScenarioSpec(
        name="late-join",
        description="Late join of a receiver behind a slow tail (Figures 15/16)",
        duration=duration,
        topology=topology,
        flows=flows,
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_series=with_series),
    )


@scenario(
    "responsiveness",
    "Staggered joins/leaves on a star of lossy or slow leaves (Figures 11/20)",
)
def responsiveness_spec(
    loss_rates: Sequence[float] = (0.001, 0.005, 0.025, 0.125),
    link_bps: float = 5e6,
    first_join: float = 15.0,
    join_interval: float = 10.0,
    duration: float = 90.0,
    warmup_fraction: float = 0.1,
    link_delays: Optional[Sequence[float]] = None,
) -> ScenarioSpec:
    """Figures 11/20 family: staggered joins/leaves on a star.

    Receiver ``i`` joins at ``first_join + (i - 1) * join_interval`` (receiver
    0 is a member throughout) and they leave in reverse order; a TCP flow to
    every leaf runs for the whole time.  The leaves differ in loss rate
    (Figure 11) or, when ``link_delays`` gives one RTT per leaf, in delay on
    loss-free links (Figure 20; ``loss_rates`` is then ignored).
    """
    if link_delays is not None:
        # One-way link delay = RTT / 2.
        leaves = tuple(EdgeSpec(bandwidth=link_bps, delay=d / 2.0) for d in link_delays)
        loss_rates = (0.0,) * len(leaves)
    else:
        loss_rates = tuple(loss_rates)
        leaves = tuple(
            EdgeSpec(bandwidth=link_bps, delay=0.03, impairment=ImpairmentSpec(loss_rate=p))
            for p in loss_rates
        )
    receivers = [ReceiverSpec(node="leaf0", receiver_id="rcv0")]
    leave_start = first_join + (len(loss_rates) - 1) * join_interval
    for i in range(1, len(loss_rates)):
        join_at = first_join + (i - 1) * join_interval
        # Leaves happen in reverse join order: the lossiest receiver departs first.
        leave_at = leave_start + (len(loss_rates) - 1 - i) * join_interval
        receivers.append(
            ReceiverSpec(node=f"leaf{i}", receiver_id=f"rcv{i}", join_at=join_at, leave_at=leave_at)
        )
    return ScenarioSpec(
        name="responsiveness",
        description=(
            "Staggered joins/leaves on a lossy star (Figure 11)"
            if link_delays is None
            else "Staggered joins/leaves on a star of slow leaves (Figure 20)"
        ),
        duration=duration,
        topology=StarSpec(leaves=leaves, hub_bps=link_bps * 8),
        flows=(FlowSpec(kind="tfmcc", src="source", receivers=tuple(receivers)),)
        + _star_tcp_flows(len(loss_rates)),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("rtt_acquisition", "Initial RTT measurements behind one shared bottleneck (Figure 12)")
def rtt_acquisition_spec(
    num_receivers: int = 20,
    bottleneck_bps: float = 4e6,
    min_delay: float = 0.03,
    max_delay: float = 0.07,
    duration: float = 40.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """Figure 12: how fast a receiver set acquires its first RTT measurements.

    Every receiver sits behind the same bottleneck (highly correlated loss,
    the worst case: all of them want to report at once) on its own
    uncongested leaf, with one-way leaf delays spread evenly over
    ``min_delay``..``max_delay`` (paper: RTTs of 60-140 ms) and the 500 ms
    initial RTT.  The trace's ``rtt_acquired`` channel is the figure's curve.
    """
    spread = (max_delay - min_delay) / max(num_receivers - 1, 1)
    leaves = tuple(
        EdgeSpec(bottleneck_bps * 20, min_delay + spread * i) for i in range(num_receivers)
    )
    return ScenarioSpec(
        name="rtt_acquisition",
        description="Initial RTT measurements of a receiver set behind one bottleneck (Figure 12)",
        duration=duration,
        topology=StarSpec(
            leaves=leaves,
            hub_bps=bottleneck_bps,
            hub_delay=0.005,
            jitter=1000.0 * 8.0 / bottleneck_bps,
        ),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=tuple(ReceiverSpec(f"leaf{i}") for i in range(num_receivers)),
            ),
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


@scenario("rtt_step", "One receiver's RTT steps up: time until it is the CLR (Figure 13)")
def rtt_step_spec(
    num_receivers: int = 10,
    step_at: float = 10.0,
    base_delay: float = 0.03,
    high_delay: float = 0.3,
    loss_rate: float = 0.02,
    link_bps: float = 2e6,
    duration: float = 60.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """Figure 13: one receiver's RTT rises sharply; when does it become CLR?

    All receivers see independent loss at the same rate, so the CLR is
    whoever reports the lowest rate at the moment.  At ``step_at`` the
    one-way delay of ``leaf0`` (receiver ``stepped``) goes from
    ``base_delay`` to ``high_delay``: its calculated rate drops and the
    sender must hand it the CLR role.  The later the step, the more
    receivers already hold a measured RTT and the faster the reaction.
    """
    leaf = EdgeSpec(link_bps, base_delay, impairment=ImpairmentSpec(loss_rate=loss_rate))
    receivers = (ReceiverSpec("leaf0", receiver_id="stepped"),) + tuple(
        ReceiverSpec(f"leaf{i}") for i in range(1, num_receivers)
    )
    return ScenarioSpec(
        name="rtt_step",
        description="RTT step on one receiver's link: time until it is the CLR (Figure 13)",
        duration=duration,
        topology=StarSpec(leaves=(leaf,) * num_receivers, hub_bps=link_bps * 10),
        flows=(FlowSpec(kind="tfmcc", src="source", receivers=receivers),),
        dynamics=DynamicsSpec(
            events=(
                NetworkEventSpec(
                    at=step_at, kind="link_update", a="leaf0", b="hub", delay=high_delay
                ),
            )
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


@scenario("slowstart", "Slowstart alone or against running TCP flows (Figure 14)")
def slowstart_spec(
    num_receivers: int = 2,
    num_tcp: int = 0,
    fair_rate_bps: float = 1e6,
    duration: float = 24.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """Figure 14: the rate TFMCC reaches in slowstart.

    ``num_tcp`` greedy TCP flows are already running when the TFMCC session
    starts (0: alone on the link, 1: one competitor, several: high
    statistical multiplexing); the bottleneck is ``fair_rate_bps`` per flow,
    so the TFMCC fair rate is the same in all three settings.  The trace's
    ``slowstart_exit`` channel carries the exit time and rate.
    """
    bottleneck = fair_rate_bps * (num_tcp + 1)
    topology = DumbbellSpec(
        num_left=num_tcp + 1,
        num_right=max(num_receivers, num_tcp + 1),
        bottleneck_bps=bottleneck,
        bottleneck_delay=0.02,
        access_bps=bottleneck * 12.5,
        access_delay=0.001,
    )
    return ScenarioSpec(
        name="slowstart",
        description="TFMCC slowstart alone or against running TCP flows (Figure 14)",
        duration=duration,
        topology=topology,
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="src0",
                receivers=tuple(ReceiverSpec(f"dst{i}") for i in range(num_receivers)),
                start=0.1,
            ),
        )
        + _dumbbell_tcp_flows(num_tcp),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


def _leaf_star(num_leaves: int, link_bps: float, delay: float) -> Tuple[StarSpec, FlowSpec]:
    """Topology and TFMCC flow shared by the two asymmetric-path scenarios."""
    return (
        StarSpec(leaves=(EdgeSpec(link_bps, delay),) * num_leaves, hub_bps=link_bps * 4),
        FlowSpec(
            kind="tfmcc",
            src="source",
            receivers=tuple(ReceiverSpec(f"leaf{i}") for i in range(num_leaves)),
        ),
    )


@scenario("return_path_traffic", "TCP flows on the receivers' return paths (Figure 18)")
def return_path_traffic_spec(
    return_flow_counts: Sequence[int] = (0, 1, 2, 4),
    link_bps: float = 1e6,
    delay: float = 0.02,
    duration: float = 48.0,
    warmup_fraction: float = 0.4,
) -> ScenarioSpec:
    """Figure 18: competing TCP traffic on the receivers' return paths.

    Leaf ``i`` carries one forward TCP flow (``tcp_fwd<i>``) next to the
    TFMCC receiver, plus ``return_flow_counts[i]`` TCP flows in the
    leaf-to-source direction (``tcp_ret<i>_<j>``) that queue ahead of the
    receiver reports and the forward flows' ACKs.
    """
    counts = tuple(return_flow_counts)
    topology, tfmcc = _leaf_star(len(counts), link_bps, delay)
    forward = [
        FlowSpec(kind="tcp-reno", name=f"tcp_fwd{i}", src="source", dst=f"leaf{i}")
        for i in range(len(counts))
    ]
    reverse = [
        FlowSpec(kind="tcp-reno", name=f"tcp_ret{i}_{j}", src=f"leaf{i}", dst="source")
        for i, count in enumerate(counts)
        for j in range(count)
    ]
    return ScenarioSpec(
        name="return_path_traffic",
        description="TCP flows on the receivers' return paths (Figure 18)",
        duration=duration,
        topology=topology,
        flows=(tfmcc, *forward, *reverse),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("lossy_return_paths", "Lossy feedback and ACK paths (Figure 19)")
def lossy_return_paths_spec(
    return_loss_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    link_bps: float = 4e6,
    delay: float = 0.02,
    duration: float = 48.0,
    warmup_fraction: float = 0.4,
) -> ScenarioSpec:
    """Figure 19: the paths back to the sender lose packets.

    The leaf-to-hub direction of leaf ``i`` drops ``return_loss_rates[i]`` of
    everything it carries — receiver reports for TFMCC, ACKs for the TCP
    flow ``tcp<i>`` — from t = 0 on (a reverse-direction ``link_update``, so
    the same schedule applies to any other scenario's links).
    """
    rates = tuple(return_loss_rates)
    topology, tfmcc = _leaf_star(len(rates), link_bps, delay)
    events = tuple(
        NetworkEventSpec(
            at=0.0, kind="link_update", a="hub", b=f"leaf{i}", loss_rate=p, direction="reverse"
        )
        for i, p in enumerate(rates)
        if p > 0
    )
    return ScenarioSpec(
        name="lossy_return_paths",
        description="Lossy feedback and ACK paths (Figure 19)",
        duration=duration,
        topology=topology,
        flows=(tfmcc,) + _star_tcp_flows(len(rates)),
        dynamics=DynamicsSpec(events=events),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("increasing_congestion", "Competing TCP flow count doubles every phase (Figure 21)")
def increasing_congestion_spec(
    flow_counts: Sequence[int] = (1, 2, 4, 8),
    link_bps: float = 8e6,
    rtt: float = 0.06,
    phase_length: float = 20.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """Figure 21: the number of competing TCP flows doubles every phase.

    One TFMCC flow has the bottleneck to itself for the first
    ``phase_length`` seconds; ``flow_counts[i]`` further TCP flows start at
    the beginning of phase ``i + 1``.  TFMCC and TCP should both settle near
    half of their previous share each time.
    """
    total = sum(flow_counts)
    starts = [
        phase_length * (phase + 1) for phase, count in enumerate(flow_counts) for _ in range(count)
    ]
    topology = DumbbellSpec(
        num_left=total + 1,
        num_right=total + 1,
        bottleneck_bps=link_bps,
        bottleneck_delay=rtt / 2.0 - 0.002,
        access_bps=link_bps * 12.5,
        access_delay=0.001,
    )
    return ScenarioSpec(
        name="increasing_congestion",
        description="Competing TCP flow count doubles every phase (Figure 21)",
        duration=phase_length * (len(flow_counts) + 1),
        topology=topology,
        flows=(FlowSpec(kind="tfmcc", src="src0", receivers=(ReceiverSpec("dst0"),)),)
        + tuple(
            FlowSpec(kind="tcp-reno", name=f"tcp{i}", src=f"src{i}", dst=f"dst{i}", start=start)
            for i, start in enumerate(starts, 1)
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


# ----------------------------------------------------------- new scenarios


def gilbert_elliott_from_burst(loss_rate: float, burst_length: float) -> GilbertElliottSpec:
    """Parameterise a Gilbert channel by average loss rate and mean burst length."""
    if not 0.0 < loss_rate < 1.0:
        raise ValueError("loss_rate must be in (0, 1)")
    if burst_length < 1.0:
        raise ValueError("burst_length must be >= 1 packet")
    p_bad_good = 1.0 / burst_length
    p_good_bad = loss_rate * p_bad_good / (1.0 - loss_rate)
    return GilbertElliottSpec(p_good_bad=p_good_bad, p_bad_good=p_bad_good)


@scenario("bursty-loss", "Gilbert-Elliott bursty-loss receiver next to clean receivers (new)")
def bursty_loss_spec(
    loss_rate: float = 0.02,
    burst_length: float = 8.0,
    link_bps: float = 2e6,
    num_clean_receivers: int = 2,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """NEW: multicast over a wireless-style bursty-loss leaf.

    ``num_clean_receivers`` receivers sit behind clean leaves while one
    receiver is behind a Gilbert-Elliott leaf with the given average loss
    rate and mean burst length; a TCP flow runs to every leaf.  Comparing
    this against ``loss_rate`` with ``burst_length=1`` (Bernoulli) shows how
    loss burstiness changes the loss-event rate TFMCC actually measures —
    the wired-cum-wireless setting of the DCCP evaluation literature.
    """
    ge = gilbert_elliott_from_burst(loss_rate, burst_length)
    leaves = tuple(
        EdgeSpec(bandwidth=link_bps, delay=0.02) for _ in range(num_clean_receivers)
    ) + (
        EdgeSpec(bandwidth=link_bps, delay=0.05, impairment=ImpairmentSpec(gilbert_elliott=ge)),
    )
    num_leaves = len(leaves)
    return ScenarioSpec(
        name="bursty-loss",
        description="Multicast with one Gilbert-Elliott bursty-loss receiver",
        duration=duration,
        topology=StarSpec(leaves=leaves, hub_bps=link_bps * 8),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=tuple(ReceiverSpec(node=f"leaf{i}") for i in range(num_leaves)),
            ),
        )
        + _star_tcp_flows(num_leaves),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("background-traffic", "Inelastic on-off background load on the bottleneck (new)")
def background_traffic_spec(
    bg_fraction: float = 0.3,
    num_background: int = 2,
    on_time: float = 2.0,
    off_time: float = 2.0,
    num_tcp: int = 2,
    bottleneck_bps: float = 4e6,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """NEW: TFMCC and TCP contending with inelastic on-off background load.

    ``num_background`` on-off sources together load the bottleneck to
    ``bg_fraction`` of its capacity on average (each is ON half the time at
    twice its average rate), modelling conferencing-style cross traffic that
    does not back off under congestion.
    """
    if not 0.0 <= bg_fraction < 1.0:
        raise ValueError("bg_fraction must be in [0, 1)")
    num_endpoints = num_tcp + num_background + 1
    topology = DumbbellSpec(
        num_left=num_endpoints,
        num_right=num_endpoints,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=0.02,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    duty_cycle = on_time / (on_time + off_time) if (on_time + off_time) > 0 else 1.0
    per_source_avg = bottleneck_bps * bg_fraction / max(num_background, 1)
    on_rate = per_source_avg / duty_cycle
    # bg_fraction=0 degenerates to the plain fairness setup: no sources.
    background = tuple(
        FlowSpec(
            kind="onoff",
            name=f"bg{i}",
            src=f"src{num_tcp + 1 + i}",
            dst=f"dst{num_tcp + 1 + i}",
            # packet_size and exponential are the source's defaults; the
            # scenario's fingerprint has always carried them.
            params={
                "rate_bps": on_rate,
                "packet_size": 1000,
                "on_time": on_time,
                "off_time": off_time,
                "exponential": True,
            },
        )
        for i in range(num_background if on_rate > 0 else 0)
    )
    return ScenarioSpec(
        name="background-traffic",
        description="TFMCC vs TCP under inelastic on-off background load",
        duration=duration,
        topology=topology,
        flows=(FlowSpec(kind="tfmcc", src="src0", receivers=(ReceiverSpec(node="dst0"),)),)
        + _dumbbell_tcp_flows(num_tcp)
        + background,
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("flash-crowd", "A crowd of receivers joins within a short window (new)")
def flash_crowd_spec(
    num_receivers: int = 12,
    join_at: float = 15.0,
    join_spread: float = 2.0,
    num_tcp: int = 1,
    bottleneck_bps: float = 2e6,
    duration: float = 60.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """NEW: a flash crowd of receivers joins within a short window.

    One receiver is present from the start; ``num_receivers`` more join
    spread uniformly over ``join_spread`` seconds starting at ``join_at``
    (a popular live event beginning).  The interesting outputs are the rate
    dip while the feedback rounds absorb the crowd and the number of
    simulator events spent on feedback suppression.
    """
    topology = DumbbellSpec(
        num_left=num_tcp + 1,
        num_right=num_receivers + 1,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=0.02,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    step = join_spread / max(num_receivers, 1)
    receivers = (ReceiverSpec(node="dst0", receiver_id="rcv0"),) + tuple(
        ReceiverSpec(node=f"dst{i + 1}", receiver_id=f"crowd{i}", join_at=join_at + i * step)
        for i in range(num_receivers)
    )
    return ScenarioSpec(
        name="flash-crowd",
        description="A crowd of receivers joins within a short window",
        duration=duration,
        topology=topology,
        flows=(FlowSpec(kind="tfmcc", src="src0", receivers=receivers),)
        + _dumbbell_tcp_flows(num_tcp),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


# ------------------------------------------------------- dynamics scenarios


@scenario(
    "link_failure_reroute",
    "Primary-link failure with reroute, tree re-graft and CLR hand-off (dynamics)",
)
def link_failure_reroute_spec(
    primary_bps: float = 4e6,
    backup_bps: float = 0.5e6,
    near_bps: float = 1e6,
    fail_at: float = 26.0,
    recover_at: Optional[float] = 36.0,
    duration: float = 50.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """NEW: mid-session link failure with reroute and multicast re-graft.

    Two receivers: ``rcv_near`` behind a ``near_bps`` tail (the initial CLR)
    and ``rcv_far`` reached over a fast primary link with a slow, longer
    backup path around it.  At ``fail_at`` the primary link fails: unicast
    routes reconverge onto the backup, the distribution tree re-grafts, and
    ``rcv_far`` — now limited to ``backup_bps`` — reports and takes over as
    CLR within a few feedback rounds (the reaction the paper shows for
    membership changes in Figures 11 and 15).  ``recover_at`` (None
    disables) restores the primary link.
    """
    if not backup_bps < near_bps < primary_bps:
        raise ValueError("expected backup_bps < near_bps < primary_bps")
    jitter = 1000.0 * 8.0 / backup_bps
    imp = ImpairmentSpec(jitter=jitter)
    fast = primary_bps * 8
    links = (
        DuplexLinkSpec("source", "core", fast, 0.001, impairment=imp),
        DuplexLinkSpec("core", "r2", primary_bps, 0.01, impairment=imp),
        DuplexLinkSpec("core", "r3", primary_bps, 0.005, impairment=imp),
        DuplexLinkSpec("r3", "r2", backup_bps, 0.03, queue_limit=25, impairment=imp),
        DuplexLinkSpec("r2", "rcv_far", fast, 0.001, impairment=imp),
        DuplexLinkSpec("core", "near", near_bps, 0.01, impairment=imp),
        DuplexLinkSpec("near", "rcv_near", fast, 0.001, impairment=imp),
    )
    events = [NetworkEventSpec(at=fail_at, kind="link_down", a="core", b="r2")]
    if recover_at is not None:
        if recover_at <= fail_at:
            raise ValueError("recover_at must be after fail_at")
        events.append(NetworkEventSpec(at=recover_at, kind="link_up", a="core", b="r2"))
    return ScenarioSpec(
        name="link_failure_reroute",
        description="Primary-link failure: reroute, tree re-graft and CLR hand-off",
        duration=duration,
        topology=CustomSpec(extra_links=links),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=(ReceiverSpec(node="rcv_near"), ReceiverSpec(node="rcv_far")),
            ),
        ),
        dynamics=DynamicsSpec(events=tuple(events)),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


@scenario("bandwidth_step", "Step change of the bottleneck bandwidth mid-session (dynamics)")
def bandwidth_step_spec(
    bottleneck_bps: float = 2e6,
    step_factor: float = 0.4,
    step_at: float = 25.0,
    restore_at: Optional[float] = 38.0,
    num_receivers: int = 2,
    duration: float = 55.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """NEW: step change of the bottleneck bandwidth (in the spirit of Figure 21).

    A dumbbell whose bottleneck steps down to ``step_factor`` of its
    capacity at ``step_at`` and back up at ``restore_at`` (None disables).
    The interesting output is how fast the sender tracks the new capacity
    in each direction — the paper expects a reaction within a few RTTs
    (feedback rounds) and a slow, smooth increase afterwards.
    """
    if not 0.0 < step_factor < 1.0:
        raise ValueError("step_factor must be in (0, 1)")
    topology = DumbbellSpec(
        num_left=1,
        num_right=num_receivers,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=0.02,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    events = [
        NetworkEventSpec(
            at=step_at,
            kind="link_update",
            a="router_left",
            b="router_right",
            bandwidth=bottleneck_bps * step_factor,
        )
    ]
    if restore_at is not None:
        if restore_at <= step_at:
            raise ValueError("restore_at must be after step_at")
        events.append(
            NetworkEventSpec(
                at=restore_at,
                kind="link_update",
                a="router_left",
                b="router_right",
                bandwidth=bottleneck_bps,
            )
        )
    return ScenarioSpec(
        name="bandwidth_step",
        description="Step change of the bottleneck bandwidth mid-session",
        duration=duration,
        topology=topology,
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="src0",
                receivers=tuple(ReceiverSpec(node=f"dst{i}") for i in range(num_receivers)),
            ),
        ),
        dynamics=DynamicsSpec(events=tuple(events)),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


@scenario("loss_step_responsiveness", "Loss-rate step on one leaf with CLR hand-off (dynamics)")
def loss_step_spec(
    base_loss: float = 0.002,
    step_loss: float = 0.08,
    static_loss: float = 0.02,
    step_at: float = 15.0,
    link_bps: float = 5e6,
    duration: float = 40.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """NEW: loss-rate step on one receiver's link (in the spirit of Figure 11).

    A star with two lossy leaves: ``leaf0`` starts nearly clean
    (``base_loss``) and steps to ``step_loss`` at ``step_at``; ``leaf1``
    has a constant ``static_loss`` and is therefore the initial CLR.  After
    the step the worst receiver changes, so the sender must hand the CLR
    role to ``leaf0``'s receiver and reduce the rate within a few feedback
    rounds.
    """
    if not base_loss < static_loss < step_loss:
        raise ValueError("expected base_loss < static_loss < step_loss")
    leaves = (
        EdgeSpec(bandwidth=link_bps, delay=0.03, impairment=ImpairmentSpec(loss_rate=base_loss)),
        EdgeSpec(bandwidth=link_bps, delay=0.03, impairment=ImpairmentSpec(loss_rate=static_loss)),
    )
    return ScenarioSpec(
        name="loss_step_responsiveness",
        description="Loss-rate step on one leaf: CLR hand-off when the worst receiver changes",
        duration=duration,
        topology=StarSpec(leaves=leaves, hub_bps=link_bps * 8),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=(
                    ReceiverSpec(node="leaf0", receiver_id="stepped"),
                    ReceiverSpec(node="leaf1", receiver_id="static"),
                ),
            ),
        ),
        dynamics=DynamicsSpec(
            events=(
                NetworkEventSpec(
                    at=step_at,
                    kind="link_update",
                    a="leaf0",
                    b="hub",
                    loss_rate=step_loss,
                ),
            )
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


@scenario("receiver_churn", "Scripted receiver join/leave churn schedules (dynamics)")
def receiver_churn_spec(
    num_churners: int = 6,
    first_join: float = 8.0,
    join_interval: float = 3.0,
    stay_time: float = 10.0,
    bottleneck_bps: float = 2e6,
    duration: float = 45.0,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """NEW: scripted receiver join/leave churn through the dynamics layer.

    One permanent receiver plus ``num_churners`` receivers that join at
    ``first_join + i * join_interval`` and leave ``stay_time`` seconds
    later (leaves are clamped below the scenario duration).  Unlike the
    ``flash-crowd`` scenario (build-time membership schedule), the churn
    here runs through scripted ``receiver_join`` / ``receiver_leave``
    events, exercising CLR hand-off when the current worst receiver
    departs.
    """
    if num_churners < 1:
        raise ValueError("num_churners must be >= 1")
    topology = DumbbellSpec(
        num_left=1,
        num_right=num_churners + 1,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=0.02,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    events = []
    for i in range(num_churners):
        join_at = first_join + i * join_interval
        # Clamp the departure inside the run, but never before the join —
        # a leave scheduled ahead of its join would silently no-op.
        leave_at = min(join_at + stay_time, duration - 1.0)
        if leave_at <= join_at:
            raise ValueError(
                f"churner {i} joins at {join_at} with no room to leave before "
                f"the scenario ends ({duration}); extend duration or join earlier"
            )
        rid = f"churn{i}"
        events.append(
            NetworkEventSpec(at=join_at, kind="receiver_join", node=f"dst{i + 1}", receiver_id=rid)
        )
        events.append(NetworkEventSpec(at=leave_at, kind="receiver_leave", receiver_id=rid))
    # Chronological order keeps the schedule readable in JSON; ties keep
    # spec order, so join-before-leave of distinct receivers is preserved.
    events.sort(key=lambda e: e.at)
    return ScenarioSpec(
        name="receiver_churn",
        description="Scripted receiver join/leave churn with CLR hand-off",
        duration=duration,
        topology=topology,
        flows=(FlowSpec(kind="tfmcc", src="src0", receivers=(ReceiverSpec(node="dst0"),)),),
        dynamics=DynamicsSpec(events=tuple(events)),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


# ------------------------------------------------------ mixed-protocol flows


@scenario("tfmcc_vs_tfrc", "TFMCC (single receiver) vs unicast TFRC on one bottleneck (flows)")
def tfmcc_vs_tfrc_spec(
    bottleneck_bps: float = 2e6,
    bottleneck_delay: float = 0.02,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
    with_series: bool = False,
) -> ScenarioSpec:
    """NEW: TFMCC (one receiver) against its unicast ancestor TFRC.

    Both flows cross the same dumbbell bottleneck.  The paper's core design
    claim is that TFMCC degenerates to TFRC-like behaviour with a single
    receiver (Section 1 / Figure 1 theme), so the two flows should split
    the bottleneck roughly evenly and show similar smoothness; the record
    carries ``tfmcc_tfrc_ratio`` for exactly this comparison.
    """
    topology = DumbbellSpec(
        num_left=2,
        num_right=2,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=bottleneck_delay,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    return ScenarioSpec(
        name="tfmcc_vs_tfrc",
        description="TFMCC (single receiver) vs unicast TFRC on one bottleneck",
        duration=duration,
        topology=topology,
        flows=(
            FlowSpec(kind="tfmcc", src="src0", receivers=(ReceiverSpec(node="dst0"),)),
            FlowSpec(kind="tfrc", src="src1", dst="dst1"),
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_series=with_series),
    )


@scenario("protocol_mix", "One flow of every registered transport on one bottleneck (flows)")
def protocol_mix_spec(
    bottleneck_bps: float = 4e6,
    bottleneck_delay: float = 0.02,
    cbr_fraction: float = 0.1,
    onoff_fraction: float = 0.15,
    on_time: float = 2.0,
    off_time: float = 2.0,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """NEW: one flow of every registered transport on a shared bottleneck.

    TFMCC, TFRC, TCP Reno, a CBR source at ``cbr_fraction`` of the
    bottleneck and an on-off source averaging ``onoff_fraction`` of it all
    contend on one dumbbell — the head-to-head the paper implies (adaptive
    transports must share fairly while absorbing inelastic cross traffic)
    but the scenario layer previously could not express.  Also the CI
    smoke-check that every registered protocol kind stays buildable.
    """
    if not 0.0 < cbr_fraction < 1.0 or not 0.0 < onoff_fraction < 1.0:
        raise ValueError("traffic fractions must be in (0, 1)")
    topology = DumbbellSpec(
        num_left=5,
        num_right=5,
        bottleneck_bps=bottleneck_bps,
        bottleneck_delay=bottleneck_delay,
        access_bps=bottleneck_bps * 12.5,
        access_delay=0.001,
    )
    duty_cycle = on_time / (on_time + off_time) if (on_time + off_time) > 0 else 1.0
    return ScenarioSpec(
        name="protocol_mix",
        description="TFMCC + TFRC + TCP + CBR + on-off background on one bottleneck",
        duration=duration,
        topology=topology,
        flows=(
            FlowSpec(kind="tfmcc", src="src0", receivers=(ReceiverSpec(node="dst0"),)),
            FlowSpec(kind="tfrc", src="src1", dst="dst1"),
            FlowSpec(kind="tcp-reno", src="src2", dst="dst2"),
            FlowSpec(
                kind="cbr",
                src="src3",
                dst="dst3",
                params={"rate_bps": bottleneck_bps * cbr_fraction},
            ),
            FlowSpec(
                kind="onoff",
                src="src4",
                dst="dst4",
                params={
                    "rate_bps": bottleneck_bps * onoff_fraction / duty_cycle,
                    "on_time": on_time,
                    "off_time": off_time,
                },
            ),
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction),
    )


@scenario("wireless_last_hop", "TFMCC/TFRC/TCP over one bottleneck with snr_per wireless last hops")
def wireless_last_hop_spec(
    snr_db: float = 13.0,
    modulation: str = "qpsk",
    num_receivers: int = 2,
    bottleneck_bps: float = 2e6,
    wireless_bps: float = 6e6,
    wireless_delay: float = 0.005,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
) -> ScenarioSpec:
    """NEW: TFMCC vs TFRC vs TCP, each crossing an SNR->PER wireless last hop.

    A wired bottleneck (``source -> hub``) is shared by one TFMCC session
    (``num_receivers`` receivers), one TFRC flow and one TCP flow; every
    receiver sits behind its own wireless leaf whose loss comes from the
    ``snr_per`` channel model at ``snr_db``.  At high SNR this degenerates
    to the plain shared-bottleneck comparison; as the SNR drops towards the
    modulation's cliff the non-congestive PER loss grows and the three
    congestion controllers diverge — the wired-cum-wireless comparison the
    original paper never ran (see the DCCP-over-wireless discussion in
    PAPERS.md).  Cohort-friendly: receivers are star leaves, so cohort-mode
    private loss is derived analytically from the same channel spec.
    """
    wireless = ImpairmentSpec(
        channel=ChannelSpec("snr_per", {"snr_db": snr_db, "modulation": modulation})
    )
    leaf = EdgeSpec(wireless_bps, wireless_delay, impairment=wireless)
    leaves = tuple(leaf for _ in range(num_receivers + 2))
    return ScenarioSpec(
        name="wireless_last_hop",
        description="TFMCC/TFRC/TCP over one bottleneck with snr_per wireless last hops",
        duration=duration,
        topology=StarSpec(leaves=leaves, hub_bps=bottleneck_bps, hub_delay=0.01),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=tuple(
                    ReceiverSpec(node=f"leaf{i}") for i in range(num_receivers)
                ),
            ),
            FlowSpec(kind="tfrc", src="source", dst=f"leaf{num_receivers}"),
            FlowSpec(kind="tcp-reno", src="source", dst=f"leaf{num_receivers + 1}"),
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )


@scenario("mobile_receiver", "TFMCC receiver walking out of wireless range and back (mobility)")
def mobile_receiver_spec(
    near_m: float = 5.0,
    far_m: float = 12.0,
    duration: float = 60.0,
    update_interval: float = 0.5,
    warmup_fraction: float = 0.1,
) -> ScenarioSpec:
    """NEW: a receiver walks out of radio range and back (waypoint mobility).

    Two TFMCC receivers share a session: leaf0 stays wired and clean, leaf1
    is wireless with a distance-derived ``snr_per`` channel.  leaf1 starts
    ``near_m`` metres from the hub (clean at the default path-loss model),
    walks out to ``far_m`` metres by mid-run (deep in the PER cliff), then
    returns.  Every ``update_interval`` the mobility driver re-derives the
    leaf SNR from the interpolated position, so loss rises and falls
    continuously — the mobility-driven dynamics the multicast-handover
    literature motivates, with the CLR expected to follow leaf1 out and
    hand back on return.
    """
    wireless = ImpairmentSpec(channel=ChannelSpec("snr_per", {"distance": near_m}))
    return ScenarioSpec(
        name="mobile_receiver",
        description="TFMCC receiver walking out of wireless range and back (mobility)",
        duration=duration,
        topology=StarSpec(
            leaves=(
                EdgeSpec(2e6, 0.01),
                EdgeSpec(2e6, 0.01, impairment=wireless),
            )
        ),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=(ReceiverSpec(node="leaf0"), ReceiverSpec(node="leaf1")),
            ),
        ),
        dynamics=DynamicsSpec(
            mobility=MobilitySpec(
                positions={"hub": (0.0, 0.0), "leaf1": (near_m, 0.0)},
                waypoints=(
                    WaypointSpec("leaf1", duration * 0.4, far_m, 0.0),
                    WaypointSpec("leaf1", duration * 0.8, near_m, 0.0),
                ),
                update_interval=update_interval,
            )
        ),
        metrics=MetricsSpec(warmup_fraction=warmup_fraction, with_trace=True),
    )
