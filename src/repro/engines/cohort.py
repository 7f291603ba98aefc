"""Vectorised aggregate-receiver ("cohort") engine.

The paper's Section-3 analysis (implemented in
:mod:`repro.analysis.scaling`) models a large receiver population
statistically: each receiver's weighted-average loss interval is a random
variable with a common mean, and the sender's rate tracks the *minimum*
calculated rate over the population — an order statistic.  Only the current
limiting receiver needs per-packet treatment; everyone else contributes a
loss-interval sample and a suppression-timer draw per feedback round.

This engine operationalises that model.  Per TFMCC flow it keeps a small
*tracer* subset of receivers (``engine.tracer_receivers``, plus every
receiver with a membership schedule) as exact per-packet agents built by
the normal scenario builder — they anchor the measured loss-event process
and RTT, and stay wired into the monitor/trace probes.  The remaining
receivers become numpy arrays: per-receiver loss-interval histories, RTT
estimates and calculated rates, stepped once per feedback round.  Each step
draws fresh loss intervals from the anchor's measured loss process
(independent exponential draws with the anchor's mean interval — exactly
the Section-3 independence assumption), evaluates the Padhye equation and
the biased feedback-suppression timers vectorised, runs the protocol's
suppression round on them (:func:`repro.core.feedback.suppression_round`,
shared with the analysis model) and injects the responders' reports into
the sender as synthetic ``FeedbackHeader`` packets.
The sender is engine-agnostic: a cohort receiver can become the CLR, in
which case its report is refreshed every step (well inside the CLR
timeout).

Accuracy caveats (also documented in the README):

* Cohort receivers draw *independent* loss intervals, while exact receivers
  behind one shared bottleneck see positively correlated losses.  The
  cohort therefore tracks the Section-3 lower envelope; exact mode sits
  between that envelope and 1.
* Cohort histories are seeded from the anchor's closed intervals when the
  anchor experiences its first loss, rather than growing packet by packet.
* A cohort CLR reports once per step (feedback round), not once per RTT.

Scale: the per-step cost is ``O(num_receivers)`` numpy work, independent of
the packet rate, so 10k-100k receivers cost a fixed small overhead on top
of the tracer-only exact simulation.  The builder also prunes unused
trailing dumbbell/star receiver nodes so topology construction stays
proportional to the tracer count.  Memory is the members' state, 81 bytes
each (the loss history, open interval, RTT jitter and an int8 event
count; the private-loss and RTT-offset arrays are written only on a star):
a step makes its member-sized temporaries one block of ``_BLOCK`` members
at a time and keeps only the earliest timers of the eligible members.
Every block draws its random numbers in the order one whole-cohort draw
would, so records do not depend on the block size.  At 10^6 receivers
(``scaling``, 60 s) a run peaks at about 116 MB resident.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter, is_not
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.equations import MAX_LOSS_RATE, MIN_LOSS_RATE
from repro.core.feedback import MIN_RECEIVER_ESTIMATE, BiasMethod, suppression_round
from repro.core.headers import FeedbackHeader
from repro.engines.registry import EngineFactory, EngineUnavailableError, register_engine
from repro.simulator.packet import Packet, PacketType
from repro.telemetry import active as _telemetry_active

_UNSET = object()
_np: Any = _UNSET


def _numpy() -> Any:
    """Import numpy once, lazily; ``None`` when it is not installed."""
    global _np
    if _np is _UNSET:
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = numpy
    return _np


def _available() -> Optional[str]:
    if _numpy() is None:
        return "numpy is not installed (pip install 'repro[cohort]')"
    return None


#: Members per block of a step's vectorised work.  Every member-sized
#: temporary of a step is made and used one block at a time, so a cohort's
#: peak memory is its state and not its step scratch.  numpy's Generator
#: fills an array from one stream in row-major order, so drawing block by
#: block returns the numbers one whole-cohort draw would: records do not
#: depend on this value.
_BLOCK = 8192


def _blocks(n: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` bounds of the member blocks of an ``n``-member cohort."""
    return [(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]


_DST_NODE = re.compile(r"^dst(\d+)$")
_LEAF_NODE = re.compile(r"^leaf(\d+)$")


# ----------------------------------------------------------- spec reduction


def _star_leaf(star: Any, node: str) -> Optional[Any]:
    """The leaf edge of a StarSpec that ``node`` sits behind, if it is one."""
    match = _LEAF_NODE.match(node)
    if match:
        index = int(match.group(1))
        if index < len(star.leaves):
            return star.leaves[index]
    return None


def _used_nodes(spec: Any, flows: Tuple[Any, ...]) -> set:
    """Node names the reduced scenario still needs."""
    used = set()
    for flow in flows:
        used.add(flow.src)
        if flow.dst:
            used.add(flow.dst)
        for receiver in flow.receivers:
            used.add(receiver.node)
    for event in spec.dynamics.events:
        for name in (event.a, event.b, event.node):
            if name:
                used.add(name)
    for link in spec.topology.extra_links:
        used.add(link.a)
        used.add(link.b)
    return used


def _pruned_topology(topology: Any, used: set) -> Any:
    """Shrink trailing unused receiver nodes out of the topology.

    Topology build time and memory grow with the node count, so a
    100k-receiver dumbbell must not materialise 100k ``dst`` nodes when
    only the tracers remain exact.  Node *names* are preserved:
    only trailing indices no flow, dynamics event or extra link references
    are dropped.
    """
    from repro.scenarios.spec import DumbbellSpec, StarSpec

    if isinstance(topology, DumbbellSpec):
        indices = [int(m.group(1)) for m in map(_DST_NODE.match, used) if m]
        needed = max(indices) + 1 if indices else 1
        if needed < topology.num_right:
            return replace(topology, num_right=needed)
    elif isinstance(topology, StarSpec):
        indices = [int(m.group(1)) for m in map(_LEAF_NODE.match, used) if m]
        needed = max(indices) + 1 if indices else 0
        if needed < len(topology.leaves):
            return replace(topology, leaves=topology.leaves[:needed])
    return topology


def _is_run(receivers: Any) -> bool:
    """Whether a flow's receivers are one ReceiverRun, not an explicit tuple."""
    from repro.scenarios.spec import ReceiverRun

    return isinstance(receivers, ReceiverRun)


def _receiver_id(flow_name: str, receivers: Any, index: int) -> str:
    """The id the session gives receiver ``index`` of a flow."""
    named = None if _is_run(receivers) else receivers[index].receiver_id
    return named or f"{flow_name}-rcv{index}"


def _node_of(receivers: Any, index: int) -> str:
    """Node of receiver ``index``; a run names it without building the receiver."""
    return receivers.node_at(index) if _is_run(receivers) else receivers[index].node


@dataclass
class _CohortPlan:
    """Per-flow partition of receivers into exact tracers and the cohort."""

    flow_index: int
    flow_name: str
    #: Position of every cohort member among the flow's receivers: a range
    #: for a receiver run, a list for an explicit receiver tuple.
    member_index: Sequence[int]


def _partition_spec(spec: Any, engine: Any) -> Tuple[Any, List[_CohortPlan]]:
    """Split TFMCC receivers into exact tracers and vectorised cohorts.

    Returns the reduced spec (tracers only, with pinned receiver ids so
    they match the ids the full exact run would assign) and one plan per
    flow that actually has a cohort.
    """
    np = _numpy()
    plans: List[_CohortPlan] = []
    new_flows = []
    for flow_index, flow in enumerate(spec.flows):
        receivers = flow.receivers
        count = len(receivers)
        if flow.kind != "tfmcc" or count <= engine.tracer_receivers:
            new_flows.append(flow)
            continue
        # Receivers with a membership schedule stay exact, as do the first
        # tracer_receivers static ones.
        if _is_run(receivers):
            # Static by definition: the head of the run traces, the rest is cohort.
            kept_index = range(engine.tracer_receivers)
            member_index = range(engine.tracer_receivers, count)
        else:
            # Read off the spec without a Python frame per receiver.
            exact = np.fromiter(map(attrgetter("join_at"), receivers), float, count) > 0.0
            exact |= np.fromiter(
                map(is_not, map(attrgetter("leave_at"), receivers), repeat(None)), bool, count
            )
            static = np.flatnonzero(~exact)
            member_index = static[engine.tracer_receivers :].tolist()
            if not member_index:
                new_flows.append(flow)
                continue
            exact[static[: engine.tracer_receivers]] = True
            kept_index = np.flatnonzero(exact).tolist()
        # Pin the id the full exact run would have assigned (the session
        # numbers receivers in spec order), so tracer monitor/trace ids
        # match exact-mode records and cannot collide with cohort ids.
        kept = tuple(
            replace(receivers[i], receiver_id=_receiver_id(flow.name, receivers, i))
            for i in kept_index
        )
        new_flows.append(replace(flow, receivers=kept))
        plans.append(_CohortPlan(flow_index, flow.name, member_index))
    if not plans:
        return spec, []
    flows = tuple(new_flows)
    topology = _pruned_topology(spec.topology, _used_nodes(spec, flows))
    reduced = replace(spec, flows=flows, topology=topology)
    return reduced, plans


# ------------------------------------------------------------- cohort state


class _FlowCohort:
    """Vectorised per-round state of one flow's aggregated receivers."""

    #: Feedback-report packet size, matching TFMCCReceiver.FEEDBACK_PACKET_SIZE.
    FEEDBACK_PACKET_SIZE = 60

    def __init__(self, built: Any, session: Any, plan: _CohortPlan, spec: Any, seed: int):
        np = _numpy()
        self.sim = built.sim
        self.session = session
        self.sender = session.sender
        self.config = session.config
        self.engine = spec.engine
        # Members are positions in the flow's receiver sequence; ids and
        # nodes are read off it for the few members that report.
        self._flow_name = plan.flow_name
        self._receivers = spec.flows[plan.flow_index].receivers
        self._member_index = plan.member_index
        self._reported: Dict[str, int] = {}
        n = len(plan.member_index)
        self.n = n
        # Deterministic in (spec, seed): independent of the simulator RNG so
        # cohort draws do not perturb the exact sub-simulation's stream.
        self.rng = np.random.Generator(
            np.random.PCG64(int(seed) * 1000003 + plan.flow_index)
        )
        weights = np.asarray(self.config.loss_interval_weights, dtype=float)
        self.weights = weights
        self.weight_sum = float(weights.sum())
        self.history_len = len(weights)
        # One row per history slot (newest first), one column per member:
        # the rate kernel sweeps whole slots, which must be contiguous.
        self.intervals = np.zeros((self.history_len, n), dtype=float)
        self.open_pkts = np.zeros(n, dtype=float)
        # Loss events per member in the current step, capped at history_len.
        self._events = np.zeros(n, dtype=np.min_scalar_type(-self.history_len))
        self.seeded = False
        # Per-receiver loss and delay offsets from private (non-shared)
        # path segments, resolved against the *original* topology.
        # Only star leaves carry either: dumbbell access links have no
        # configured loss, and chains/custom topologies keep every receiver
        # exact-adjacent anyway.
        from repro.scenarios.spec import StarSpec

        packet_size = int(self.config.packet_size)
        self._refresh_rows = None
        # Both stay untouched zero pages outside a star: no resident memory.
        private = np.zeros(n, dtype=float)
        rtt_offset = np.zeros(n, dtype=float)
        if isinstance(spec.topology, StarSpec):
            star, receivers = spec.topology, self._receivers
            nodes = [_node_of(receivers, i) for i in plan.member_index]
            for i, node in enumerate(nodes):
                leaf = _star_leaf(star, node)
                if leaf is not None:
                    # Load-driven models (contention) report 0: the cohort
                    # cannot anticipate collision load, so receivers behind
                    # them should stay exact tracers.
                    private[i] = leaf.impairment.expected_loss_rate(packet_size)
                    rtt_offset[i] = leaf.delay
            # The first receiver present from t=0 is always an exact one.
            anchor = next((r for r in self._receivers if r.join_at <= 0.0), None)
            anchor_leaf = _star_leaf(star, anchor.node) if anchor is not None else None
            if anchor_leaf is not None:
                rtt_offset -= anchor_leaf.delay
            rtt_offset *= 2.0  # twice the leaf delay beyond the anchor's
            self._init_channel_refresh(np, star, nodes, spec.dynamics.mobility, packet_size)
        self.private_loss = private
        self.rtt_offset = rtt_offset
        # Static multiplicative RTT jitter (access-link serialisation and
        # queueing differ slightly per receiver).
        self.rtt_jitter = self.rng.uniform(0.95, 1.05, size=n)
        self._anchor_events = 0
        self._last_step_time: Optional[float] = None
        self._timer = None
        # Statistics surfaced in the record's "engine" section.
        self.steps = 0
        self.reports_injected = 0
        self.suppressed = 0
        self._feedback_seq = 0
        # Wall-clock accounting: only accumulated when the run has an open
        # telemetry scope (captured once here, not checked per step).
        self.step_wall_s = 0.0
        self._telem = _telemetry_active()

    def member_id(self, position: int) -> str:
        """Receiver id of the cohort member at array ``position``."""
        return _receiver_id(
            self._flow_name, self._receivers, int(self._member_index[position])
        )

    # --------------------------------------------- channel loss-rate refresh

    def _init_channel_refresh(
        self, np: Any, star: Any, member_nodes: List[str], mobility: Optional[Any], packet_size: int
    ) -> None:
        """Precompute the arrays for mobility-driven per-step PER refresh.

        Cohort members have no live ``Link`` (their star leaves are pruned),
        so the exact engine's mobility driver cannot reach them; instead the
        cohort re-derives each member's private loss from the waypoint
        schedule, vectorised, once per step.  Only star-leaf members with an
        SNR-driven ``snr_per`` channel and known endpoint positions take
        part; everyone else keeps their static stationary rate.
        """
        self._mobility = mobility
        if mobility is None or mobility.position_at("hub", 0.0) is None:
            return
        rows: List[int] = []
        nodes: List[str] = []
        path_params: List[Tuple[float, float, float, float]] = []
        modulations: List[str] = []
        for i, node in enumerate(member_nodes):
            leaf = _star_leaf(star, node)
            channel = leaf.impairment.channel if leaf is not None else None
            if channel is None or channel.kind != "snr_per":
                continue
            params = channel.params
            if params.get("per") is not None:
                continue  # fixed-PER override: nothing distance-driven
            if mobility.position_at(node, 0.0) is None:
                continue
            rows.append(i)
            nodes.append(node)
            path_params.append(
                (
                    float(params.get("tx_power_dbm", 20.0)),
                    float(params.get("noise_dbm", -90.0)),
                    float(params.get("ref_loss_db", 70.0)),
                    float(params.get("path_loss_exponent", 3.0)),
                )
            )
            modulations.append(params.get("modulation", "qpsk"))
        if not rows:
            return
        self._refresh_rows = np.asarray(rows, dtype=int)
        self._refresh_nodes = nodes
        self._refresh_tx = np.asarray([p[0] for p in path_params])
        self._refresh_noise = np.asarray([p[1] for p in path_params])
        self._refresh_ref_loss = np.asarray([p[2] for p in path_params])
        self._refresh_exponent = np.asarray([p[3] for p in path_params])
        self._refresh_modulations = np.asarray(modulations)
        self._refresh_packet_size = packet_size

    def _refresh_private_loss(self, np: Any, now: float) -> None:
        """Re-derive movers' private PER from node positions at ``now``."""
        if self._refresh_rows is None:
            return
        from repro.channel import vector_packet_error_rate

        mobility = self._mobility
        hub = mobility.position_at("hub", now)
        positions = np.asarray(
            [mobility.position_at(node, now) for node in self._refresh_nodes]
        )
        distance = np.maximum(
            np.hypot(positions[:, 0] - hub[0], positions[:, 1] - hub[1]), 0.01
        )
        snr_db = (
            self._refresh_tx
            - (self._refresh_ref_loss + 10.0 * self._refresh_exponent * np.log10(distance))
            - self._refresh_noise
        )
        per = np.empty(len(distance), dtype=float)
        for modulation in np.unique(self._refresh_modulations):
            mask = self._refresh_modulations == modulation
            per[mask] = vector_packet_error_rate(
                np, snr_db[mask], str(modulation), self._refresh_packet_size
            )
        self.private_loss[self._refresh_rows] = per

    # ------------------------------------------------------------ anchoring

    def _anchor(self) -> Optional[Any]:
        """The first live exact receiver: the measured-loss/RTT reference."""
        for receiver in self.session.receivers.values():
            return receiver
        return None

    # ----------------------------------------------------------- scheduling

    def start(self, at: float) -> None:
        delay = self._step_interval()
        self._timer = self.sim.schedule_at(at + delay, self._step)

    def _step_interval(self) -> float:
        if self.engine.step_interval is not None:
            return self.engine.step_interval
        return self.sender._round_duration()

    # ----------------------------------------------------------- round step

    def _step(self) -> None:
        if self._telem is not None:
            start = perf_counter()
            try:
                self._step_body()
            finally:
                self.step_wall_s += perf_counter() - start
        else:
            self._step_body()

    def _step_body(self) -> None:
        np = _numpy()
        now = self.sim.now
        dt = now - self._last_step_time if self._last_step_time is not None else None
        self._last_step_time = now
        self.steps += 1
        self._refresh_private_loss(np, now)
        anchor = self._anchor()
        if anchor is not None:
            self._advance_state(np, anchor, dt)
            if self.seeded:
                self._emit_feedback(np, now)
        self._timer = self.sim.reschedule(self._timer, self._step_interval(), self._step)

    def _advance_state(self, np: Any, anchor: Any, dt: Optional[float]) -> None:
        history = anchor.history
        rng, blocks, depth = self.rng, _blocks(self.n), self.history_len
        if not self.seeded:
            if not history.has_loss:
                return
            closed = list(history.intervals)
            mean_interval = max(sum(closed) / len(closed), 1.0)
            # Independent Exp(mean) histories per receiver — the Section-3
            # i.i.d. assumption.  Broadcasting the anchor's history instead
            # would zero the cross-receiver variance and with it the
            # order-statistic degradation the cohort exists to reproduce.
            # Each member draws its whole history (newest first) in turn.
            for start, stop in blocks:
                draws = rng.exponential(mean_interval, size=(stop - start, depth))
                np.maximum(draws.T, 1.0, out=self.intervals[:, start:stop])
            rng.random(out=self.open_pkts)
            self.open_pkts *= max(history.open_interval, 0.0)
            self._anchor_events = anchor.detector.loss_events
            self.seeded = True
            return
        if dt is None or dt <= 0:
            return
        # Packets a cohort receiver saw this round: the multicast stream is
        # one rate for everyone.
        packets = max(self.sender.current_rate * dt / self.config.packet_size, 0.0)
        shared_events = float(anchor.detector.loss_events - self._anchor_events)
        self._anchor_events = anchor.detector.loss_events
        mean_interval = max(history.average_loss_interval(), 1.0)
        # Expected loss events per receiver this step: the shared-bottleneck
        # events the anchor measured plus each receiver's private-link loss.
        # A zero mean draws no number, so a block whose members all expect
        # none skips the draw; its tally is None and its events are not read.
        events, private = self._events, self.private_loss
        tallies = []
        for start, stop in blocks:
            private_block = private[start:stop]
            if not (shared_events or (packets and private_block.any())):
                tallies.append(None)
                continue
            counts = np.minimum(rng.poisson(shared_events + packets * private_block), depth)
            events[start:stop] = counts
            tallies.append(np.bincount(counts, minlength=depth + 1))
        # Shift per-receiver histories by their event count, filling the
        # fresh slots with independent Exp(mean) interval draws — the
        # Section-3 model of per-receiver loss-interval variation.  All
        # members with one count draw before any member with the next.
        intervals = self.intervals
        for count in range(1, depth + 1):
            for (start, stop), tally in zip(blocks, tallies):
                if tally is None or not tally[count]:
                    continue
                rows = np.flatnonzero(events[start:stop] == count)
                rows += start
                draws = rng.exponential(mean_interval, size=(len(rows), count))
                np.maximum(draws, 1.0, out=draws)
                intervals[count:, rows] = intervals[: depth - count, rows]
                intervals[:count, rows] = draws.T
        # Residual open interval: a uniform fraction of this round's packets
        # for receivers whose last event fell inside the round.
        for (start, stop), tally in zip(blocks, tallies):
            open_pkts = self.open_pkts[start:stop]
            if tally is None or tally[0] == stop - start:
                open_pkts += packets
                continue
            hit = events[start:stop] > 0
            open_pkts[hit] = packets * rng.random(stop - start - int(tally[0]))
            np.add(open_pkts, packets, out=open_pkts, where=~hit)

    # ------------------------------------------------------------- reporting

    def _rates(self, np: Any, anchor: Any, members: Any = slice(None)) -> Tuple[Any, Any, Any]:
        """Vectorised (calculated rate, loss-event rate, rtt) of ``members``.

        ``members`` is a slice or an index array.  The arithmetic is
        elementwise, so a member's values do not depend on which others are
        computed with it: a step takes them block by block and recomputes
        the few it reports.
        """
        # Weighted sums accumulated newest interval first, one elementwise
        # multiply-add per history slot.  A BLAS product of an (n, 8) history
        # is no faster (and several times slower when its threads contend for
        # cores), and it rounds differently from one CPU's kernel to the
        # next, which made a record's low bits depend on the host.
        intervals, weights = self.intervals, self.weights
        closed = intervals[0, members] * weights[0]
        # average_loss_interval: include the open interval when that raises
        # the average (history discounting of the open interval).
        with_open = self.open_pkts[members] * weights[0]
        for slot in range(1, self.history_len):
            closed += intervals[slot, members] * weights[slot]
            with_open += intervals[slot - 1, members] * weights[slot]
        avg = np.maximum(closed / self.weight_sum, with_open / self.weight_sum)
        p = np.clip(1.0 / np.maximum(avg, 1.0), MIN_LOSS_RATE, MAX_LOSS_RATE)
        anchor_rtt = anchor.rtt.rtt
        rtt = np.maximum(anchor_rtt * self.rtt_jitter[members] + self.rtt_offset[members], 1e-3)
        # Padhye Equation (1), vectorised (rto = 4 * rtt as in TFRC).
        term_fast = rtt * np.sqrt(2.0 * p / 3.0)
        term_timeout = (4.0 * rtt) * (3.0 * np.sqrt(3.0 * p / 8.0)) * p * (1.0 + 32.0 * p * p)
        calc = self.config.packet_size / (term_fast + term_timeout)
        return calc, p, rtt

    def _suppression_timers(self, np: Any, uniform: Any, ratio: Any, max_delay: float) -> Any:
        """Biased feedback timers from uniforms in [0, 1), mirroring
        repro.core.feedback vectorised."""
        u = 1.0 - uniform  # uniform in (0, 1]
        method = self.config.bias_method
        estimate = self.config.receiver_estimate
        if method is BiasMethod.MODIFIED_N:
            # Per member: N shrunk by the rate ratio, never below the floor.
            reduced = (estimate * np.maximum(ratio, 1e-3)).astype(np.int64)
            log_n = np.log(np.maximum(reduced, MIN_RECEIVER_ESTIMATE))
        else:
            log_n = math.log(max(estimate, 2))
        exponential = np.maximum(max_delay * (1.0 + np.log(u) / log_n), 0.0)
        if method is BiasMethod.NONE or method is BiasMethod.MODIFIED_N:
            return exponential
        if method is BiasMethod.MODIFIED_OFFSET:
            low = self.config.rate_truncation_low
            high = self.config.rate_truncation_high
            ratio = (np.clip(ratio, low, high) - low) / (high - low)
        offset = self.config.offset_fraction
        return offset * ratio * max_delay + (1.0 - offset) * exponential

    def _timer_order(
        self, np: Any, anchor: Any, send_rate: float, keep: int, rng: Any
    ) -> Tuple[Any, Any, int]:
        """The eligible members with the ``keep`` earliest timers, in timer order.

        A member is eligible when its calculated rate is below ``send_rate``.
        Every member draws one uniform from ``rng``, in member order, whether
        or not it is eligible; only the eligible members' uniforms become
        timers.  Returns their positions and timers, ordered by timer with
        ties in member order, and how many members were eligible.
        """
        max_delay = self.config.feedback_delay_for_rate(max(send_rate * 8.0, 1.0))
        floor = max(send_rate, 1e-9)
        members, timers, eligible_count = np.empty(0, dtype=np.intp), np.empty(0), 0
        for start, stop in _blocks(self.n):
            calc = self._rates(np, anchor, slice(start, stop))[0]
            uniform = rng.random(stop - start)
            eligible = np.flatnonzero(calc < send_rate)
            eligible_count += len(eligible)
            if not len(eligible):
                continue
            ratio = np.clip(calc[eligible] / floor, 0.0, 1.0)
            block_timers = self._suppression_timers(np, uniform[eligible], ratio, max_delay)
            if len(members) == keep:
                # A later member needs an earlier timer than the last kept
                # one to displace it: an equal timer ranks after it.
                early = block_timers < timers[-1]
                eligible, block_timers = eligible[early], block_timers[early]
            eligible += start
            members = np.concatenate((members, eligible))
            timers = np.concatenate((timers, block_timers))
            order = np.argsort(timers, kind="stable")[:keep]
            members, timers = members[order], timers[order]
        return members, timers, eligible_count

    def _emit_feedback(self, np: Any, now: float) -> None:
        anchor = self._anchor()
        if anchor is None:
            return
        send_rate = self.sender.current_rate
        cap = self.engine.max_reports_per_step
        drawn_from = self.rng.bit_generator.state
        members, timers, eligible = self._timer_order(
            np, anchor, send_rate, max(_BLOCK, cap), self.rng
        )
        reporters: List[int] = []
        if eligible:
            # Each member hears the echo of the lowest rate reported so far
            # one RTT after it was sent.  A member's fate depends only on
            # earlier timers, so the timer-ordered head that holds ``cap``
            # responders decides the step; most rounds fill the cap within a
            # few members, even when 10^5 are eligible.
            size = cap
            delta = self.config.cancellation_delta
            while True:
                if len(members) < min(size, eligible):
                    # The head outgrew what the pass kept: replay its draws.
                    replay = np.random.Generator(np.random.PCG64())
                    replay.bit_generator.state = drawn_from
                    members, timers, _ = self._timer_order(np, anchor, send_rate, size, replay)
                head = members[:size]
                calc, _, rtt = self._rates(np, anchor, head)
                responders = suppression_round(
                    timers[:size].tolist(), calc.tolist(), rtt.tolist(), delta
                )
                if len(responders) >= cap or size >= eligible:
                    break
                size *= 4
            reporters = head[responders[:cap]].tolist()
            self.suppressed += eligible - len(reporters)
        # The CLR (when it is a cohort receiver) refreshes its report every
        # step regardless of suppression: CLR reports are never suppressed.
        # A cohort member the sender knows of has reported before.
        clr_index = self._reported.get(self.sender.clr_id)
        if clr_index is not None and clr_index not in reporters:
            reporters.insert(0, clr_index)
        if reporters:
            calc, p, rtt = self._rates(np, anchor, np.asarray(reporters))
            for index, rate, loss, rtt_s in zip(reporters, calc.tolist(), p.tolist(), rtt.tolist()):
                self._inject_report(index, rate, loss, rtt_s, now)

    def _inject_report(self, index: int, calc: float, p: float, rtt: float, now: float) -> None:
        receiver_id = self.member_id(index)
        self._reported[receiver_id] = index
        header = FeedbackHeader(
            receiver_id=receiver_id,
            round_id=self.sender.round_id,
            timestamp=now,
            calculated_rate=calc,
            receive_rate=min(calc, self.sender.current_rate),
            have_rtt=True,
            rtt=rtt,
            loss_event_rate=p,
            has_loss=True,
        )
        self._feedback_seq += 1
        packet = Packet(
            src=_node_of(self._receivers, int(self._member_index[index])),
            dst=self.session.sender_node,
            flow_id=self.session.flow_id,
            size=self.FEEDBACK_PACKET_SIZE,
            ptype=PacketType.FEEDBACK,
            seq=self._feedback_seq,
            sent_at=now,
            payload=header,
        )
        # Delivered directly: cohort nodes have no per-packet presence, and
        # the unicast return path is uncongested in the modelled scenarios.
        self.sender.receive(packet)
        self.reports_injected += 1

    # ------------------------------------------------------------ reporting

    def stats(self) -> Dict[str, Any]:
        return {
            "flow": self.session.flow_id,
            "receivers": self.n,
            "steps": self.steps,
            "reports": self.reports_injected,
            "suppressed": self.suppressed,
        }


# ------------------------------------------------------------ built wrapper


@dataclass
class CohortBuiltScenario:
    """Duck-typed BuiltScenario: exact tracer core plus cohort arrays."""

    spec: Any  # the original (unreduced) spec
    seed: int
    inner: Any  # BuiltScenario of the reduced spec
    cohorts: List[_FlowCohort] = field(default_factory=list)

    # BuiltScenario surface, delegated to the exact core.
    @property
    def sim(self) -> Any:
        return self.inner.sim

    @property
    def network(self) -> Any:
        return self.inner.network

    @property
    def monitor(self) -> Any:
        return self.inner.monitor

    @property
    def flows(self) -> Any:
        return self.inner.flows

    @property
    def sessions(self) -> Any:
        return self.inner.sessions

    @property
    def receiver_ids(self) -> Any:
        return self.inner.receiver_ids

    @property
    def recorder(self) -> Any:
        return self.inner.recorder

    def run(self) -> float:
        return self.inner.run()

    def collect(self) -> Dict[str, Any]:
        record = self.inner.collect()
        record["engine"] = {
            "kind": "cohort",
            "tracer_receivers": self.spec.engine.tracer_receivers,
            "receivers_total": sum(
                len(flow.receivers) for flow in self.spec.flows if flow.kind == "tfmcc"
            ),
            "receivers_cohort": sum(cohort.n for cohort in self.cohorts),
            "cohorts": [cohort.stats() for cohort in self.cohorts],
        }
        return record


def _build_cohort(spec: Any, seed: int = 1, recorder: Optional[Any] = None) -> Any:
    if _numpy() is None:
        raise EngineUnavailableError(
            "engine 'cohort' needs numpy; install the optional extra: "
            "pip install 'repro[cohort]'"
        )
    from repro.scenarios.build import build_scenario

    # Against the full topology: pruning would hide a cohort member's node.
    spec.check_endpoints()
    reduced, plans = _partition_spec(spec, spec.engine)
    inner = build_scenario(reduced, seed=seed, recorder=recorder)
    built = CohortBuiltScenario(spec=spec, seed=seed, inner=inner)
    if plans:
        # Sessions are appended in spec order; map flow index -> session.
        tfmcc_sessions: Dict[int, Any] = {}
        session_iter = iter(inner.sessions)
        for flow_index, flow in enumerate(reduced.flows):
            if flow.kind == "tfmcc":
                tfmcc_sessions[flow_index] = next(session_iter)
        for plan in plans:
            session = tfmcc_sessions[plan.flow_index]
            cohort = _FlowCohort(inner, session, plan, spec, seed)
            start = spec.flows[plan.flow_index].start
            cohort.start(start)
            built.cohorts.append(cohort)
    return built


COHORT_ENGINE = register_engine(
    EngineFactory(
        kind="cohort",
        description=(
            "vectorised aggregate-receiver engine: exact CLR/tracer agents, "
            "numpy cohort stepped once per feedback round"
        ),
        build=_build_cohort,
        available=_available,
    )
)
