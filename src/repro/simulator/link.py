"""Unidirectional links with bandwidth, propagation delay and channel loss.

A link models a store-and-forward output interface: packets wait in the
attached queue while the link is busy serialising a previous packet, then take
``size * 8 / bandwidth`` seconds to transmit followed by ``delay`` seconds of
propagation before arriving at the downstream node.

Serialisation and propagation are one event: starting a transmission
records when the serialiser frees up (``_tx_end``) and schedules the arrival
at ``_tx_end + delay`` directly.  A second event -- the queue drain, armed at
exactly ``_tx_end`` -- exists only while packets are waiting, so a busy
bottleneck costs two events per packet and an idle leaf one.

Non-congestive loss is applied at enqueue time through a single seam: an
optional :class:`~repro.channel.models.ChannelModel` whose
``should_drop(rng, now, packet)`` decides each packet's fate.  Models
(Bernoulli, Gilbert-Elliott bursty loss, SNR->PER wireless links,
shared-medium contention) come from :mod:`repro.channel`; ``loss_rate`` is
shorthand for the Bernoulli one.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Dict, Optional

from repro.channel.models import BernoulliChannel, ChannelModel, GilbertElliottLoss
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, PacketQueue, REDQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulator.engine import Simulator
    from repro.simulator.node import Node

__all__ = ["Link", "GilbertElliottLoss"]


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Parameters
    ----------
    sim:
        Owning simulator.
    src, dst:
        Endpoint nodes.
    bandwidth:
        Link capacity in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Packet queue used while the link is busy; defaults to a 50-packet
        drop-tail queue as in the paper's ns-2 setups.
    loss_rate:
        Independent Bernoulli drop probability applied to every packet:
        shorthand for ``channel=BernoulliChannel(loss_rate)``.
    channel:
        Channel model consulted for every offered packet (not together with
        a positive ``loss_rate``).  The instance must not be shared between
        links.  Use :func:`repro.channel.get_channel` to build one from a
        registered kind and JSON parameters.
    jitter:
        Maximum random per-packet processing delay in seconds, added to the
        serialisation time (uniformly distributed, FIFO order preserved).
        Deterministic simulations of drop-tail queues suffer from severe
        phase effects (ACK-clocked flows lock into favourable queue phases);
        a small jitter on access links -- the equivalent of ns-2's random
        "overhead" -- removes them.
    """

    def __init__(
        self,
        sim: "Simulator",
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        queue: Optional[PacketQueue] = None,
        loss_rate: float = 0.0,
        name: Optional[str] = None,
        jitter: float = 0.0,
        channel: Optional[ChannelModel] = None,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay cannot be negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        if loss_rate > 0.0:
            if channel is not None:
                raise ValueError("link: at most one loss process, got loss_rate and channel")
            channel = BernoulliChannel(loss_rate)
        self._channel: Optional[ChannelModel] = channel
        if jitter < 0:
            raise ValueError("jitter cannot be negative")
        self.jitter = jitter
        self.queue = queue if queue is not None else DropTailQueue(limit=50)
        # Any queue that consumes randomness (e.g. RED) gets the simulator
        # RNG bound automatically, so seeding stays centralised and a queue
        # can never silently run unseeded.
        bind_rng = getattr(self.queue, "bind_rng", None)
        if bind_rng is not None:
            bind_rng(sim.rng)
        self._queue_tracks_idle = isinstance(self.queue, REDQueue)
        self.name = name or f"{src.node_id}->{dst.node_id}"
        #: True while the link is administratively/physically down
        #: (see :meth:`set_down`); every offered packet is dropped.
        self.down = False
        # Serialiser state.  The frame last started occupies the serialiser
        # until ``_tx_end``; ``_tx_arrival`` is its arrival entry (whose
        # ``[3][0]`` is the packet), kept so the counter readers can
        # discount it and set_down() can cut it.
        self._tx_end = 0.0
        self._tx_arrival = None
        self._arrive = dst.receive
        # While packets wait, one drain event at a time walks the queue
        # (dequeue + transmit); ``_drain`` is its entry, for set_down().
        self._draining = False
        self._drain = None
        # Statistics.  The send counters are committed when a transmission
        # starts; the public readers subtract the frame still on the
        # serialiser, so they are exact at any instant.
        self._packets_sent = 0
        self._bytes_sent = 0
        self._bytes_per_flow: Dict[str, int] = {}
        self.random_drops = 0
        self.down_drops = 0
        #: Channel drops broken down by the dropping model's ``cause``
        #: ("random", "burst", "per", "collision", ...); sums to
        #: :attr:`random_drops`.
        self.drops_by_cause: Dict[str, int] = {}
        if self._channel is not None:
            self._channel.bind(self)

    # ------------------------------------------------------------------ API

    def transmission_time(self, packet: Packet) -> float:
        """Serialisation time of ``packet`` on this link in seconds.

        Keep in sync with the inlined copy in :meth:`_transmit` (inlined
        there because it runs once per transmitted packet).
        """
        return packet.size * 8.0 / self.bandwidth

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the link.  Returns False if dropped."""
        if self.down:
            self.down_drops += 1
            return False
        sim = self.sim
        now = sim.now
        channel = self._channel
        if channel is not None and channel.should_drop(sim.rng, now, packet):
            self.random_drops += 1
            cause = channel.cause
            self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1
            return False
        if now < self._tx_end or self._draining:
            # The packet has to wait: only now does the link need a second
            # event, at the exact instant the serialiser frees up.
            if not self.queue.enqueue(packet, now):
                return False
            if not self._draining:
                self._draining = True
                self._drain = sim.call_at(self._tx_end, self._drain_queue)
            return True
        if self._queue_tracks_idle:
            # Applied lazily: the queue has been idle since the last frame
            # left the serialiser.
            self.queue.mark_idle(self._tx_end)
        self._transmit(packet, now)
        return True

    @property
    def channel(self) -> Optional[ChannelModel]:
        """The channel model consulted for every offered packet (or None)."""
        return self._channel

    @property
    def loss_rate(self) -> float:
        """Drop probability of a Bernoulli channel (0 under any other model)."""
        channel = self._channel
        return channel.loss_rate if isinstance(channel, BernoulliChannel) else 0.0

    @property
    def queue_drops(self) -> int:
        """Packets dropped due to queue overflow (congestion loss)."""
        return self.queue.drops

    @property
    def total_drops(self) -> int:
        """All packets dropped on this link (queue + random loss + down)."""
        return self.queue.drops + self.random_drops + self.down_drops

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def queue_peak(self) -> int:
        """Peak queue occupancy seen at enqueue time (0 for custom queues
        that do not track it)."""
        return getattr(self.queue, "peak", 0)

    @property
    def busy(self) -> bool:
        """True while a frame is being serialised or packets are waiting."""
        return self.sim.now < self._tx_end or self._draining

    def _frame_on_serialiser(self) -> Optional[Packet]:
        """The packet whose serialisation has started but not finished."""
        if self.sim.now < self._tx_end:
            return self._tx_arrival[3][0]
        return None

    @property
    def packets_sent(self) -> int:
        """Packets fully serialised onto the wire."""
        return self._packets_sent - (self._frame_on_serialiser() is not None)

    @property
    def bytes_sent(self) -> int:
        """Bytes fully serialised onto the wire."""
        frame = self._frame_on_serialiser()
        return self._bytes_sent - (frame.size if frame is not None else 0)

    @property
    def bytes_per_flow(self) -> Dict[str, int]:
        """Bytes fully serialised onto the wire, by flow id (a snapshot)."""
        per_flow = dict(self._bytes_per_flow)
        frame = self._frame_on_serialiser()
        if frame is not None:
            per_flow[frame.flow_id] -= frame.size
        return per_flow

    def utilisation(self, duration: float) -> float:
        """Fraction of capacity used over ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return (self.bytes_sent * 8.0) / (self.bandwidth * duration)

    # ------------------------------------------------------------ live mutation
    #
    # The time-scripted dynamics layer (repro.scenarios.spec.DynamicsSpec)
    # changes link parameters mid-run.  All mutators keep the drain
    # event and the queue consistent: a packet already being serialised
    # finishes with the parameters it started with, subsequent packets use
    # the new ones.

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the link capacity (bits/s) for subsequent transmissions."""
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth

    def set_delay(self, delay: float) -> None:
        """Change the propagation delay for subsequent transmissions.

        Packets already propagating arrive at their originally scheduled
        time.  Callers that route by delay must rebuild routes themselves
        (``Network.set_link_delay`` does both).
        """
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self.delay = delay

    def set_loss_rate(self, loss_rate: float) -> None:
        """Replace the channel with Bernoulli loss at ``loss_rate``.

        Replacing a stateful channel model (Gilbert-Elliott, snr_per, ...)
        discards its state; that is usually a scripted loss step overriding
        a richer model, so it warns.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self._channel is not None and not isinstance(self._channel, BernoulliChannel):
            warnings.warn(
                f"set_loss_rate({loss_rate}) on {self.name} replaces the active "
                f"{type(self._channel).__name__} channel model; use "
                f"set_channel() to silence this",
                RuntimeWarning,
                stacklevel=2,
            )
        self._channel = BernoulliChannel(loss_rate) if loss_rate > 0.0 else None

    def set_channel(self, channel: Optional[ChannelModel]) -> None:
        """Install the channel model for subsequent packets (None: lossless)."""
        self._channel = channel
        if channel is not None:
            channel.bind(self)

    def set_down(self) -> None:
        """Take the link down: flush the queue, stop the drain, drop all input.

        Queued packets and the packet currently being serialised (its frame
        is cut: it never arrives and is not counted as sent) are counted in
        :attr:`down_drops`.  Packets already propagating are on the wire and
        still arrive.  Idempotent.
        """
        if self.down:
            return
        self.down = True
        while self.queue.dequeue() is not None:
            self.down_drops += 1
        if self._draining:
            self.sim.cancel(self._drain)
            self._draining = False
        frame = self._frame_on_serialiser()
        if frame is not None:
            self.sim.cancel(self._tx_arrival)
            self._packets_sent -= 1
            self._bytes_sent -= frame.size
            self._bytes_per_flow[frame.flow_id] -= frame.size
            self.down_drops += 1
        # The serialiser is free (and the queue idle) from this instant.
        self._tx_end = self.sim.now

    def set_up(self) -> None:
        """Bring the link back up; it starts idle with an empty queue."""
        self.down = False

    # ------------------------------------------------------------ internals

    def _transmit(self, packet: Packet, now: float) -> None:
        """Start serialising ``packet``: one event takes it to the far end."""
        sim = self.sim
        size = packet.size
        hold = size * 8.0 / self.bandwidth  # inlined transmission_time()
        if self.jitter > 0.0:
            hold += sim.rng.random() * self.jitter
        self._tx_end = end = now + hold
        self._packets_sent += 1
        self._bytes_sent += size
        flow_id = packet.flow_id
        per_flow = self._bytes_per_flow
        per_flow[flow_id] = per_flow.get(flow_id, 0) + size
        # Propagation: the packet arrives `delay` after its last bit left.
        self._tx_arrival = sim.call_at(end + self.delay, self._arrive, packet, self)

    def _drain_queue(self) -> None:
        """The serialiser freed up with packets waiting: send the next one."""
        queue = self.queue
        self._transmit(queue.dequeue(), self.sim.now)
        if len(queue):
            # This drain's own entry has fired: a fresh one takes its place.
            self._drain = self.sim.call_at(self._tx_end, self._drain_queue)
        else:
            self._draining = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.bandwidth / 1e6:.2f} Mbit/s, "
            f"{self.delay * 1e3:.1f} ms, loss={self.loss_rate})"
        )
