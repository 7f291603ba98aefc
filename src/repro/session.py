"""High-level TFMCC session wiring.

:class:`TFMCCSession` is the main entry point of the public API: it creates a
TFMCC sender on one node, receivers on other nodes, joins them to a multicast
group, and offers convenience methods for dynamic membership (join / leave at
a given simulation time), which the responsiveness and late-join scenarios
use heavily.  The scenario layer's ``tfmcc`` protocol factory
(:mod:`repro.protocols.tfmcc`) builds sessions from declarative
:class:`~repro.scenarios.spec.FlowSpec` data; this class remains the
hand-scripted interface underneath it.

Example
-------
>>> from repro import Simulator, Network, TFMCCSession
>>> sim = Simulator(seed=1)
>>> net = Network.dumbbell(sim, 1, 2, 1e6, 0.02, 10e6, 0.001)
>>> session = TFMCCSession(sim, net, sender_node="src0")
>>> session.add_receiver("dst0")    # doctest: +ELLIPSIS
<repro.core.receiver.TFMCCReceiver object at ...>
>>> session.start(at=0.0)
>>> sim.run(until=5.0)
5.0
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.core.config import TFMCCConfig
from repro.core.receiver import TFMCCReceiver
from repro.core.sender import TFMCCSender
from repro.simulator.engine import Simulator
from repro.simulator.monitor import ThroughputMonitor
from repro.simulator.multicast import MulticastGroup
from repro.simulator.topology import Network


class TFMCCSession:
    """A complete TFMCC session: one sender, a multicast group and receivers.

    Parameters
    ----------
    sim:
        Simulator.
    network:
        The network topology; unicast routes resolve on first use.
    sender_node:
        Node id where the sender is attached.
    config:
        Protocol configuration shared by the sender and all receivers.
    monitor:
        Optional throughput monitor; receivers record received bytes under
        their receiver id, the sender records sent bytes under the session
        flow id.
    name:
        Session name used to derive flow / group / receiver identifiers.
    probe:
        Optional :class:`repro.metrics.trace.TraceRecorder`; when set, the
        sender and every receiver (including ones joining later through the
        membership schedule) stream structured trace events into it.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sender_node: str,
        config: Optional[TFMCCConfig] = None,
        monitor: Optional[ThroughputMonitor] = None,
        name: Optional[str] = None,
        probe=None,
    ):
        self.sim = sim
        self.network = network
        self.config = config if config is not None else TFMCCConfig()
        self.monitor = monitor
        self.probe = probe
        # Default names come from a per-simulator counter so that identical
        # runs in one process build identically-named sessions (module-level
        # counters would leak state between runs).
        self.name = name or f"tfmcc{sim.next_index('tfmcc-session')}"
        self.flow_id = f"{self.name}-flow"
        self.group_id = f"{self.name}-group"
        self.sender_node = sender_node

        self.sender = TFMCCSender(
            sim, self.flow_id, self.group_id, config=self.config, monitor=monitor
        )
        self.sender.probe = self.probe
        network.attach(sender_node, self.sender)
        self.group = MulticastGroup(network, self.group_id, sender_node)
        self.receivers: Dict[str, TFMCCReceiver] = {}
        self._receiver_counter = itertools.count()

    # ------------------------------------------------------------ membership

    def add_receiver(
        self,
        node_id: str,
        receiver_id: Optional[str] = None,
        clock_offset: float = 0.0,
        config: Optional[TFMCCConfig] = None,
        leave_at: Optional[float] = None,
    ) -> TFMCCReceiver:
        """Create a receiver at ``node_id`` and join it to the group now.

        ``leave_at`` optionally schedules the receiver's departure at an
        absolute simulation time.
        """
        rid = receiver_id or f"{self.name}-rcv{next(self._receiver_counter)}"
        receiver = TFMCCReceiver(
            sim=self.sim,
            receiver_id=rid,
            session_flow_id=self.flow_id,
            sender_node=self.sender_node,
            group_id=self.group_id,
            config=config if config is not None else self.config,
            monitor=self.monitor,
            clock_offset=clock_offset,
        )
        receiver.probe = self.probe
        self.network.attach(node_id, receiver)
        self.group.join(node_id, receiver)
        self.receivers[rid] = receiver
        if leave_at is not None:
            self.remove_receiver_at(leave_at, rid)
        return receiver

    def add_receiver_at(
        self,
        time: float,
        node_id: str,
        receiver_id: Optional[str] = None,
        clock_offset: float = 0.0,
        config: Optional[TFMCCConfig] = None,
        leave_at: Optional[float] = None,
    ) -> str:
        """Schedule a receiver join at simulation time ``time``.

        Returns the receiver id that will be used (the receiver object itself
        is created when the join happens; look it up in :attr:`receivers`).
        ``config`` optionally overrides the session's protocol configuration
        for this receiver (matching :meth:`add_receiver`); ``leave_at``
        optionally schedules the matching departure.
        """
        if leave_at is not None and leave_at <= time:
            raise ValueError(
                f"leave_at ({leave_at}) must be after the join time ({time})"
            )
        rid = receiver_id or f"{self.name}-rcv{next(self._receiver_counter)}"
        self.sim.schedule_at(
            time,
            lambda: self.add_receiver(
                node_id, receiver_id=rid, clock_offset=clock_offset, config=config
            ),
        )
        if leave_at is not None:
            self.remove_receiver_at(leave_at, rid)
        return rid

    def remove_receiver(self, receiver_id: str) -> None:
        """Make a receiver leave the group immediately."""
        receiver = self.receivers.get(receiver_id)
        if receiver is None:
            return
        receiver.leave()
        node = receiver.node
        if node is not None:
            self.group.leave(node.node_id, receiver)

    def remove_receiver_at(self, time: float, receiver_id: str) -> None:
        """Schedule a receiver leave at simulation time ``time``."""
        self.sim.schedule_at(time, lambda: self.remove_receiver(receiver_id))

    # ------------------------------------------------------------ lifecycle

    def start(self, at: float = 0.0) -> None:
        """Start the sender at simulation time ``at``."""
        self.sender.start(at)

    def stop(self, at: Optional[float] = None) -> None:
        """Stop the sender."""
        self.sender.stop(at)

    # ------------------------------------------------------------ inspection

    @property
    def receiver_list(self) -> List[TFMCCReceiver]:
        return list(self.receivers.values())

    def average_receive_rate_bps(self, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average throughput (bits/s) over all receivers from the monitor."""
        if self.monitor is None or not self.receivers:
            return 0.0
        rates = [
            self.monitor.average_throughput(rid, t_start, t_end) for rid in self.receivers
        ]
        return sum(rates) / len(rates)
