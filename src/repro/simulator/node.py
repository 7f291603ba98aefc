"""Nodes, forwarding and the protocol-agent base class.

A node forwards packets according to a unicast routing table (destination
node id -> next-hop neighbour, filled on first lookup; see
:class:`RouteTable`) and a multicast forwarding table (group id -> set of
downstream links) and delivers packets to locally attached agents.  A
unicast packet costs one :class:`HopTable` lookup per node.

Agents (TCP senders/sinks, TFRC and TFMCC senders/receivers) subclass
:class:`Agent` and are attached to a node under a flow id.  Multicast
receivers additionally register as members of a multicast group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.simulator.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulator
    from repro.simulator.link import Link


class RoutingError(RuntimeError):
    """Raised when a packet cannot be forwarded."""


#: Computes a node's next hop towards a destination (None: unreachable).
Resolver = Callable[[str], Optional[str]]


class RouteTable(dict):
    """One node's unicast next hops: destination id -> neighbour id.

    ``routes[dst]``, ``routes.get(dst)`` and ``dst in routes`` fill an entry
    from ``resolve(dst)`` on its first lookup; unreachable destinations are
    never stored.  Without a resolver (a node outside a network) nothing
    is reachable.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve: Optional[Resolver] = None):
        super().__init__()
        self._resolve = resolve

    def __missing__(self, dst: str) -> str:
        hop = self._resolve(dst) if self._resolve is not None else None
        if hop is None:
            raise KeyError(dst)
        self[dst] = hop
        return hop

    def get(self, dst: str, default: Optional[str] = None) -> Optional[str]:
        try:
            return self[dst]
        except KeyError:
            return default

    def __contains__(self, dst: object) -> bool:
        return self.get(dst) is not None  # type: ignore[arg-type]


class HopTable(dict):
    """Destination id -> the one call a unicast packet takes at a node."""

    __slots__ = ("_node",)

    def __init__(self, node: "Node"):
        super().__init__()
        self._node = node

    def __missing__(self, dst: str) -> Callable[[Packet], Any]:
        node = self._node
        if dst == node.node_id:
            call = node._deliver
        else:
            link = node.links.get(node.routes.get(dst))
            call = node._unroutable if link is None else link.enqueue
        self[dst] = call
        return call


class Agent:
    """Base class for protocol endpoints attached to a node.

    Subclasses implement :meth:`receive`.  Sending is done through
    :meth:`send`, which hands the packet to the local node for forwarding.
    """

    def __init__(self, sim: "Simulator", flow_id: str):
        self.sim = sim
        self.flow_id = flow_id
        self.node: Optional["Node"] = None

    def attach(self, node: "Node") -> None:
        """Called by :meth:`Node.attach_agent`; records the local node."""
        self.node = node

    @property
    def node_id(self) -> str:
        if self.node is None:
            raise RuntimeError(f"agent {self.flow_id} is not attached to a node")
        return self.node.node_id

    def send(self, packet: Packet) -> None:
        """Send a packet into the network from the local node."""
        if self.node is None:
            raise RuntimeError(f"agent {self.flow_id} is not attached to a node")
        sim = self.sim
        packet.sent_at = sim.now
        if packet.uid < 0:
            packet.uid = sim.next_packet_uid()
        if packet.group is None:
            self.node.hops[packet.dst](packet)
        else:
            self.node.receive(packet, None, packet.flow_id)

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Node:
    """A network node (host or router)."""

    def __init__(self, sim: "Simulator", node_id: str, resolve: Optional[Resolver] = None):
        self.sim = sim
        self.node_id = node_id
        self.links: Dict[str, "Link"] = {}  # neighbour node id -> outgoing link
        self.routes = RouteTable(resolve)  # destination node id -> neighbour node id
        self.hops = HopTable(self)
        # group -> downstream neighbour ids, in deterministic (tree-build)
        # order; any iterable works, MulticastGroup stores tuples.
        self.mcast_routes: Dict[str, Sequence[str]] = {}
        # (group, incoming id) -> resolved Link.enqueue targets; rebuilt
        # lazily, invalidated whenever the distribution tree changes.
        self._mcast_cache: Dict[tuple, tuple] = {}
        self.agents: Dict[str, Agent] = {}  # flow id -> agent
        self.group_members: Dict[str, List[Agent]] = {}  # group -> local member agents
        self.packets_delivered = 0
        self.packets_unroutable = 0

    @property
    def packets_forwarded(self) -> int:
        """Packets offered to the node's outgoing links."""
        return sum(
            link._packets_sent + link.total_drops + len(link.queue) for link in self.links.values()
        )

    # ------------------------------------------------------------ wiring

    def add_link(self, link: "Link") -> None:
        """Register an outgoing link (called by :class:`Network`)."""
        self.links[link.dst.node_id] = link

    def attach_agent(self, agent: Agent) -> None:
        """Attach a protocol agent under its flow id."""
        if agent.flow_id in self.agents:
            raise ValueError(f"flow id {agent.flow_id!r} already attached to {self.node_id}")
        self.agents[agent.flow_id] = agent
        agent.attach(self)

    def detach_agent(self, agent: Agent) -> None:
        """Detach a previously attached agent."""
        if self.agents.get(agent.flow_id) is agent:
            del self.agents[agent.flow_id]

    def join_group(self, group: str, agent: Agent) -> None:
        """Register a local agent as member of a multicast group."""
        members = self.group_members.setdefault(group, [])
        if agent not in members:
            members.append(agent)

    def leave_group(self, group: str, agent: Agent) -> None:
        """Remove a local agent from a multicast group."""
        members = self.group_members.get(group, [])
        if agent in members:
            members.remove(agent)
        if not members and group in self.group_members:
            del self.group_members[group]

    # ------------------------------------------------------------ data path

    def send(self, packet: Packet) -> None:
        """Send a locally originated packet."""
        if packet.group is None:
            self.hops[packet.dst](packet)
        else:
            self.receive(packet, None, packet.flow_id)

    def receive(
        self,
        packet: Packet,
        from_link: Optional["Link"] = None,
        origin_flow: Optional[str] = None,
    ) -> None:
        """Handle a packet arriving from a link (or locally).

        ``origin_flow`` is set only by :meth:`send`: a locally originated
        multicast packet is never delivered back to the sending agent.  The
        multicast case is handled in this one frame because it runs once per
        receiver per data packet.  Forwarding to more than one downstream
        link runs as one :meth:`~repro.simulator.engine.Simulator.fan_out`.
        """
        group = packet.group
        if group is None:  # unicast
            self.hops[packet.dst](packet)
            return
        members = self.group_members.get(group)
        if members:
            if len(members) == 1:  # a leaf: one receiver
                agent = members[0]
                if agent.flow_id != origin_flow:
                    self.packets_delivered += 1
                    agent.receive(packet)
            else:
                # Copy: a receive() may trigger membership changes mid-loop.
                for agent in tuple(members):
                    if agent.flow_id != origin_flow:
                        self.packets_delivered += 1
                        agent.receive(packet)
        # Forward downstream along the distribution tree (deterministic order).
        routes = self.mcast_routes.get(group)
        if routes:
            incoming_id = from_link.src.node_id if from_link is not None else None
            key = (group, incoming_id)
            targets = self._mcast_cache.get(key)
            if targets is None:
                links = self.links
                targets = tuple(
                    links[neighbour].enqueue
                    for neighbour in routes
                    if neighbour != incoming_id and neighbour in links
                )
                self._mcast_cache[key] = targets
            if len(targets) > 1:
                # The arrivals these enqueues schedule skip the event heap.
                self.sim.fan_out(targets, packet)
            elif targets:
                targets[0](packet)

    # ------------------------------------------------------------ internals

    def _deliver(self, packet: Packet) -> None:
        agent = self.agents.get(packet.flow_id)
        if agent is None:
            # Packets to departed agents (e.g. a receiver that left) are
            # silently discarded, as a real host would do.
            return
        self.packets_delivered += 1
        agent.receive(packet)

    def _unroutable(self, packet: Packet) -> None:
        self.packets_unroutable += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, links={list(self.links)}, agents={list(self.agents)})"
