"""Network topology construction, unicast routing and live dynamics.

:class:`Network` wraps a set of :class:`~repro.simulator.node.Node` objects
and their links and keeps an undirected adjacency view of the topology.
Unicast routes (shortest paths by propagation delay) are computed per
destination on first lookup: a node's next hop is its parent in one cached
Dijkstra rooted at the destination, or, where another neighbour ties with
it, the first hop of the node's own tree (:meth:`Network.path`'s tree).
So a build costs O(links) and no all-pairs table exists.  It also offers
the topology builders used throughout the paper's evaluation:

* :meth:`Network.dumbbell` -- the single-bottleneck topology of Figure 8,
* :meth:`Network.star` -- the star topology used for the responsiveness
  experiments (Figures 11, 13 and 20),

and the live-dynamics entry points used by the time-scripted scenario layer
(:mod:`repro.scenarios.spec`): :meth:`fail_link` / :meth:`restore_link` /
:meth:`set_link_delay` mutate the running topology, clear the filled unicast
next hops (they refill on the next lookup) and re-graft every registered
multicast group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Agent, Node, RoutingError
from repro.simulator.queues import DropTailQueue, PacketQueue

#: Relative slack under which another neighbour's path counts as tied with
#: the destination-rooted next hop.  Distances summed from the two ends of a
#: path can differ in the last ulp; 1e-9 is far above that and far below any
#: real difference in propagation delay.
_TIE_TOLERANCE = 1e-9


@dataclass
class LinkSpec:
    """Parameters of one direction of a duplex link."""

    bandwidth: float
    delay: float
    queue_limit: int = 50
    loss_rate: float = 0.0


class Network:
    """A collection of nodes and links with automatic route computation."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        # Undirected adjacency: node -> neighbour -> edge-attribute dict.
        # Both directions of an edge share ONE attribute dict (like
        # networkx.Graph, which this replaces), and insertion order follows
        # edge creation order so Dijkstra tie-breaking is deterministic.
        self.adj: Dict[str, Dict[str, Dict[str, object]]] = {}
        #: Bumped whenever the topology changes (node/link added, link
        #: failed/restored, delay changed); lets shortest-path consumers
        #: (multicast trees, the shortest-path cache) reuse results safely.
        self.topology_version = 0
        #: Multicast groups re-grafted on topology changes (see
        #: :meth:`register_group`).
        self.groups: List[object] = []
        #: Optional trace sink (``repro.metrics.trace.TraceRecorder``);
        #: route rebuilds triggered by live dynamics emit on the
        #: ``route_rebuild`` channel.
        self.probe = None
        # Single-source shortest-path cache: root -> (version, parents,
        # dist).  Shared by unicast next hops, path/path_delay and multicast
        # trees, so queries and forwarding never disagree on tie-breaking.
        self._sssp_cache: Dict[str, Tuple[int, Dict, Dict]] = {}
        # Nodes that resolved a next hop: their route and hop tables are
        # cleared (not rebuilt) whenever a link is added or the topology changes.
        self._routed: Dict[str, Node] = {}

    # ------------------------------------------------------------ topology

    def add_node(self, node_id: str) -> Node:
        """Create (or return the existing) node with the given id."""
        if node_id in self.nodes:
            return self.nodes[node_id]
        node = Node(self.sim, node_id, partial(self._next_hop, node_id))
        self.nodes[node_id] = node
        self.adj[node_id] = {}
        self.topology_version += 1
        return node

    def node(self, node_id: str) -> Node:
        """Return an existing node."""
        return self.nodes[node_id]

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth: float,
        delay: float,
        queue_limit: int = 50,
        loss_rate: float = 0.0,
        queue_factory: Optional[Callable[[], PacketQueue]] = None,
        jitter: float = 0.0,
        channel: Optional[Any] = None,
    ) -> Link:
        """Add a unidirectional link from ``src`` to ``dst``.

        ``channel`` installs a channel model
        (:class:`~repro.channel.models.ChannelModel`); ``loss_rate`` is
        shorthand for a Bernoulli one.  Give at most one of the two.
        """
        src_node = self.add_node(src)
        dst_node = self.add_node(dst)
        queue = queue_factory() if queue_factory is not None else DropTailQueue(queue_limit)
        link = Link(
            self.sim,
            src_node,
            dst_node,
            bandwidth,
            delay,
            queue,
            loss_rate,
            jitter=jitter,
            channel=channel,
        )
        src_node.add_link(link)
        self.links.append(link)
        attrs = self.adj[src].get(dst)
        if attrs is None:
            attrs = {"delay": delay}
            self.adj[src][dst] = attrs
            self.adj[dst][src] = attrs
        else:
            attrs["delay"] = delay
        self.topology_version += 1
        self._clear_routes()
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        bandwidth: float,
        delay: float,
        queue_limit: int = 50,
        loss_rate: float = 0.0,
        queue_factory: Optional[Callable[[], PacketQueue]] = None,
        jitter: float = 0.0,
        channel_factory: Optional[Callable[[], Any]] = None,
    ) -> Tuple[Link, Link]:
        """Add a bidirectional link (two unidirectional links) between a and b.

        ``channel_factory`` builds one channel model per direction (channel
        state is never shared between directions).
        """
        forward = self.add_link(
            a,
            b,
            bandwidth,
            delay,
            queue_limit,
            loss_rate,
            queue_factory,
            jitter,
            channel_factory() if channel_factory is not None else None,
        )
        backward = self.add_link(
            b,
            a,
            bandwidth,
            delay,
            queue_limit,
            loss_rate,
            queue_factory,
            jitter,
            channel_factory() if channel_factory is not None else None,
        )
        return forward, backward

    def link_between(self, src: str, dst: str) -> Optional[Link]:
        """Return the directed link from ``src`` to ``dst`` if it exists."""
        node = self.nodes.get(src)
        if node is None:
            return None
        return node.links.get(dst)

    # ------------------------------------------------------------ routing

    def _dijkstra(self, source: str, weight: str = "delay"):
        """Single-source shortest paths over the (undirected) topology graph.

        Returns ``(parents, dist)``: the predecessor of every reached node
        and its distance from ``source``.  Ties are broken by discovery
        order (which follows edge insertion order), so the result is
        deterministic across processes — unlike iterating sets of node-id
        strings, it does not depend on ``PYTHONHASHSEED``.  Edges marked
        down (failed links) are skipped.
        """
        adj = self.adj
        dist = {source: 0.0}
        parents: Dict[str, Optional[str]] = {source: None}
        done = set()
        counter = 0
        heap = [(0.0, counter, source)]
        while heap:
            d, _tie, u = heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, edge in adj[u].items():
                if v in done or edge.get("down"):
                    continue
                nd = d + edge[weight]
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    parents[v] = u
                    counter += 1
                    heappush(heap, (nd, counter, v))
        return parents, dist

    def _sssp(self, source: str, weight: str = "delay"):
        """Cached single-source shortest paths (invalidated by version bumps)."""
        if source not in self.nodes:
            raise RoutingError(f"unknown node {source!r}")
        if weight != "delay":
            return self._dijkstra(source, weight)
        entry = self._sssp_cache.get(source)
        if entry is not None and entry[0] == self.topology_version:
            return entry[1], entry[2]
        parents, dist = self._dijkstra(source, weight)
        self._sssp_cache[source] = (self.topology_version, parents, dist)
        return parents, dist

    def shortest_path_tree(self, source: str, weight: str = "delay") -> Dict[str, Optional[str]]:
        """Predecessor map of the shortest-path tree rooted at ``source``."""
        parents, _dist = self._sssp(source, weight)
        return parents

    def _next_hop(self, src: str, dst: str) -> Optional[str]:
        """Resolve ``src``'s next hop towards ``dst`` (None: unreachable).

        The resolver behind every :class:`~repro.simulator.node.RouteTable`.
        ``src``'s parent in the Dijkstra rooted at ``dst`` is its next hop
        unless another live neighbour ``q`` offers a path within
        :data:`_TIE_TOLERANCE` of it; then the first hop of ``src``'s own
        shortest-path tree decides, as a per-source table would.
        """
        self._routed[src] = self.nodes[src]
        if dst == src or dst not in self.nodes:
            return None
        parents, dist = self._sssp(dst)
        hop = parents.get(src)
        if hop is None:
            return None
        bound = dist[src] * (1.0 + _TIE_TOLERANCE)
        for q, edge in self.adj[src].items():
            if q != hop and not edge.get("down") and edge["delay"] + dist[q] <= bound:
                tree, _dist = self._sssp(src)
                hop = dst
                while tree[hop] != src:
                    hop = tree[hop]
                break
        return hop

    def _clear_routes(self) -> None:
        """Forget every filled next hop and hop call; each refills on first use."""
        for node in self._routed.values():
            node.routes.clear()
            node.hops.clear()
        self._routed = {}

    def path(self, src: str, dst: str, weight: str = "delay") -> List[str]:
        """Shortest path between two nodes as a list of node ids.

        Walks ``src``'s cached shortest-path tree.  Forwarding takes the
        same hops wherever shortest paths are unique, and at every node
        whose next hop ties it falls back to that node's own tree (see
        :meth:`_next_hop`).  Raises :class:`RoutingError` when ``dst`` is
        unreachable.
        """
        if dst not in self.nodes:
            raise RoutingError(f"unknown node {dst!r}")
        parents, _dist = self._sssp(src, weight)
        if dst not in parents:
            raise RoutingError(f"no path from {src!r} to {dst!r}")
        nodes = [dst]
        hop = parents[dst]
        while hop is not None:
            nodes.append(hop)
            hop = parents[hop]
        nodes.reverse()
        return nodes

    def path_delay(self, src: str, dst: str) -> float:
        """Sum of link propagation delays along the shortest path.

        Raises :class:`RoutingError` when a hop of the computed path has no
        corresponding link — an inconsistent topology that would otherwise
        silently under-report the delay.
        """
        nodes = self.path(src, dst)
        total = 0.0
        for a, b in zip(nodes, nodes[1:]):
            link = self.link_between(a, b)
            if link is None:
                raise RoutingError(
                    f"inconsistent topology: path {src!r}->{dst!r} uses hop "
                    f"{a!r}->{b!r} but no such link exists"
                )
            total += link.delay
        return total

    # ------------------------------------------------------------ live dynamics

    def register_group(self, group) -> None:
        """Register a multicast group for re-grafting on topology changes."""
        if group not in self.groups:
            self.groups.append(group)

    def _topology_changed(self, reason: str) -> None:
        """Propagate a live topology change: routes, multicast trees, probe."""
        self.topology_version += 1
        self._sssp_cache.clear()
        self._clear_routes()
        for group in self.groups:
            group.regraft()
        if self.probe is not None:
            self.probe.emit("route_rebuild", self.sim.now, reason, self.topology_version)

    def _duplex_links(self, a: str, b: str) -> List[Link]:
        links = [self.link_between(a, b), self.link_between(b, a)]
        present = [l for l in links if l is not None]
        if not present:
            raise RoutingError(f"no link between {a!r} and {b!r}")
        return present

    def fail_link(self, a: str, b: str) -> None:
        """Take the duplex link ``a <-> b`` down and reroute around it.

        Both directions drop their queues and refuse new packets; the
        routing edge is marked down (rather than removed, so a later
        :meth:`restore_link` keeps the original deterministic tie-breaking
        order), unicast routes are rebuilt and every registered multicast
        group re-grafts its distribution tree.
        """
        for link in self._duplex_links(a, b):
            link.set_down()
        edge = self.adj.get(a, {}).get(b)
        if edge is not None:
            edge["down"] = True
        self._topology_changed(f"link_down:{a}<->{b}")

    def restore_link(self, a: str, b: str) -> None:
        """Bring a previously failed duplex link back up and reroute."""
        for link in self._duplex_links(a, b):
            link.set_up()
        edge = self.adj.get(a, {}).get(b)
        if edge is not None and edge.get("down"):
            del edge["down"]
        self._topology_changed(f"link_up:{a}<->{b}")

    def set_link_delay(self, a: str, b: str, delay: float) -> None:
        """Change the propagation delay of the duplex link and reroute.

        Delay is the routing weight, so shortest paths may change; routes
        and multicast trees are rebuilt.
        """
        for link in self._duplex_links(a, b):
            link.set_delay(delay)
        edge = self.adj.get(a, {}).get(b)
        if edge is not None:
            edge["delay"] = delay
        self._topology_changed(f"delay_change:{a}<->{b}")

    # ------------------------------------------------------------ attachment

    def attach(self, node_id: str, agent: Agent) -> Agent:
        """Attach an agent to a node (creating the node if necessary)."""
        self.add_node(node_id).attach_agent(agent)
        return agent

    # ------------------------------------------------------------ builders

    @classmethod
    def dumbbell(
        cls,
        sim: Simulator,
        num_left: int,
        num_right: int,
        bottleneck_bandwidth: float,
        bottleneck_delay: float,
        access_bandwidth: float,
        access_delay: float,
        queue_limit: int = 50,
        access_queue_limit: Optional[int] = None,
        access_jitter: Optional[float] = None,
    ) -> "Network":
        """Build the classic dumbbell / single-bottleneck topology (Figure 8).

        Nodes are named ``src0..src{num_left-1}``, ``dst0..dst{num_right-1}``,
        ``router_left`` and ``router_right``.  ``access_jitter`` adds random
        per-packet processing delay on the access links (default: one
        bottleneck packet time) to break drop-tail phase effects.
        """
        net = cls(sim)
        access_q = access_queue_limit if access_queue_limit is not None else queue_limit
        if access_jitter is None:
            access_jitter = 1000.0 * 8.0 / bottleneck_bandwidth
        net.add_duplex_link(
            "router_left",
            "router_right",
            bottleneck_bandwidth,
            bottleneck_delay,
            queue_limit,
        )
        for i in range(num_left):
            net.add_duplex_link(
                f"src{i}",
                "router_left",
                access_bandwidth,
                access_delay,
                access_q,
                jitter=access_jitter,
            )
        for i in range(num_right):
            net.add_duplex_link(
                f"dst{i}",
                "router_right",
                access_bandwidth,
                access_delay,
                access_q,
                jitter=access_jitter,
            )
        return net

    @classmethod
    def star(
        cls,
        sim: Simulator,
        num_leaves: int,
        leaf_specs: Optional[List[LinkSpec]] = None,
        hub_bandwidth: float = 100e6,
        hub_delay: float = 0.001,
        source_name: str = "source",
        queue_limit: int = 50,
    ) -> "Network":
        """Build a star topology: a source behind a hub with per-leaf links.

        ``leaf_specs`` gives per-leaf link parameters (bandwidth, delay, queue
        limit, loss rate); leaves are named ``leaf0..leaf{num_leaves-1}``.
        """
        net = cls(sim)
        net.add_duplex_link(source_name, "hub", hub_bandwidth, hub_delay, queue_limit)
        for i in range(num_leaves):
            spec = (
                leaf_specs[i]
                if leaf_specs is not None and i < len(leaf_specs)
                else LinkSpec(bandwidth=10e6, delay=0.01)
            )
            net.add_duplex_link(
                f"leaf{i}",
                "hub",
                spec.bandwidth,
                spec.delay,
                spec.queue_limit,
                spec.loss_rate,
            )
        return net
