"""Multicast groups and source-rooted distribution trees.

The paper assumes an underlying multicast routing protocol that delivers
source traffic along a distribution tree.  We model this by computing, for a
given source node, the union of shortest paths from the source to every
member node.  Each on-tree node gets a multicast forwarding entry
``group -> {downstream neighbours}``.

Receivers can join and leave at any time (the responsiveness and late-join
experiments rely on this); the tree is recomputed on membership change, which
corresponds to an idealised instantaneous graft/prune.  Groups register with
their :class:`~repro.simulator.topology.Network`, which calls
:meth:`MulticastGroup.regraft` whenever the live topology changes (link
failure/recovery, delay change), so the distribution tree follows reroutes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.simulator.node import Agent
from repro.simulator.topology import Network


class MulticastGroup:
    """A single-source multicast group.

    Parameters
    ----------
    network:
        The network in which the group exists.
    group_id:
        Group identifier carried in packets.
    source:
        Node id of the (single) source.  The distribution tree is rooted here.
    """

    def __init__(self, network: Network, group_id: str, source: str):
        self.network = network
        self.group_id = group_id
        self.source = source
        # Members: (node id, agent) pairs.
        self._members: List[Tuple[str, Agent]] = []
        # Cached shortest-path tree, keyed by the network topology version:
        # membership churn (the common case) reuses one SSSP computation.
        self._spt_version: Optional[int] = None
        self._spt_parents: Optional[Dict[str, Optional[str]]] = None
        self._batching = False
        network.register_group(self)
        self._rebuild_tree()

    # ------------------------------------------------------------ membership

    @property
    def members(self) -> List[Tuple[str, Agent]]:
        """Current (node id, agent) membership list."""
        return list(self._members)

    @property
    def member_count(self) -> int:
        return len(self._members)

    def join(self, node_id: str, agent: Agent) -> None:
        """Add ``agent`` at ``node_id`` to the group and regraft the tree."""
        node = self.network.node(node_id)
        node.join_group(self.group_id, agent)
        self._members.append((node_id, agent))
        self._rebuild_tree()

    def leave(self, node_id: str, agent: Agent) -> None:
        """Remove ``agent`` at ``node_id`` from the group and prune the tree."""
        node = self.network.node(node_id)
        node.leave_group(self.group_id, agent)
        self._members = [(nid, a) for nid, a in self._members if a is not agent]
        self._rebuild_tree()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Graft once, on exit, for all joins and leaves made inside the block.

        The tree is a function of the members in join order and the
        topology, so the forwarding entries after the block equal those of
        per-join grafting; only the rebuilds in between — each a walk over
        every member — are skipped.  Nothing may be forwarded inside the
        block: it is for populating a group before traffic starts.
        """
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            self._rebuild_tree()

    # ------------------------------------------------------------ tree

    def regraft(self) -> None:
        """Recompute the distribution tree after a topology change.

        Called by :class:`Network` when a link fails, recovers or changes
        its delay; corresponds to the underlying multicast routing protocol
        converging on the new topology.
        """
        self._rebuild_tree()

    def _rebuild_tree(self) -> None:
        """Recompute the source-rooted distribution tree from shortest paths.

        One single-source shortest-path computation covers every member
        (instead of one search per member), and forwarding entries are
        stored as tuples in member-join order so that packet forwarding —
        and with it every downstream RNG draw — is deterministic across
        processes regardless of ``PYTHONHASHSEED``.
        """
        if self._batching:
            return
        # Clear existing forwarding state for this group.
        for node in self.network.nodes.values():
            node.mcast_routes.pop(self.group_id, None)
            node._mcast_cache.clear()
        if not self._members:
            return
        version = self.network.topology_version
        if self._spt_parents is None or self._spt_version != version:
            self._spt_parents = self.network.shortest_path_tree(self.source)
            self._spt_version = version
        parents = self._spt_parents
        # hop -> {next hop: None}; insertion-ordered stand-in for a set.
        downstream: Dict[str, Dict[str, None]] = {}
        seen = set()
        for member, _agent in self._members:
            if member == self.source or member in seen:
                continue
            seen.add(member)
            # Walk member -> source along tree predecessors; stop early when
            # the walk merges with an already-grafted branch.
            nxt = member
            hop = parents.get(nxt)
            while hop is not None:
                branch = downstream.setdefault(hop, {})
                if nxt in branch:
                    break
                branch[nxt] = None
                nxt = hop
                hop = parents.get(nxt)
        for node_id, neighbours in downstream.items():
            self.network.node(node_id).mcast_routes[self.group_id] = tuple(neighbours)

    def tree_edges(self) -> Set[Tuple[str, str]]:
        """Return the set of directed edges currently in the distribution tree."""
        edges: Set[Tuple[str, str]] = set()
        for node in self.network.nodes.values():
            for neighbour in node.mcast_routes.get(self.group_id, set()):
                edges.add((node.node_id, neighbour))
        return edges
