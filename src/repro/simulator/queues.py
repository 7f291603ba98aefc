"""Link queues: drop-tail and RED.

The paper's simulations use drop-tail queues ("In all simulations below,
drop-tail queues were used at the routers"); RED is provided because the
paper notes fairness generally improves with active queue management, and the
ablation benchmarks exercise it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.simulator.packet import Packet


class PacketQueue:
    """Interface for link queues."""

    #: Peak occupancy observed at enqueue time (telemetry; always-on, one
    #: compare per accepted packet).  Class-level default so third-party
    #: queues that never track it still read as 0.
    peak = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Try to enqueue ``packet``.  Returns False if the packet is dropped."""
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the next packet, or None if empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def drops(self) -> int:
        raise NotImplementedError


class DropTailQueue(PacketQueue):
    """FIFO queue with a fixed packet-count limit.

    Parameters
    ----------
    limit:
        Maximum number of queued packets (excluding the one in transmission).
    """

    __slots__ = ("limit", "_queue", "_drops", "enqueued", "peak")

    def __init__(self, limit: int = 50):
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = limit
        self._queue: Deque[Packet] = deque()
        self._drops = 0
        self.enqueued = 0
        self.peak = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._queue) >= self.limit:
            self._drops += 1
            return False
        self._queue.append(packet)
        self.enqueued += 1
        if len(self._queue) > self.peak:
            self.peak = len(self._queue)
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def drops(self) -> int:
        return self._drops


class REDQueue(PacketQueue):
    """Random Early Detection queue (Floyd & Jacobson 1993, gentle variant).

    The average queue size is an EWMA of the instantaneous queue size sampled
    at every enqueue.  Packets are dropped probabilistically once the average
    exceeds ``min_th`` and always once it exceeds ``2 * max_th``.
    """

    __slots__ = (
        "limit", "min_th", "max_th", "max_p", "weight", "_queue", "_drops",
        "_avg", "_count_since_drop", "_idle_since", "enqueued", "_rng", "peak",
    )

    def __init__(
        self,
        limit: int = 100,
        min_th: float = 5.0,
        max_th: float = 15.0,
        max_p: float = 0.1,
        weight: float = 0.002,
    ):
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        if not 0.0 < max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")
        if min_th >= max_th:
            raise ValueError("min_th must be < max_th")
        self.limit = limit
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self._queue: Deque[Packet] = deque()
        self._drops = 0
        self._avg = 0.0
        self._count_since_drop = -1
        self._idle_since: Optional[float] = 0.0
        self.enqueued = 0
        self.peak = 0
        # RNG is injected by the owning Link so seeding stays centralised.
        self._rng = None

    def bind_rng(self, rng) -> None:
        """Attach the simulator RNG used for probabilistic drops."""
        self._rng = rng

    def _update_average(self, now: float) -> None:
        q = len(self._queue)
        if q == 0 and self._idle_since is not None:
            # Decay the average while the queue was idle, approximating the
            # "m" small-packet transmissions of the original RED paper.
            idle = max(0.0, now - self._idle_since)
            m = int(idle / 0.001)
            self._avg *= (1.0 - self.weight) ** m
            self._idle_since = None
        self._avg = (1.0 - self.weight) * self._avg + self.weight * q

    def _drop_probability(self) -> float:
        if self._avg < self.min_th:
            return 0.0
        if self._avg >= 2.0 * self.max_th:
            return 1.0
        if self._avg >= self.max_th:
            # Gentle RED: ramp from max_p to 1 between max_th and 2*max_th.
            return self.max_p + (self._avg - self.max_th) / self.max_th * (1.0 - self.max_p)
        return self.max_p * (self._avg - self.min_th) / (self.max_th - self.min_th)

    def enqueue(self, packet: Packet, now: float) -> bool:
        self._update_average(now)
        if len(self._queue) >= self.limit:
            self._drops += 1
            self._count_since_drop = 0
            return False
        prob = self._drop_probability()
        if prob > 0.0:
            self._count_since_drop += 1
            if self._rng is None:
                raise RuntimeError(
                    "REDQueue has no RNG bound: attach the queue to a Link "
                    "(links bind the simulator RNG automatically, e.g. via "
                    "Network.add_link(..., queue_factory=lambda: REDQueue(...))) "
                    "or call bind_rng(sim.rng) before offering packets"
                )
            uniform = self._rng.random()
            # Uniform inter-drop spreading as in the original RED algorithm.
            denom = max(1e-9, 1.0 - self._count_since_drop * prob)
            effective = min(1.0, prob / denom) if prob < 1.0 else 1.0
            if uniform < effective:
                self._drops += 1
                self._count_since_drop = 0
                return False
        else:
            self._count_since_drop = -1
        self._queue.append(packet)
        self.enqueued += 1
        if len(self._queue) > self.peak:
            self.peak = len(self._queue)
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        if not self._queue:
            self._idle_since = None  # set by link when it learns the time
        return packet

    def mark_idle(self, now: float) -> None:
        """Record the time the queue went idle (used for average decay)."""
        if not self._queue:
            self._idle_since = now

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def drops(self) -> int:
        return self._drops

    @property
    def average_queue_size(self) -> float:
        return self._avg
