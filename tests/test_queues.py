"""Tests for drop-tail and RED queues."""

import random

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Node
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, REDQueue


def make_packet(seq=0):
    return Packet(src="a", dst="b", flow_id="f", size=1000, seq=seq)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(limit=10)
        for i in range(5):
            assert q.enqueue(make_packet(i), now=0.0)
        assert [q.dequeue().seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_drops_when_full(self):
        q = DropTailQueue(limit=3)
        for i in range(3):
            assert q.enqueue(make_packet(i), now=0.0)
        assert not q.enqueue(make_packet(99), now=0.0)
        assert q.drops == 1
        assert len(q) == 3

    def test_dequeue_empty_returns_none(self):
        q = DropTailQueue(limit=3)
        assert q.dequeue() is None

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            DropTailQueue(limit=0)

    def test_drop_then_accept_after_dequeue(self):
        q = DropTailQueue(limit=1)
        assert q.enqueue(make_packet(1), now=0.0)
        assert not q.enqueue(make_packet(2), now=0.0)
        q.dequeue()
        assert q.enqueue(make_packet(3), now=0.0)


class TestRED:
    def test_no_drops_below_min_threshold(self):
        q = REDQueue(limit=100, min_th=10, max_th=30)
        q.bind_rng(random.Random(1))
        for i in range(5):
            assert q.enqueue(make_packet(i), now=i * 0.001)
        assert q.drops == 0

    def test_probabilistic_drops_between_thresholds(self):
        q = REDQueue(limit=1000, min_th=2, max_th=5, max_p=0.5, weight=0.5)
        q.bind_rng(random.Random(1))
        accepted = 0
        for i in range(200):
            if q.enqueue(make_packet(i), now=i * 0.0001):
                accepted += 1
        assert q.drops > 0
        assert accepted > 0

    def test_hard_limit_still_enforced(self):
        q = REDQueue(limit=5, min_th=100, max_th=200)
        q.bind_rng(random.Random(1))
        for i in range(5):
            q.enqueue(make_packet(i), now=0.0)
        assert not q.enqueue(make_packet(99), now=0.0)

    def test_average_tracks_queue_size(self):
        q = REDQueue(limit=100, min_th=5, max_th=15, weight=0.5)
        q.bind_rng(random.Random(1))
        for i in range(20):
            q.enqueue(make_packet(i), now=0.0)
        assert q.average_queue_size > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            REDQueue(limit=0)
        with pytest.raises(ValueError):
            REDQueue(max_p=0.0)
        with pytest.raises(ValueError):
            REDQueue(min_th=10, max_th=5)

    def test_fifo_order_preserved(self):
        q = REDQueue(limit=100, min_th=50, max_th=80)
        q.bind_rng(random.Random(1))
        for i in range(5):
            q.enqueue(make_packet(i), now=0.0)
        out = [q.dequeue().seq for _ in range(5)]
        assert out == sorted(out)

    def test_without_rng_raises_clear_error(self):
        q = REDQueue(limit=10, min_th=0.5, max_th=1.0)
        # Drive the average over min_th (keep the queue non-full by dequeuing)
        # so a probabilistic drop decision is eventually needed.
        for seq in range(5000):
            try:
                q.enqueue(make_packet(seq), now=seq * 0.001)
            except RuntimeError as exc:
                assert "bind_rng" in str(exc)
                break
            if len(q) >= 5:
                q.dequeue()
        else:
            pytest.fail("REDQueue never hit the probabilistic path without an RNG")

    def test_link_binds_rng_automatically(self):
        sim = Simulator(seed=1)
        a, b = Node(sim, "a"), Node(sim, "b")
        link = Link(sim, a, b, bandwidth=1e6, delay=0.001, queue=REDQueue(limit=10))
        assert link.queue._rng is sim.rng
