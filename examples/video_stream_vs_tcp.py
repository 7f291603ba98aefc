#!/usr/bin/env python
"""Multicast video streaming next to TCP cross traffic.

The paper motivates TFMCC with long-lived multicast streams (video, stock
tickers) that need a *smooth* rate while remaining TCP-friendly.  This
example streams to four receivers over a shared 4 Mbit/s bottleneck that
also carries three greedy TCP downloads, and reports:

* the average throughput of the TFMCC stream and of each TCP flow,
* the smoothness (coefficient of variation of the per-second rate) of both,
* Jain's fairness index across all flows.

Run with:  python examples/video_stream_vs_tcp.py [--time-scale 0.1]
"""

import argparse

from repro import (
    Network,
    Simulator,
    TCPRenoSender,
    TCPSink,
    TFMCCSession,
    ThroughputMonitor,
    fairness_index,
)


def main(time_scale: float = 1.0) -> None:
    sim = Simulator(seed=11)
    num_tcp = 3
    network = Network.dumbbell(
        sim,
        num_left=num_tcp + 1,
        num_right=4,
        bottleneck_bandwidth=4e6,
        bottleneck_delay=0.02,
        access_bandwidth=100e6,
        access_delay=0.001,
    )
    monitor = ThroughputMonitor(sim, interval=1.0)
    session = TFMCCSession(sim, network, sender_node="src0", monitor=monitor)
    receivers = [session.add_receiver(f"dst{i}") for i in range(4)]
    session.start(0.0)
    for i in range(1, num_tcp + 1):
        tcp = TCPRenoSender(sim, f"tcp{i}", f"dst{i % 4}", monitor=monitor)
        network.attach(f"src{i}", tcp)
        network.attach(f"dst{i % 4}", TCPSink(sim, f"tcp{i}", f"src{i}", monitor=monitor))
        tcp.start(0.0)

    duration = 120.0 * time_scale
    sim.run(until=duration)
    warmup = 30.0 * time_scale

    stream_stats = monitor.stats(receivers[0].receiver_id, warmup, duration)
    print("Multicast video stream (TFMCC):")
    print(f"  average rate : {stream_stats.mean / 1e3:8.1f} kbit/s")
    print(f"  rate CoV     : {stream_stats.coefficient_of_variation:8.2f}  (lower = smoother)")
    print()
    averages = [stream_stats.mean]
    print("TCP cross traffic:")
    for i in range(1, num_tcp + 1):
        stats = monitor.stats(f"tcp{i}", warmup, duration)
        averages.append(stats.mean)
        print(
            f"  tcp{i}: {stats.mean / 1e3:8.1f} kbit/s   "
            f"CoV {stats.coefficient_of_variation:4.2f}"
        )
    print()
    print(f"Jain fairness index over all flows: {fairness_index(averages):.3f}")
    print(f"TFMCC / mean TCP ratio: {averages[0] / (sum(averages[1:]) / num_tcp):.2f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="multiply all simulated durations (use e.g. 0.1 for a quick look)",
    )
    main(parser.parse_args().time_scale)
