#!/usr/bin/env python
"""File distribution to heterogeneous receivers with membership churn.

A software-update style workload: a long-lived multicast transfer reaches
receivers behind links of very different quality.  A congested mobile
receiver joins mid-transfer and later leaves; the script shows how TFMCC
selects it as the current limiting receiver (CLR), adapts the rate to it,
and recovers after it leaves -- the behaviour of the paper's Figures 11,
15 and 16.

Run with:  python examples/heterogeneous_receivers.py [--time-scale 0.1]
"""

import argparse

from repro import Network, Simulator, TFMCCSession, ThroughputMonitor


def main(time_scale: float = 1.0) -> None:
    ts = time_scale
    sim = Simulator(seed=23)
    network = Network(sim)
    # A well-connected office receiver, a DSL receiver and (later) a lossy
    # mobile receiver, all behind a common 20 Mbit/s distribution link.
    network.add_duplex_link("server", "core", 20e6, 0.002, jitter=0.001)
    network.add_duplex_link("core", "office", 10e6, 0.005, jitter=0.001)
    network.add_duplex_link("core", "dsl", 2e6, 0.02, jitter=0.001)
    network.add_duplex_link("core", "mobile", 800e3, 0.05, loss_rate=0.02, jitter=0.001)

    monitor = ThroughputMonitor(sim, interval=1.0)
    session = TFMCCSession(sim, network, sender_node="server", monitor=monitor)
    session.add_receiver("office", receiver_id="office")
    session.add_receiver("dsl", receiver_id="dsl")
    session.start(0.0)

    # The mobile receiver joins at t=60 s and leaves at t=150 s (paper time).
    session.add_receiver_at(60.0 * ts, "mobile", receiver_id="mobile")
    session.remove_receiver_at(150.0 * ts, "mobile")

    clr_timeline = []

    def sample_clr() -> None:
        clr_timeline.append((sim.now, session.sender.clr_id))
        sim.schedule(5.0 * ts, sample_clr)

    sim.schedule(5.0 * ts, sample_clr)
    duration = 220.0 * ts
    sim.run(until=duration)

    def window(name, start, end):
        return monitor.average_throughput(name, start * ts, end * ts) / 1e3

    print("Delivered rate at the office receiver (kbit/s):")
    print(f"  before the mobile joins  (20-60 s) : {window('office', 20, 60):8.1f}")
    print(f"  while the mobile is in  (70-150 s) : {window('office', 70, 150):8.1f}")
    print(f"  after the mobile leaves (170-220 s): {window('office', 170, 220):8.1f}")
    print()
    print(f"Mobile receiver goodput while joined: {window('mobile', 70, 150):8.1f} kbit/s")
    print()
    print("CLR over time (every 25 s):")
    for t, clr in clr_timeline[::5]:
        print(f"  t={t:5.0f} s  CLR={clr}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="multiply all simulated durations (use e.g. 0.1 for a quick look)",
    )
    main(parser.parse_args().time_scale)
