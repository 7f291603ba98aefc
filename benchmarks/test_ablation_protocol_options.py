"""Ablation benchmarks for TFMCC design choices called out in DESIGN.md.

These are not figures from the paper but quantify the design decisions the
paper discusses qualitatively: the feedback-cancellation threshold, the
bias method, and drop-tail versus RED queues.
"""

from conftest import report

from repro.analysis.feedback_rounds import FeedbackRoundSimulator
from repro.core.feedback import BiasMethod
from repro.scenarios import get_scenario, run_scenario


def test_ablation_cancellation_delta():
    """Responses and report quality as the cancellation threshold varies."""

    def run():
        out = []
        for delta in (0.0, 0.05, 0.1, 0.5, 1.0):
            sim = FeedbackRoundSimulator(seed=42, cancellation_delta=delta)
            responses = sim.average_responses(2000, rounds=5)
            quality = sim.average_report_quality(2000, rounds=5)
            out.append((delta, responses, quality))
        return out

    results = run()
    rows = [("delta", "responses per round", "report deviation")]
    for delta, responses, quality in results:
        rows.append((delta, round(responses, 1), round(quality, 3)))
    report("Ablation: cancellation threshold delta", rows)
    by_delta = {delta: (responses, quality) for delta, responses, quality in results}
    # delta = 0 guarantees the best report but costs the most feedback.
    assert by_delta[0.0][0] >= by_delta[1.0][0]
    assert by_delta[0.0][1] <= by_delta[1.0][1] + 1e-9


def test_ablation_bias_method_full_protocol():
    """Full packet-level run with biased vs unbiased feedback timers."""
    from repro.core.config import TFMCCConfig

    def run():
        spec = get_scenario("fairness").spec(
            num_tcp=2, bottleneck_bps=8e6, duration=48.0, warmup_fraction=0.4
        )
        out = {}
        for method in (BiasMethod.MODIFIED_OFFSET, BiasMethod.NONE):
            ablated = spec.with_tfmcc_config(TFMCCConfig(bias_method=method))
            out[method.value] = run_scenario(ablated, seed=33)["tfmcc_tcp_ratio"]
        return out

    ratios = run()
    report(
        "Ablation: feedback bias method (TFMCC/TCP ratio)",
        [("method", "ratio")] + [(k, round(v, 2)) for k, v in ratios.items()],
    )
    # Both configurations remain broadly TCP-friendly.
    assert all(0.2 < ratio < 3.0 for ratio in ratios.values())


def test_ablation_red_vs_droptail():
    """Fairness with RED queues at the bottleneck (paper: fairness improves)."""
    from repro.simulator.queues import REDQueue
    from repro import Network, Simulator, TCPRenoSender, TCPSink, TFMCCSession, ThroughputMonitor

    def run(queue_factory=None):
        sim = Simulator(seed=44)
        net = Network(sim)
        jitter = 0.001
        net.add_duplex_link(
            "left", "right", 4e6, 0.02, queue_limit=50, queue_factory=queue_factory, jitter=jitter
        )
        for i in range(4):
            net.add_duplex_link(f"src{i}", "left", 50e6, 0.001, jitter=jitter)
            net.add_duplex_link(f"dst{i}", "right", 50e6, 0.001, jitter=jitter)
        monitor = ThroughputMonitor(sim, 1.0)
        session = TFMCCSession(sim, net, sender_node="src0", monitor=monitor)
        receiver = session.add_receiver("dst0")
        session.start(0.0)
        for i in range(1, 4):
            tcp = TCPRenoSender(sim, f"tcp{i}", f"dst{i}", monitor=monitor)
            net.attach(f"src{i}", tcp)
            net.attach(f"dst{i}", TCPSink(sim, f"tcp{i}", f"src{i}", monitor=monitor))
            tcp.start(0.0)
        sim.run(until=80.0)
        tfmcc = monitor.average_throughput(receiver.receiver_id, 30.0, 80.0)
        tcp = sum(monitor.average_throughput(f"tcp{i}", 30.0, 80.0) for i in range(1, 4)) / 3
        return tfmcc / tcp

    def run_both():
        droptail = run(None)
        red = run(lambda: REDQueue(limit=50, min_th=5, max_th=20, max_p=0.1))
        return droptail, red

    droptail, red = run_both()
    report(
        "Ablation: queue discipline at the bottleneck",
        [("queue", "TFMCC/TCP ratio"), ("drop-tail", round(droptail, 2)), ("RED", round(red, 2))],
    )
    assert droptail > 0 and red > 0
