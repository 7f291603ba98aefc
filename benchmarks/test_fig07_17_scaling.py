"""Benchmarks for the scaling model (Figure 7) and the loss-event curve (Figure 17)."""

from conftest import report

from repro.experiments.scaling_experiment import figure7_scaling, figure17_loss_events_per_rtt


def test_fig07_throughput_scaling(benchmark):
    """Figure 7: throughput vs number of receivers for two loss distributions."""
    points = benchmark(figure7_scaling, receiver_counts=(1, 10, 100, 1000, 10000))
    rows = [("receivers", "constant-loss kbit/s", "realistic kbit/s")]
    for point in points:
        rows.append(
            (point.num_receivers, round(point.constant_loss_kbps, 1), round(point.realistic_loss_kbps, 1))
        )
    report("Figure 7: throughput scaling with receiver-set size", rows)
    # Fair rate ~300 kbit/s for a single receiver at 10 % loss / 50 ms RTT.
    assert 200 < points[0].constant_loss_kbps < 400
    # The constant-loss curve degrades sharply; the realistic one much less.
    constant_drop = points[0].constant_loss_kbps / max(points[-1].constant_loss_kbps, 1e-9)
    realistic_drop = points[0].realistic_loss_kbps / max(points[-1].realistic_loss_kbps, 1e-9)
    assert constant_drop > realistic_drop


def test_fig07_ablation_history_length(benchmark):
    """Ablation: longer loss history alleviates the degradation (Section 3)."""

    def run():
        short = figure7_scaling(receiver_counts=(1, 1000), history_length=8)
        long = figure7_scaling(receiver_counts=(1, 1000), history_length=32)
        return short, long

    short, long = benchmark(run)
    report(
        "Figure 7 ablation: loss-history length m",
        [
            ("m", "kbit/s at n=1000"),
            (8, round(short[1].constant_loss_kbps, 1)),
            (32, round(long[1].constant_loss_kbps, 1)),
        ],
    )
    assert long[1].constant_loss_kbps > short[1].constant_loss_kbps


def test_fig17_loss_events_per_rtt(benchmark):
    """Figure 17: loss events per RTT implied by the control equation."""
    curve, peak = benchmark(figure17_loss_events_per_rtt)
    rows = [("loss event rate", "loss events per RTT")]
    for p, value in curve[::10]:
        rows.append((round(p, 5), round(value, 4)))
    rows.append(("peak", f"p={round(peak[0], 3)} value={round(peak[1], 3)}"))
    report("Figure 17: loss events per RTT", rows)
    # The paper quotes a maximum of ~0.13; the key property used in Appendix A
    # is that the value stays well below one loss event per RTT.
    assert peak[1] < 0.35
