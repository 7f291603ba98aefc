"""Benchmarks for the scaling model (Figure 7) and the loss-event curve (Figure 17).

Both are analytic (``repro.analysis``); the ``scaling`` report figure holds
the simulator to the Figure 7 model.
"""

from conftest import report

from repro.analysis.scaling import throughput_scaling_curve
from repro.analysis.tcp_model import loss_events_per_rtt_curve, peak_loss_events_per_rtt
from repro.core.config import loss_interval_weights


def test_fig07_throughput_scaling(benchmark):
    """Figure 7: throughput vs number of receivers for two loss distributions."""
    points = benchmark(throughput_scaling_curve, (1, 10, 100, 1000, 10000))
    rows = [("receivers", "constant-loss kbit/s", "realistic kbit/s")]
    rows += [(n, round(constant, 1), round(realistic, 1)) for n, constant, realistic in points]
    report("Figure 7: throughput scaling with receiver-set size", rows)
    (_n, constant_1, realistic_1), (_m, constant_max, realistic_max) = points[0], points[-1]
    # Fair rate ~300 kbit/s for a single receiver at 10 % loss / 50 ms RTT.
    assert 200 < constant_1 < 400
    # The constant-loss curve degrades sharply; the realistic one much less.
    assert constant_1 / max(constant_max, 1e-9) > realistic_1 / max(realistic_max, 1e-9)


def test_fig07_ablation_history_length(benchmark):
    """Ablation: longer loss history alleviates the degradation (Section 3)."""

    def run():
        return {
            m: throughput_scaling_curve((1, 1000), weights=loss_interval_weights(m))[1][1]
            for m in (8, 32)
        }

    at_1000 = benchmark(run)
    report(
        "Figure 7 ablation: loss-history length m",
        [("m", "kbit/s at n=1000")] + [(m, round(rate, 1)) for m, rate in at_1000.items()],
    )
    assert at_1000[32] > at_1000[8]


def test_fig17_loss_events_per_rtt(benchmark):
    """Figure 17: loss events per RTT implied by the control equation."""
    curve, peak = benchmark(lambda: (loss_events_per_rtt_curve(), peak_loss_events_per_rtt()))
    rows = [("loss event rate", "loss events per RTT")]
    for p, value in curve[::10]:
        rows.append((round(p, 5), round(value, 4)))
    rows.append(("peak", f"p={round(peak[0], 3)} value={round(peak[1], 3)}"))
    report("Figure 17: loss events per RTT", rows)
    # The paper quotes a maximum of ~0.13; the key property used in Appendix A
    # is that the value stays well below one loss event per RTT.
    assert peak[1] < 0.35
