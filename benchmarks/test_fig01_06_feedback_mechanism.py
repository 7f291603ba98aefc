"""Benchmarks regenerating the feedback-mechanism figures (Figures 1-6).

Following the paper's own methodology these come from the one-round model
(``repro.analysis.feedback_rounds``) and the closed-form expectation
(``repro.analysis.feedback_model``), not from the packet-level simulator;
the ``feedback`` report figure holds the simulator to the same model.
"""

from conftest import report

from repro.analysis.feedback_model import expected_feedback_messages
from repro.analysis.feedback_rounds import FeedbackRoundSimulator, timer_cdf_points
from repro.core.feedback import BiasMethod

BIAS_VARIANTS = {
    "unbiased_exponential": {"bias_method": BiasMethod.NONE, "cancellation_delta": 1.0},
    "basic_offset": {"bias_method": BiasMethod.OFFSET, "cancellation_delta": 1.0},
    "modified_offset": {"bias_method": BiasMethod.MODIFIED_OFFSET, "cancellation_delta": 1.0},
}


def _round_model(measure, counts, rounds, seed, variants):
    """``{label: [FeedbackRoundSimulator(**variant).<measure>(n) for n in counts]}``."""
    curves = {}
    for label, variant in variants.items():
        sim = FeedbackRoundSimulator(seed=seed, **variant)
        curves[label] = [getattr(sim, measure)(n, rounds=rounds) for n in counts]
    return curves


def _report_curves(title, x_name, x_values, curves, digits):
    rows = [(x_name, *curves)]
    for i, x in enumerate(x_values):
        rows.append((x, *(round(series[i], digits) for series in curves.values())))
    report(title, rows)


def test_fig01_bias_cdf():
    """Figure 1: CDF of the feedback time for the biasing methods."""
    methods = {
        "exponential": BiasMethod.NONE,
        "offset": BiasMethod.OFFSET,
        "modified_n": BiasMethod.MODIFIED_N,
    }
    cdfs = {k: timer_cdf_points(m, samples=5000) for k, m in methods.items()}
    times = [t for t, _p in cdfs["exponential"]]
    curves = {label: [p for _t, p in points][::20] for label, points in cdfs.items()}
    _report_curves("Figure 1: feedback-time CDF", "time (RTT)", times[::20], curves, 3)
    # The offset method delays the earliest responses of an uncongested
    # receiver (ratio 0.5) relative to plain exponential timers.
    assert cdfs["offset"][10][1] <= cdfs["exponential"][10][1] + 1e-9


def test_fig02_time_value_distribution():
    """Figure 2: time-value scatter of sent feedback, offset vs unbiased."""

    def scatter():
        out = {}
        for label, method in (("normal", BiasMethod.NONE), ("offset", BiasMethod.OFFSET)):
            sim = FeedbackRoundSimulator(seed=2, bias_method=method, cancellation_delta=1.0)
            out[label] = sim.time_value_scatter(100)
        return out

    rounds = scatter()
    rows = [("variant", "responses", "best value sent")]
    for label, result in rounds.items():
        rows.append((label, result.responses, round(min(result.response_values), 3)))
    report("Figure 2: time-value distribution", rows)
    assert all(result.responses >= 1 for result in rounds.values())


def test_fig03_cancellation_methods():
    """Figure 3: responses per worst-case round for delta = 1.0 / 0.1 / 0.0."""
    counts = (1, 10, 100, 1000, 5000)
    deltas = {"all_suppressed": 1.0, "ten_percent_lower_suppressed": 0.1, "higher_suppressed": 0.0}
    variants = {label: {"cancellation_delta": delta} for label, delta in deltas.items()}
    curves = _round_model("average_responses", counts, 5, 3, variants)
    _report_curves("Figure 3: feedback cancellation methods", "n", counts, curves, 1)
    # delta = 0 ("higher suppressed") produces the most feedback at large n.
    assert curves["higher_suppressed"][-1] >= curves["ten_percent_lower_suppressed"][-1]


def test_fig04_expected_messages():
    """Figure 4: expected number of feedback messages over (T', n)."""
    counts = (1, 100, 10000, 100000)

    def surface():
        return {
            f"n={n}": [
                expected_feedback_messages(n, t_prime, receiver_estimate=10000)
                for t_prime in (2.0, 3.0, 4.0, 5.0, 6.0)
            ]
            for n in counts
        }

    messages = surface()
    _report_curves(
        "Figure 4: expected number of feedback messages", "T' (RTTs)", (2, 3, 4, 5, 6), messages, 1
    )
    # T' in the 3-4 RTT range keeps the worst case to a few tens of messages.
    assert messages["n=10000"][2] < 60
    # Underestimating the receiver set (n = 10 N) causes an implosion.
    assert messages["n=100000"][2] > messages["n=10000"][2]


def test_fig05_response_time():
    """Figure 5: feedback delay for the bias variants."""
    counts = (1, 10, 100, 1000)
    curves = _round_model("average_response_time", counts, 5, 5, BIAS_VARIANTS)
    _report_curves("Figure 5: response time (RTTs)", "n", counts, curves, 2)
    for series in curves.values():
        assert series[-1] < series[0]  # logarithmic decrease with n


def test_fig06_report_quality():
    """Figure 6: quality of the reported rate for the bias variants."""
    counts = (10, 100, 1000)
    curves = _round_model("average_report_quality", counts, 8, 6, BIAS_VARIANTS)
    _report_curves("Figure 6: deviation of reported rate from true minimum", "n", counts, curves, 3)
    # Biased feedback reports rates much closer to the true minimum than
    # unbiased exponential timers (paper: ~20 % vs a few percent).
    assert sum(curves["basic_offset"]) < sum(curves["unbiased_exponential"])
