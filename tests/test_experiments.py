"""Smoke tests for the experiment drivers at tiny scale.

These exercise the drivers end to end (topology construction, scheduling of
joins/leaves, result collection) with parameters small enough to run in a few
seconds each; the benchmarks run the same drivers at ``quick`` scale.
"""

import pytest

from repro.experiments import ExperimentScale
from repro.experiments import asymmetric, fairness, late_join, responsiveness
from repro.experiments import rtt_experiments, slowstart
from repro.experiments.feedback_figures import (
    figure1_bias_cdfs,
    figure2_time_value_distribution,
    figure3_cancellation_methods,
    figure4_expected_messages,
    figure5_response_times,
    figure6_report_quality,
)
from repro.experiments.scaling_experiment import figure7_scaling, figure17_loss_events_per_rtt

TINY = ExperimentScale(
    name="tiny", bandwidth_factor=0.5, time_factor=0.15, receiver_factor=0.1, warmup_fraction=0.4
)


def test_fig09_driver_runs_and_reports_all_flows():
    result = fairness.run_shared_bottleneck(scale=TINY, num_tcp=15, seed=1)
    assert len(result.flows_of_kind("tfmcc")) == 1
    assert len(result.flows_of_kind("tcp")) >= 2
    assert result.mean_bps("tfmcc") > 0
    assert 0.0 < result.tfmcc_to_tcp_ratio() < 10.0


def test_fig10_driver_runs(seed=2):
    result = fairness.run_individual_bottlenecks(scale=TINY, num_receivers=16, seed=seed)
    assert result.mean_bps("tcp") > 0
    assert result.mean_bps("tfmcc") > 0
    # TFMCC tracks the most-constrained receiver and must not exceed TCP much.
    assert result.tfmcc_to_tcp_ratio() < 2.0


def test_fig11_driver_phases_and_membership():
    result, phases = responsiveness.run_staggered_join_leave(
        scale=TINY, duration=300.0, first_join=60.0, join_interval=40.0, seed=3
    )
    assert result.name == "fig11_loss_responsiveness"
    assert len(phases) >= 3
    assert all(p.tfmcc_bps >= 0 for p in phases)


def test_fig20_driver_uses_delays():
    result, phases = responsiveness.run_staggered_join_leave(
        scale=TINY,
        link_delays=(0.03, 0.06, 0.12, 0.24),
        duration=300.0,
        first_join=60.0,
        join_interval=40.0,
        seed=4,
    )
    assert result.name == "fig20_delay_responsiveness"
    assert len(phases) >= 3


def test_fig21_driver_structure():
    result, phases = responsiveness.run_increasing_congestion(
        scale=TINY, flow_counts=(1, 2), seed=5
    )
    assert len(phases) == 3
    assert phases[0].tcp_bps == {}  # no TCP flows in the first phase
    assert len(phases[-1].tcp_bps) == 3  # all TCP flows active in the last phase
    # Aggregate throughput in the last phase cannot exceed the link capacity.
    link = 16e6 * TINY.bandwidth_factor
    total_last = phases[-1].tfmcc_bps + sum(phases[-1].tcp_bps.values())
    assert total_last < 1.2 * link


def test_fig12_rtt_acquisition_monotone():
    result = rtt_experiments.run_rtt_acquisition(scale=TINY, num_receivers=100, duration=120.0, seed=6)
    counts = [count for _t, count in result.samples]
    assert counts[-1] >= counts[0]
    assert counts[-1] >= 1
    assert result.receivers_with_rtt_at(result.samples[-1][0]) == counts[-1]


def test_fig13_rtt_change_reaction():
    results = rtt_experiments.run_rtt_change_reaction(
        scale=TINY, num_receivers=40, change_times=(10.0,), max_wait=60.0, seed=7
    )
    assert len(results) == 1
    assert results[0].reaction_delay > 0


def test_fig14_slowstart_scenarios():
    alone = slowstart.run_max_slowstart_rate(
        scale=TINY, receiver_counts=(2,), scenario="alone", seed=8
    )[0]
    competing = slowstart.run_max_slowstart_rate(
        scale=TINY, receiver_counts=(2,), scenario="one_tcp", seed=8
    )[0]
    assert alone.max_slowstart_rate_bps > 0
    assert competing.max_slowstart_rate_bps > 0
    # On an empty link slowstart may overshoot the fair rate; with
    # competition it terminates earlier.
    assert competing.max_slowstart_rate_bps < 3.0 * competing.fair_rate_bps
    with pytest.raises(ValueError):
        slowstart.run_max_slowstart_rate(scenario="bogus")


def test_fig15_late_join_driver():
    # The convergence-sensitive phases need a bit more time than TINY allows.
    scale = ExperimentScale(
        name="small", bandwidth_factor=1.0, time_factor=0.45, receiver_factor=0.25
    )
    result = late_join.run_late_join(scale=scale, seed=9)
    assert result.before_join_bps > 0
    # While the slow receiver is a member the delivered rate drops towards the
    # tail bandwidth.
    assert result.during_join_bps < result.before_join_bps
    assert result.clr_switch_delay is None or result.clr_switch_delay >= 0


def test_fig16_late_join_with_tcp_on_tail():
    result = late_join.run_late_join(scale=TINY, with_tcp_on_tail=True, seed=10)
    assert "tcp_slow" in result.series


def test_fig18_return_path_traffic_driver():
    result = asymmetric.run_return_path_traffic(scale=TINY, seed=11)
    assert result.tfmcc_bps > 0
    assert len(result.tcp_bps) == 4
    assert len(result.return_flows_bps) == 1 + 2 + 4


def test_fig19_lossy_return_paths_driver():
    result = asymmetric.run_lossy_return_paths(scale=TINY, seed=12)
    assert result.tfmcc_bps > 0
    assert set(result.tcp_bps) == {"tcp0", "tcp10", "tcp20", "tcp30"}


def test_feedback_figure_helpers():
    cdfs = figure1_bias_cdfs(samples=2000)
    assert set(cdfs) == {"exponential", "offset", "modified_n"}
    scatter = figure2_time_value_distribution(num_receivers=50)
    assert set(scatter) == {"normal", "offset"}
    fig3 = figure3_cancellation_methods(receiver_counts=(10, 100), rounds=3)
    assert len(fig3.curves) == 3
    fig4 = figure4_expected_messages(receiver_counts=(10, 100), max_delays_rtts=(3.0, 4.0))
    assert set(fig4) == {3.0, 4.0}
    fig5 = figure5_response_times(receiver_counts=(10, 100), rounds=3)
    fig6 = figure6_report_quality(receiver_counts=(10, 100), rounds=3)
    assert len(fig5.curves) == 3 and len(fig6.curves) == 3


def test_scaling_figure_helpers():
    points = figure7_scaling(receiver_counts=(1, 50))
    assert len(points) == 2
    assert points[1].constant_loss_kbps < points[0].constant_loss_kbps
    curve, peak = figure17_loss_events_per_rtt()
    assert len(curve) > 10
    assert peak[1] < 0.35


def test_scale_helpers():
    from repro.experiments.common import PAPER, QUICK, scaled

    assert scaled("paper") is PAPER
    assert scaled(None) is QUICK
    assert scaled(TINY) is TINY
    with pytest.raises(ValueError):
        scaled("bogus")
    assert PAPER.bandwidth(8e6) == 8e6
    assert QUICK.receivers(16) >= 1


def test_duration_floor_warns_when_it_binds():
    import warnings

    scale = ExperimentScale(name="micro", time_factor=0.01)
    with pytest.warns(RuntimeWarning, match="below"):
        assert scale.duration(100.0) == 10.0  # floored, with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning when the floor is slack
        assert scale.duration(2000.0) == 20.0


def test_duration_floor_warning_dedupes_repeated_clamps():
    """A sweep re-deriving the same spec must not repeat the clamp warning."""
    from repro.experiments import reset_duration_warnings

    reset_duration_warnings()
    scale = ExperimentScale(name="dedupe", time_factor=0.01)
    with pytest.warns(RuntimeWarning, match="below") as caught:
        for _ in range(50):  # 50 replications of the same clamped duration
            assert scale.duration(100.0) == 10.0
    assert len(caught) == 1
    # A *different* clamp is new information and warns again.
    with pytest.warns(RuntimeWarning, match="below") as caught:
        assert scale.duration(200.0) == 10.0
    assert len(caught) == 1
    reset_duration_warnings()


def test_duration_floor_is_configurable():
    import warnings

    no_floor = ExperimentScale(name="nofloor", time_factor=0.01, min_duration=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert no_floor.duration(100.0) == pytest.approx(1.0)
    high_floor = ExperimentScale(name="hifloor", time_factor=1.0, min_duration=60.0)
    with pytest.warns(RuntimeWarning):
        assert high_floor.duration(30.0) == 60.0
