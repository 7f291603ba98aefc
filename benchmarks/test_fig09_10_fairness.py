"""Figures 9 and 10: the checks of the fairness report figures."""

from conftest import assert_checks


def test_fig09_shared_bottleneck(quick_figure):
    """Figure 9: Jain index and TFMCC/TCP ratio per number of TCP flows."""
    assert_checks(quick_figure("fairness"), "jain(")
    assert_checks(quick_figure("fairness"), "tfmcc_tcp_ratio(")
    # ... and the TFMCC rate is the smoother one.
    assert_checks(quick_figure("smoothness"), "tfmcc_smoother_than_tcp")


def test_fig10_individual_bottlenecks(quick_figure):
    """Figure 10: below TCP's rate (paper: ~70 %), but not collapsed."""
    assert_checks(quick_figure("individual_bottlenecks"), "tfmcc_tcp_ratio")
    assert_checks(quick_figure("individual_bottlenecks"), "tfmcc_share_of_fair_rate")
