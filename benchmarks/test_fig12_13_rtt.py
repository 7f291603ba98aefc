"""Figures 12 and 13: the checks of the rtt report figure."""

from conftest import assert_checks


def test_fig12_rtt_acquisition(quick_figure):
    """Figure 12: receivers with a valid RTT keep growing, each counted once."""
    assert_checks(quick_figure("rtt"), "fig12_")


def test_fig13_rtt_change_reaction(quick_figure):
    """Figure 13: the receiver whose RTT stepped up becomes CLR, faster later."""
    assert_checks(quick_figure("rtt"), "fig13_")
