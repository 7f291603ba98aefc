"""Figure 14: the checks of the slowstart report figure."""

from conftest import assert_checks


def test_fig14_max_slowstart_rate(quick_figure):
    """Peak slowstart rate per (competing TCP flows, receivers); alone is highest."""
    assert_checks(quick_figure("slowstart"), "peak_over_fair_rate(")
    assert_checks(quick_figure("slowstart"), "alone_over_high_multiplexing")
