"""Figures 15 and 16: the checks of the late_join report figure."""

from conftest import assert_checks


def test_fig15_late_join(quick_figure):
    """Figure 15: CLR hand-off, rate down towards the tail, recovery after."""
    assert_checks(quick_figure("late_join"), "fig15_")


def test_fig16_late_join_with_tcp(quick_figure):
    """Figure 16: the same, and the tail's TCP flow gets the tail back."""
    assert_checks(quick_figure("late_join"), "fig16_")
