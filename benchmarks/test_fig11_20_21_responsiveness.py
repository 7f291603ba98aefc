"""Figures 11, 20 and 21: the per-phase checks of the membership figure."""

from conftest import assert_checks


def test_fig11_loss_responsiveness(quick_figure):
    """Figure 11: the rate follows the lossiest current member."""
    assert_checks(quick_figure("membership"), "fig11_")


def test_fig20_delay_responsiveness(quick_figure):
    """Figure 20: as Figure 11 with link delays instead of loss rates."""
    assert_checks(quick_figure("membership"), "fig20_")


def test_fig21_increasing_congestion(quick_figure):
    """Figure 21: the rate falls as the competing TCP flows double."""
    assert_checks(quick_figure("membership"), "fig21_")
