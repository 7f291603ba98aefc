"""Figures 18 and 19: the checks of the asymmetric report figure."""

from conftest import assert_checks


def test_fig18_return_path_traffic(quick_figure):
    """Figure 18: TFMCC keeps its share whatever runs on the return paths."""
    assert_checks(quick_figure("asymmetric"), "fig18_")


def test_fig19_lossy_return_paths(quick_figure):
    """Figure 19: report loss does not slow TFMCC; TCP survives ACK loss."""
    assert_checks(quick_figure("asymmetric"), "fig19_")
