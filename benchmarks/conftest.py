"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one figure of the paper and prints what it
produced, so ``pytest benchmarks/ -s`` doubles as the reproduction report.
A simulated figure is a quick-scale ``repro report`` figure: the assertions
are its declared ``Check``s, and the benchmark names the ones guarding its
paper figure.  The analytic figures call ``repro.analysis`` directly.
"""

import pytest


def report(title, rows):
    """Print a small aligned table under a heading (visible with -s)."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("   " + "  ".join(str(item) for item in row))


@pytest.fixture(scope="session")
def quick_figure(tmp_path_factory):
    """``quick_figure(name)``: that report figure at quick scale, built once."""
    from repro.report import run_report

    out_dir = str(tmp_path_factory.mktemp("figures"))
    built = {}

    def build(name):
        if name not in built:
            (built[name],), _failures = run_report(
                [name], quick=True, out_dir=out_dir, plots=False, log=lambda message: None
            )
        return built[name]

    return build


def assert_checks(figure_report, prefix=""):
    """The figure's checks whose names start with ``prefix`` exist and pass."""
    figure = figure_report.figure
    checks = [c for c in figure_report.data.checks if c.name.startswith(prefix)]
    rows = [("ok" if c.passed else "FAIL", c.name, c.detail) for c in checks]
    report(f"{figure.paper_figures}: {figure.title} [{prefix}*]", rows)
    assert checks, f"figure {figure.name!r} has no {prefix}* check"
    assert all(c.passed for c in checks)
