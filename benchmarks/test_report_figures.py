"""``repro report --quick --check`` as a test: every registered figure, paper
or extension, passes its checks — a newly registered one without a new test.
The ``quick_figure`` fixture shares the builds with the per-paper-figure files.
"""

import fnmatch
import pathlib
import re

import pytest
from conftest import assert_checks

from repro.report import FIGURES, figure_names
from repro.scenarios import scenario_names

REPO_DIR = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", figure_names())
def test_figure_passes_its_checks(name, quick_figure):
    figure_report = quick_figure(name)
    assert figure_report.data.dataset, f"{name} produced no dataset"
    assert_checks(figure_report)


def test_readme_table_names_real_scenarios_figures_and_checks(quick_figure):
    """README: paper figure -> registry scenario -> report figure -> check names.

    Every paper figure has a row, and what the row names exists and claims
    it, so a figure cannot silently lose its verdict.
    """
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Paper figure |")[1].split("\n\n")[0]
    listed = set()
    for row in table.splitlines()[2:]:
        numbers, scenarios, figures, checks = (
            re.findall(r"`([^`]+)`", cell) if i else re.findall(r"\d+", cell)
            for i, cell in enumerate(row.split("|")[1:5])
        )
        listed |= {int(n) for n in numbers}
        files = [name for name in checks if name.endswith(".py")]
        sources = [(REPO_DIR / name).read_text(encoding="utf-8") for name in files]
        if not figures:  # an analytic row: the benchmark file has a test per figure
            assert all(f"def test_fig{int(n):02d}_" in sources[0] for n in numbers), row
            continue
        assert set(scenarios) <= set(scenario_names()), row
        attributed, requested, produced = set(), set(), []
        for name in figures:
            attributed |= set(re.findall(r"\d+", FIGURES[name].paper_figures))
            requested |= {request.scenario for request in FIGURES[name].requests(True)}
            produced += [check.name for check in quick_figure(name).data.checks]
        assert set(numbers) <= attributed, f"{figures} do not claim Figure(s) {numbers}"
        assert set(scenarios) <= requested, row
        for pattern in set(checks) - set(files):
            assert fnmatch.filter(produced, pattern.replace("…", "*")), f"no check {pattern}"
    assert listed == set(range(1, 8)) | set(range(9, 22))  # Figure 8 is a topology sketch
