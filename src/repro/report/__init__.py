"""Paper-figure reporting subsystem (``python -m repro report``).

Composes the scenario registry, the metrics library and the analytical
models into per-figure datasets, plots and CI-checkable assertions:

* :mod:`repro.report.figures` — the figure registry (runs, reductions,
  declared tolerances);
* :mod:`repro.report.runner` — orchestration and CSV/JSON/PNG output;
* :mod:`repro.report.plotting` — optional matplotlib rendering.
"""

from repro.report.figures import (
    FIGURES,
    Check,
    FigureData,
    FigureDef,
    figure_names,
    get_figure,
    register_figure,
)
from repro.report.runner import DEFAULT_OUT_DIR, FigureReport, run_report, summarise

__all__ = [
    "FIGURES",
    "Check",
    "FigureData",
    "FigureDef",
    "FigureReport",
    "DEFAULT_OUT_DIR",
    "figure_names",
    "get_figure",
    "register_figure",
    "run_report",
    "summarise",
]
