"""Setuptools entry point.

Metadata is declared here (rather than pyproject.toml) so that
``pip install -e .`` works in offline environments whose setuptools lacks
PEP 660 editable-wheel support.

The core simulator is stdlib-only.  Optional extras:

``cohort``
    numpy, required by the vectorised aggregate-receiver simulation engine
    (``--engine cohort``); without it the engine raises
    ``EngineUnavailableError`` at build time.
``report``
    numpy for the analysis models of the paper-figure report pipeline and
    matplotlib for its PNGs (without it the datasets are still written).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=(
        "Reproduction of TFMCC (Widmer & Handley, SIGCOMM 2001): "
        "single-rate equation-based multicast congestion control"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        "cohort": ["numpy"],
        "report": ["numpy", "matplotlib"],
    },
)
