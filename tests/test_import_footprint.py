"""Cold start loads what it runs.

Each entry point runs in a fresh interpreter and reports which heavy modules
it loaded.  Setting up a simulation, listing scenarios or showing a spec must
not pay for the sweep pool, ``multiprocessing``, numpy, the simulator, the
record aggregator, the service daemon or client, or the report package.  A
pool parent, on the other hand, must have the run path loaded before it
forks.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _cold_start_script():
    """``benchmarks/perf/check_cold_start.py``, whose ``ENTRY_POINTS`` (the
    code a fresh interpreter runs for each entry point) both checks share."""
    path = os.path.join(os.path.dirname(SRC_DIR), "benchmarks", "perf", "check_cold_start.py")
    spec = importlib.util.spec_from_file_location("check_cold_start", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _cold_start_script().ENTRY_POINTS

HEAVY = (
    "multiprocessing",
    "concurrent.futures",
    "numpy",
    "repro.simulator.engine",
    "repro.scenarios.sweep",
    "repro.scenarios.executor",
    "repro.metrics.aggregate",
    "repro.service.client",
    "repro.service.server",
    "repro.report",
    "http.client",
    "http.server",
)


def loaded(code, names):
    """Which of ``names`` are in ``sys.modules`` after ``code`` ran fresh."""
    probe = code + f"\nimport json, sys\nprint(json.dumps([m for m in {list(names)!r} if m in sys.modules]))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_loads_nothing_heavy(name):
    assert loaded(ENTRY_POINTS[name], HEAVY) == []


def test_a_pool_parent_has_the_run_path_before_it_forks():
    """``executor`` → ``sweep`` → ``build`` is a top-level chain, and the build
    loads the protocol agents, so forked workers inherit all of it."""
    run_path = ("repro.scenarios.build", "repro.simulator.engine", "repro.tcp.reno", "repro.tfrc.sender")
    assert loaded("import repro.scenarios.executor", run_path) == list(run_path)


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.metrics", "repro.scenarios", "repro.service"])
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listing, name


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.metrics", "repro.scenarios", "repro.service"])
def test_an_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
