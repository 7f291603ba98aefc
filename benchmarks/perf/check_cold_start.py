"""Ratchet on what the entry points import at cold start.

Runs each entry point in fresh interpreters on two copies of the package:
one without a bytecode cache (every ``repro`` module compiled, as in a new
checkout or wherever ``PYTHONDONTWRITEBYTECODE`` is set) and one with a warm
cache.  It records the median wall time and the modules each entry point
loaded, and fails only on counts: each entry point's number of ``repro.*``
modules must stay at or below the ceiling in ``CEILINGS``.  Lower a ceiling
when a change makes an entry point import less; raising one needs a reason
in the change that does it.  Times are recorded, never gated (wall clock
drifts between runs)::

    PYTHONPATH=src python benchmarks/perf/check_cold_start.py --out cold_start.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def _cli(*argv: str) -> str:
    """``python -m repro *argv`` in-process, its output swallowed."""
    return (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
    )


#: Fresh interpreters per entry point and bytecode mode; times are medians.
REPEATS = 7

#: Entry point -> the code a fresh interpreter runs for it.  The tier-1
#: ``tests/test_import_footprint.py`` probes the same entry points.
ENTRY_POINTS = {
    "interpreter": "pass",
    "import_repro": "import repro",
    # What the ledger's simulation workloads import in their set-up.
    "sim_setup": (
        "from repro.engines import get_engine\n"
        "from repro.scenarios import ResultCache, encode_record, fingerprint_spec, get_scenario\n"
    ),
    "cli_help": _cli("--help"),
    "cli_list": _cli("list"),
    "cli_show": _cli("show", "fairness"),
}

#: Most ``repro.*`` modules each entry point may load.
CEILINGS = {
    "interpreter": 0,
    "import_repro": 2,
    "sim_setup": 10,
    "cli_help": 7,
    "cli_list": 7,
    "cli_show": 19,
}

_REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps({'modules': len(sys.modules),"
    " 'repro_modules': sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.'))}))\n"
)


def run_once(code: str, path: str, write_bytecode: bool) -> dict:
    """One fresh interpreter on the package copy at ``path``: wall seconds
    and module counts."""
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code + _REPORT], env=env, capture_output=True, text=True, check=True
    ).stdout
    wall = time.perf_counter() - start
    return {"wall_s": wall, **json.loads(out.splitlines()[-1])}


def measure(code: str, cold_path: str, warm_path: str) -> dict:
    """Median wall time with no bytecode cache and with a warm one."""
    cold = [run_once(code, cold_path, write_bytecode=False) for _ in range(REPEATS)]
    run_once(code, warm_path, write_bytecode=True)
    cached = [run_once(code, warm_path, write_bytecode=True) for _ in range(REPEATS)]
    return {
        "cold_s": round(statistics.median(r["wall_s"] for r in cold), 4),
        "cached_s": round(statistics.median(r["wall_s"] for r in cached), 4),
        "modules": cached[-1]["modules"],
        "repro_modules": cached[-1]["repro_modules"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the result line to this file")
    args = parser.parse_args()
    source = importlib.util.find_spec("repro").submodule_search_locations[0]
    entries = {}
    with tempfile.TemporaryDirectory() as cold_path, tempfile.TemporaryDirectory() as warm_path:
        for path in (cold_path, warm_path):
            shutil.copytree(
                source, os.path.join(path, "repro"), ignore=shutil.ignore_patterns("__pycache__")
            )
        for name, code in ENTRY_POINTS.items():
            entries[name] = measure(code, cold_path, warm_path)
    for name, entry in entries.items():
        entry["ceiling"] = CEILINGS[name]
        entry["passed"] = entry["repro_modules"] <= CEILINGS[name]
        print(
            f"{name:<13} {entry['cold_s']:.3f} s cold, {entry['cached_s']:.3f} s cached, "
            f"{entry['modules']} modules, {entry['repro_modules']} repro.* "
            f"(ceiling {entry['ceiling']})",
            file=sys.stderr,
        )
    line = {
        "python": sys.version.split()[0],
        "entry_points": entries,
        "passed": all(entry["passed"] for entry in entries.values()),
    }
    text = json.dumps(line, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for name, entry in entries.items():
        if not entry["passed"]:
            print(
                f"{name} loads {entry['repro_modules']} repro.* modules > ceiling {entry['ceiling']}",
                file=sys.stderr,
            )
    return 0 if line["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
