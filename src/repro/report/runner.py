"""Report orchestration: run (or reuse) scenarios, emit per-figure outputs.

For every requested figure the runner

1. fingerprints the figure's :class:`~repro.scenarios.registry.SweepRun` list
   (registry name, params and seed; dotted params such as
   ``metrics.with_series`` are spec overrides, as in a sweep),
2. submits the runs unchanged to the shared
   :class:`~repro.scenarios.executor.RunExecutor` — or reuses a matching
   JSONL dataset from a previous invocation (``reuse=True``), validated via a
   fingerprint of the exact request list,
3. reduces the records with the figure's ``build`` function and writes
   ``<name>.csv`` (dataset), ``<name>-model.csv`` (analytical overlay),
   ``<name>.json`` (dataset + overlay + checks + tolerances) and, when
   matplotlib is importable, ``<name>.png`` under the output directory,
4. in ``--check`` mode collects every failed assertion.

Raw run records are kept under ``<out>/data/<figure>.jsonl`` so re-running a
report (or aggregating further) never has to re-simulate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.report.figures import FIGURES, FigureData, FigureDef, figure_names
from repro.scenarios.cache import ResultCache, canonical_json
from repro.scenarios.executor import RunExecutor
from repro.scenarios.registry import SweepRun
from repro.scenarios.store import ResultStore
from repro.scenarios.sweep import run_fingerprint

DEFAULT_OUT_DIR = os.path.join("results", "figures")

_META_KEY = "_report_meta"


def _fingerprint(run_fingerprints: List[str]) -> str:
    """Stable hash of the exact run list, for safe dataset reuse.

    Built from the per-run spec fingerprints shared with the sweep/cache
    layer, so any change to a resolved spec — not just to the request
    parameters — invalidates a stale dataset.
    """
    payload = canonical_json(run_fingerprints)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _execute_requests(
    figure: str,
    runs: Sequence[SweepRun],
    run_fingerprints: Sequence[str],
    jobs: int,
    progress=None,
    cache: Optional[ResultCache] = None,
) -> List[Dict[str, Any]]:
    """Records of the runs, in order; a run that failed raises."""
    records: List[Dict[str, Any]] = []
    with RunExecutor(jobs, cache=cache) as executor:
        for run, outcome in zip(runs, executor.map(runs, run_fingerprints)):
            if outcome.error is not None:
                raise RuntimeError(
                    f"figure {figure!r}: scenario {run.scenario!r} seed "
                    f"{run.seed} failed after {outcome.attempts} attempt(s): "
                    f"{outcome.error}"
                )
            records.append(outcome.stamp(run))
            if progress is not None:
                progress(len(records), len(runs))
    return records


def _load_reusable(
    path: str, fingerprint: str, expected_records: int
) -> Optional[List[Dict[str, Any]]]:
    """Records from a previous invocation, iff they match the request list.

    Both the fingerprint (same runs requested) and the record count (no
    truncated dataset from an interrupted earlier invocation) must match,
    otherwise the runs are re-executed.
    """
    store = ResultStore(path)
    records = [r for r in store.iter_records(strict=False)]
    meta = next((r for r in records if _META_KEY in r), None)
    if meta is None or meta[_META_KEY].get("fingerprint") != fingerprint:
        return None
    records = [r for r in records if _META_KEY not in r]
    if len(records) != expected_records:
        return None
    return records


def _write_records(path: str, fingerprint: str, records: Sequence[Dict[str, Any]]) -> None:
    if os.path.exists(path):
        os.remove(path)
    store = ResultStore(path)
    store.append({_META_KEY: {"fingerprint": fingerprint}})
    store.append_many(records)


def _write_csv(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    if not rows:
        return
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


class FigureReport:
    """Everything produced for one figure: data, checks and output paths."""

    def __init__(self, figure: FigureDef, data: FigureData, quick: bool):
        self.figure = figure
        self.data = data
        self.quick = quick
        self.paths: Dict[str, str] = {}

    @property
    def failed_checks(self) -> List[Any]:
        return [c for c in self.data.checks if not c.passed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "figure": self.figure.name,
            "title": self.figure.title,
            "paper_figures": self.figure.paper_figures,
            "description": self.figure.description,
            "mode": "quick" if self.quick else "full",
            "tolerances": self.figure.tol(self.quick),
            "dataset": self.data.dataset,
            "overlay": self.data.overlay,
            "checks": [asdict(c) for c in self.data.checks],
            "extras": self.data.extras,
        }


def run_report(
    figures: Optional[Sequence[str]] = None,
    quick: bool = False,
    check: bool = False,
    out_dir: str = DEFAULT_OUT_DIR,
    jobs: int = 1,
    reuse: bool = False,
    plots: bool = True,
    log=None,
    cache: Optional[str] = None,
) -> Tuple[List[FigureReport], List[str]]:
    """Build the requested figures (default: all); returns (reports, failures).

    ``failures`` holds one human-readable line per failed check when
    ``check`` is set (always empty otherwise, so callers can use it as the
    exit-status signal).  ``cache`` names a shared
    :class:`~repro.scenarios.cache.ResultCache` JSONL file: figure runs
    whose spec fingerprint is already cached (by an earlier report or a
    sweep) skip simulation, and fresh runs are inserted.
    """
    log = log if log is not None else (lambda msg: print(msg, file=sys.stderr))
    names = list(figures) if figures else figure_names()
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        raise KeyError(
            f"unknown figure(s) {unknown}; available: {', '.join(figure_names())}"
        )
    os.makedirs(out_dir, exist_ok=True)
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)

    result_cache = ResultCache(cache) if cache is not None else None
    reports: List[FigureReport] = []
    failures: List[str] = []
    for name in names:
        figure = FIGURES[name]
        runs = figure.requests(quick)
        # One pass serves both the dataset-reuse hash and the executor's
        # cache keys.
        run_fingerprints = [run_fingerprint(run) for run in runs]
        dataset_fp = _fingerprint(run_fingerprints)
        records_path = os.path.join(data_dir, f"{name}.jsonl")
        records = (
            _load_reusable(records_path, dataset_fp, len(runs)) if reuse else None
        )
        if records is not None:
            log(f"[{name}] reusing {len(records)} records from {records_path}")
        else:
            started = time.perf_counter()
            log(f"[{name}] running {len(runs)} simulations (jobs={jobs})...")
            hits_before = result_cache.hits if result_cache is not None else 0
            records = _execute_requests(
                name,
                runs,
                run_fingerprints,
                jobs,
                progress=lambda done, total: log(f"[{name}]   {done}/{total} done"),
                cache=result_cache,
            )
            _write_records(records_path, dataset_fp, records)
            elapsed = time.perf_counter() - started
            if result_cache is not None:
                hits = result_cache.hits - hits_before
                log(
                    f"[{name}] simulated {len(runs) - hits} runs "
                    f"({hits} cache hits) in {elapsed:.1f} s"
                )
            else:
                log(f"[{name}] simulated in {elapsed:.1f} s")

        data = figure.build(records, quick)
        report = FigureReport(figure, data, quick)
        report.paths["records"] = records_path

        csv_path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(csv_path, data.dataset)
        report.paths["dataset"] = csv_path
        if data.overlay:
            model_path = os.path.join(out_dir, f"{name}-model.csv")
            _write_csv(model_path, data.overlay)
            report.paths["overlay"] = model_path
        json_path = os.path.join(out_dir, f"{name}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        report.paths["json"] = json_path

        if plots:
            from repro.report.plotting import render_figure

            png_path = os.path.join(out_dir, f"{name}.png")
            if render_figure(report, png_path):
                report.paths["png"] = png_path
            else:
                log(f"[{name}] matplotlib not available; skipped {png_path}")

        for check_result in data.checks:
            status = "ok" if check_result.passed else "FAIL"
            log(f"[{name}]   check {check_result.name}: {status} ({check_result.detail})")
        if check:
            failures.extend(
                f"{name}: {c.name} failed ({c.detail})" for c in report.failed_checks
            )
        reports.append(report)
    return reports, failures


def summarise(reports: Sequence[FigureReport]) -> str:
    """One-line-per-figure summary for the CLI."""
    lines = []
    width = max((len(report.figure.name) for report in reports), default=0)
    for report in reports:
        n_checks = len(report.data.checks)
        n_failed = len(report.failed_checks)
        status = "ok" if n_failed == 0 else f"{n_failed}/{n_checks} checks FAILED"
        outputs = ", ".join(
            os.path.basename(path) for key, path in sorted(report.paths.items()) if key != "records"
        )
        lines.append(f"{report.figure.name:<{width}} {status:<24} {outputs}")
    return "\n".join(lines)
