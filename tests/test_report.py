"""Tests for the paper-figure report subsystem."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.cli import main as cli_main
from repro.report import FIGURES, figure_names, get_figure, run_report
from repro.report.figures import (
    Check,
    FigureData,
    FigureDef,
    PlotSpec,
    RunRequest,
    register_figure,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _fake_fairness_record(num_tcp, seed, tfmcc=1e6, tcp=1e6):
    return {
        "scenario": "fairness",
        "seed": seed,
        "duration": 30.0,
        "warmup_s": 7.5,
        "events": 1000,
        "flows": [],
        "tfmcc_mean_bps": tfmcc,
        "tcp_mean_bps": tcp,
        "tfmcc_tcp_ratio": tfmcc / tcp,
        "fairness_index": 0.97,
        "links": {"packets_sent": 10000, "queue_drops": 200, "random_drops": 0},
        "run": {"index": 0, "seed": seed, "params": {"num_tcp": num_tcp}, "scenario": "fairness"},
    }


# ---------------------------------------------------------------- registry


def test_figure_registry_contains_the_paper_figures():
    assert {"fairness", "smoothness", "scaling", "feedback"} <= set(figure_names())
    with pytest.raises(KeyError):
        get_figure("no-such-figure")
    for name in figure_names():
        figure = FIGURES[name]
        for quick in (True, False):
            requests = figure.requests(quick)
            assert requests, f"{name} declares no runs"
            assert figure.tol(quick), f"{name} declares no tolerances"


def test_run_request_key_is_stable_identity():
    a = RunRequest("fairness", {"num_tcp": 2, "duration": 5.0}, seed=3)
    b = RunRequest("fairness", {"duration": 5.0, "num_tcp": 2}, seed=3)
    assert a.key() == b.key()
    assert a.key() != RunRequest("fairness", {"num_tcp": 2, "duration": 5.0}, seed=4).key()


# ------------------------------------------------------------------ builds


def test_fairness_build_from_canned_records():
    records = [
        _fake_fairness_record(1, 1, tfmcc=1.8e6, tcp=2.0e6),
        _fake_fairness_record(4, 1, tfmcc=0.7e6, tcp=0.75e6),
    ]
    data = FIGURES["fairness"].build(records, True)
    assert [row["num_tcp"] for row in data.dataset] == [1, 4]
    assert data.dataset[0]["tfmcc_tcp_ratio"] == pytest.approx(0.9)
    assert data.overlay[1]["fair_share_bps"] == pytest.approx(4e6 / 5)
    assert all(check.passed for check in data.checks)


def test_fairness_build_flags_unfair_runs():
    records = [_fake_fairness_record(2, 1, tfmcc=5e6, tcp=0.1e6)]
    data = FIGURES["fairness"].build(records, True)
    assert any(not check.passed for check in data.checks)


def test_scaling_build_normalises_and_overlays_model():
    records = []
    for n, rate in ((1, 1e6), (2, 0.9e6), (4, 0.85e6)):
        record = _fake_fairness_record(0, 1, tfmcc=rate, tcp=rate)
        record["run"]["params"] = {"num_receivers": n}
        records.append(record)
    data = FIGURES["scaling"].build(records, True)
    assert data.dataset[0]["sim_ratio"] == pytest.approx(1.0)
    assert data.dataset[2]["sim_ratio"] == pytest.approx(0.85)
    model = [row["model_ratio"] for row in data.overlay]
    assert model[0] == pytest.approx(1.0)
    assert model[1] < 1.0 and model[2] < model[1]  # the model degrades with n


# ------------------------------------------------------------------ runner


def _register_tiny_figure(name):
    def requests(quick):
        duration = 4.0 if quick else 5.0
        return [RunRequest("fairness", {"num_tcp": 1, "duration": duration}, seed=1)]

    def build(records, quick):
        record = records[0]
        return FigureData(
            dataset=[{"num_tcp": 1, "tfmcc_mean_bps": record["tfmcc_mean_bps"]}],
            checks=[Check(name="ran", passed=record["events"] > 0, detail="events > 0")],
        )

    return register_figure(
        FigureDef(
            name=name,
            title="tiny",
            paper_figures="test",
            description="runner integration fixture",
            requests=requests,
            build=build,
            plot=PlotSpec(x="num_tcp", ys=["tfmcc_mean_bps"]),
            tolerances={"quick": {"x": 1.0}, "full": {"x": 1.0}},
        )
    )


@pytest.fixture
def tiny_figure():
    name = "tiny-test-figure"
    _register_tiny_figure(name)
    yield name
    FIGURES.pop(name, None)


def test_run_report_end_to_end(tmp_path, tiny_figure):
    out = str(tmp_path / "figs")
    reports, failures = run_report(
        figures=[tiny_figure], quick=True, check=True, out_dir=out, plots=False,
        log=lambda msg: None,
    )
    assert failures == []
    report = reports[0]
    with open(report.paths["dataset"]) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["num_tcp"] == "1"
    with open(report.paths["json"]) as fh:
        payload = json.load(fh)
    assert payload["figure"] == tiny_figure
    assert payload["checks"][0]["passed"] is True
    assert payload["mode"] == "quick"


def test_run_report_reuses_matching_records(tmp_path, tiny_figure):
    out = str(tmp_path / "figs")
    messages = []
    run_report(figures=[tiny_figure], quick=True, out_dir=out, plots=False,
               log=messages.append)
    assert any("running" in m for m in messages)
    messages.clear()
    run_report(figures=[tiny_figure], quick=True, out_dir=out, plots=False,
               reuse=True, log=messages.append)
    assert any("reusing" in m for m in messages)
    assert not any("running" in m for m in messages)
    # A different mode has a different fingerprint: no stale reuse.
    messages.clear()
    run_report(figures=[tiny_figure], quick=False, out_dir=out, plots=False,
               reuse=True, log=messages.append)
    assert any("running" in m for m in messages)


def test_run_report_does_not_reuse_truncated_datasets(tmp_path, tiny_figure):
    out = str(tmp_path / "figs")
    run_report(figures=[tiny_figure], quick=True, out_dir=out, plots=False,
               log=lambda m: None)
    # Simulate an interrupted earlier invocation: drop the last record but
    # keep the (matching) fingerprint meta line.
    records_path = tmp_path / "figs" / "data" / f"{tiny_figure}.jsonl"
    lines = records_path.read_text().splitlines()
    records_path.write_text("\n".join(lines[:-1]) + "\n")
    messages = []
    run_report(figures=[tiny_figure], quick=True, out_dir=out, plots=False,
               reuse=True, log=messages.append)
    assert any("running" in m for m in messages)


def test_run_report_raises_when_a_run_fails(tmp_path, tiny_figure, monkeypatch):
    """A failed run stops the report with one error; no failure record is built on."""
    attempts = []

    def broken(spec, seed=None, **kwargs):
        attempts.append(seed)
        raise ValueError("simulated crash")

    monkeypatch.setattr(sys.modules["repro.scenarios.sweep"], "run_scenario", broken)
    unbuildable = replace(
        FIGURES[tiny_figure], build=lambda records, quick: pytest.fail("build ran")
    )
    monkeypatch.setitem(FIGURES, tiny_figure, unbuildable)
    with pytest.raises(RuntimeError) as err:
        run_report(
            figures=[tiny_figure], quick=True, out_dir=str(tmp_path / "figs"),
            plots=False, log=lambda msg: None,
        )
    message = str(err.value)
    assert tiny_figure in message and "'fairness'" in message and "seed 1" in message
    assert "ValueError: simulated crash" in message
    assert attempts == [1, 1, 1]  # the bounded retries sweeps get
    assert not os.path.exists(tmp_path / "figs" / "data" / f"{tiny_figure}.jsonl")


def test_run_report_rejects_unknown_figures(tmp_path):
    with pytest.raises(KeyError):
        run_report(figures=["bogus"], out_dir=str(tmp_path), log=lambda m: None)


def test_render_figure_writes_png_when_matplotlib_present(tmp_path, tiny_figure):
    pytest.importorskip("matplotlib")
    out = str(tmp_path / "figs")
    reports, _failures = run_report(
        figures=[tiny_figure], quick=True, out_dir=out, plots=True, log=lambda m: None
    )
    assert "png" in reports[0].paths
    import os

    assert os.path.getsize(reports[0].paths["png"]) > 0


def test_render_all_registered_figures_from_canned_data(tmp_path):
    """Exercise every registered figure's PlotSpec through the renderer
    (line and bar paths, overlays, log axes) without running simulations."""
    pytest.importorskip("matplotlib")
    from repro.report.plotting import render_figure
    from repro.report.runner import FigureReport

    canned = {
        "fairness": FigureData(
            dataset=[
                {"num_tcp": 1, "tfmcc_mean_bps": 1.8e6, "tcp_mean_bps": 2e6},
                {"num_tcp": 4, "tfmcc_mean_bps": 0.7e6, "tcp_mean_bps": 0.75e6},
            ],
            overlay=[
                {"num_tcp": 1, "fair_share_bps": 2e6},
                {"num_tcp": 4, "fair_share_bps": 0.8e6},
            ],
        ),
        "smoothness": FigureData(
            dataset=[
                {"flow": "tfmcc0", "kind": "tfmcc", "rate_cov": 0.2},
                {"flow": "tcp1", "kind": "tcp", "rate_cov": 0.5},
            ]
        ),
        "scaling": FigureData(
            dataset=[{"num_receivers": n, "sim_ratio": r} for n, r in ((1, 1.0), (4, 0.8))],
            overlay=[{"num_receivers": n, "model_ratio": r} for n, r in ((1, 1.0), (4, 0.7))],
        ),
        "feedback": FigureData(
            dataset=[
                {"num_receivers": n, "feedback_per_round": f, "nonclr_feedback_per_round": f - 1}
                for n, f in ((2, 2.0), (8, 3.0))
            ],
            overlay=[{"num_receivers": n, "model_messages_per_round": 1.3} for n in (2, 8)],
        ),
    }
    for name, data in canned.items():
        report = FigureReport(FIGURES[name], data, quick=True)
        path = str(tmp_path / f"{name}.png")
        assert render_figure(report, path) is True


# ----------------------------------------------------------- dependencies


def test_importing_the_report_package_loads_no_scipy():
    code = (
        "import sys\n"
        "import repro.report\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        check=True,
    )


def test_no_source_file_mentions_scipy():
    offenders = []
    for folder, _dirs, names in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    if "scipy" in fh.read():
                        offenders.append(os.path.relpath(path, SRC_DIR))
    assert not offenders, offenders


# --------------------------------------------------------------------- CLI


def test_cli_default_out_dir_matches_runner():
    from repro.cli import REPORT_OUT_DIR
    from repro.report.runner import DEFAULT_OUT_DIR

    assert REPORT_OUT_DIR == DEFAULT_OUT_DIR


def test_cli_report_list(capsys):
    assert cli_main(["report", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fairness", "smoothness", "scaling", "feedback"):
        assert name in out


def test_cli_report_unknown_figure_fails(tmp_path, capsys):
    assert cli_main(["report", "bogus", "--out", str(tmp_path)]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_cli_report_runs_tiny_figure(tmp_path, tiny_figure, capsys):
    code = cli_main(
        ["report", tiny_figure, "--quick", "--check", "--no-plots", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert tiny_figure in capsys.readouterr().out
