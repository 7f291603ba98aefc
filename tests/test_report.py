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
    register_figure,
)
from repro.scenarios.store import ResultStore
from repro.scenarios.sweep import SweepRun, run_fingerprint

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


NEW_FIGURES = "individual_bottlenecks membership rtt slowstart late_join asymmetric".split()


def test_figure_registry_contains_the_paper_figures():
    assert {"fairness", "smoothness", "scaling", "feedback", *NEW_FIGURES} <= set(figure_names())
    with pytest.raises(KeyError):
        get_figure("no-such-figure")
    for name in figure_names():
        figure = FIGURES[name]
        for quick in (True, False):
            requests = figure.requests(quick)
            assert requests, f"{name} declares no runs"
            assert figure.tol(quick), f"{name} declares no tolerances"


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


# ------------------------------------- builds ported from the former drivers


def _steps(edges, values):
    """A per-second series holding ``values[i]`` over ``edges[i]..edges[i+1]``."""
    return [
        [float(t), value]
        for (start, end), value in zip(zip(edges, edges[1:]), values)
        for t in range(start, end)
    ]


def _canned(scenario, params, duration=70.0, dynamics=None, **fields):
    record = {"scenario": scenario, "seed": 1, "duration": duration, "run": {"params": params}}
    if dynamics is not None:
        record["trace"] = {"dynamics": dynamics}
    return {**record, **fields}


def _flows(**rates_by_kind):
    return [
        {"id": f"{kind}{i}", "kind": kind, "avg_bps": rate}
        for kind, rates in rates_by_kind.items()
        for i, rate in enumerate(rates)
    ]


def _canned_records(good):
    """Records for each ported figure; ``good=False`` breaks the paper's claim in each."""
    # membership: Figure 11/20 phases by worst member, Figure 21 phases by competition.
    staged = {"first_join": 10.0, "join_interval": 10.0}
    by_worst = [3e6, 2e6, 1e6, 0.3e6, 1e6, 2e6, 3e6] if good else [3e6] * 7
    staged_fields = {
        "flows": _flows(tfmcc=[1e6], tcp=[1e6] * 4),
        "series": {
            "tfmcc0": _steps(list(range(0, 80, 10)), by_worst),
            **{f"tcp{i}": _steps([0, 70], [1e6]) for i in range(4)},
        },
    }
    contended = [0.2e6, 4e6, 1e6] if good else [0.2e6, 1e6, 2e6]
    congestion = _canned(
        "increasing_congestion",
        {"flow_counts": [1, 2], "phase_length": 10.0},
        duration=30.0,
        flows=_flows(tfmcc=[1e6]),
        series={
            "tfmcc0": _steps([0, 10, 20, 30], contended),
            **{f"tcp{i}": _steps([0, 30], [1e6]) for i in (1, 2, 3)},
        },
    )
    # rtt: acquisitions stop early / the stepped receiver never becomes CLR.
    acquired = [[t, f"r{t}"] for t in ((1, 2, 3, 9, 14) if good else (1, 2, 3))]
    switches = [[1.0, "other", "f"]] + ([[9.0, "stepped", "f"]] if good else [])
    step_event = [5.0, "link_update", "leaf0<->hub"]

    def slowstart(num_tcp, exit_rate):
        rounds = [[2.5, 0.02e6, "f"], [7.5, 0.3e6, "f"]]  # the second one is after the exit
        params = {"num_tcp": num_tcp, "num_receivers": 2, "fair_rate_bps": 1e6}
        exit_and_rounds = {"slowstart_exit": [[6.0, "f", exit_rate]], "rate_series": rounds}
        return _canned("slowstart", params, dynamics=exit_and_rounds)

    def late_join(with_tcp):
        joined = 0.2e6 if good else 1.2e6
        return _canned(
            "late-join",
            {"join_time": 20.0, "leave_time": 40.0, "tail_bps": 2e5, "with_tcp_on_tail": with_tcp},
            duration=60.0,
            flows=_flows(tfmcc=[1e6, 0.2e6]),
            series={
                "tfmcc0": _steps([0, 20, 40, 60], [1e6, joined, 0.9e6]),
                "tcp_slow": _steps([0, 60], [0.15e6]),
            },
            dynamics={"clr_switches": [[22.0, "late-rcv", "f"]] if good else []},
        )

    tails = {"tfmcc_mean_bps": 0.35e6 if good else 0.6e6, "tcp_mean_bps": 0.5e6}
    tfmcc = [0.3e6] * 4 if good else [1e3] * 4  # per-leaf rates: a useful share / starved
    return {
        "individual_bottlenecks": [
            # TFMCC below TCP on the same tails / above it.
            _canned("individual-bottlenecks", {"num_receivers": 4, "tail_bps": 1e6}, **tails)
        ],
        "membership": [
            _canned("responsiveness", staged, **staged_fields),
            _canned("responsiveness", {**staged, "link_delays": [0.03, 0.06]}, **staged_fields),
            congestion,
        ],
        "rtt": [
            _canned("rtt_acquisition", {"num_receivers": 8}, 16.0, {"rtt_acquired": acquired}),
            _canned("rtt_step", {}, dynamics={"events": [step_event], "clr_switches": switches}),
        ],
        "slowstart": [slowstart(0, 0.9e6 if good else 0.05e6), slowstart(6, 0.3e6)],
        "late_join": [late_join(False), late_join(True)],
        "asymmetric": [
            _canned(
                "return_path_traffic",
                {"return_flow_counts": [0, 1, 2, 4]},
                flows=_flows(tfmcc=tfmcc, tcp=[0.3e6] * 4 + [0.1e6] * 7),
            ),
            _canned(
                "lossy_return_paths",
                {"return_loss_rates": [0.0, 0.1, 0.2, 0.3]},
                flows=_flows(tfmcc=tfmcc, tcp=[1e6, 0.9e6, 0.8e6, 0.6e6]),
            ),
        ],
    }


@pytest.mark.parametrize("name", NEW_FIGURES)
def test_ported_figure_builds_pass_and_flag(name):
    good = FIGURES[name].build(_canned_records(True)[name], True)
    assert good.dataset and good.checks
    assert [c.name for c in good.checks if not c.passed] == []
    bad = FIGURES[name].build(_canned_records(False)[name], True)
    assert any(not c.passed for c in bad.checks)


def test_ported_builds_reduce_what_the_drivers_reported():
    records = _canned_records(True)
    phases = FIGURES["membership"].build(records["membership"], True).dataset
    assert [row["tfmcc_bps"] for row in phases[:4]] == [3e6, 2e6, 1e6, 0.3e6]
    assert [row["setting"][0] for row in phases if row["paper_figure"] == 21] == list("013")
    rtt = FIGURES["rtt"].build(records["rtt"], True).dataset
    assert [row["receivers_with_rtt"] for row in rtt[:-1]] == [2, 3, 3, 3, 4, 4, 5, 5]
    assert rtt[-1] == {"paper_figure": 13, "t": 5.0, "reaction_s": 4.0}
    alone, mux = FIGURES["slowstart"].build(records["slowstart"], True).dataset
    assert alone["peak_slowstart_bps"] == 0.9e6 and alone["slowstart_s"] == 6.0
    assert mux["peak_over_fair_rate"] == pytest.approx(0.3)  # the later 7.5 s round is ignored
    fig15, fig16 = FIGURES["late_join"].build(records["late_join"], True).dataset
    assert (fig15["before_join_bps"], fig15["during_join_bps"]) == (1e6, 0.2e6)
    assert fig15["clr_switch_delay_s"] == 2.0 and fig16["tcp_on_tail_after_bps"] == 0.15e6


# ------------------------------------------------------------------ runner


def _register_tiny_figure(name):
    def requests(quick):
        duration = 4.0 if quick else 5.0
        params = {"num_tcp": 1, "duration": duration, "metrics.with_series": True}
        return [SweepRun(index=0, seed=1, params=params, scenario="fairness")]

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


def test_report_record_reruns_from_its_own_run_block(tmp_path, tiny_figure):
    """A record's run block names the simulation: dotted params included."""
    reports, _failures = run_report(
        figures=[tiny_figure], quick=True, out_dir=str(tmp_path), plots=False,
        log=lambda msg: None,
    )
    records = [
        r for r in ResultStore(reports[0].paths["records"]).iter_records() if "run" in r
    ]
    assert records and all("series" in record for record in records)
    for record in records:
        run = record["run"]
        assert run["params"]["metrics.with_series"] is True
        rerun = SweepRun(run["index"], run["seed"], run["params"], run["scenario"])
        assert run_fingerprint(rerun) == run["fingerprint"]


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

    fairness_records = [_fake_fairness_record(1, 1, 1.8e6, 2e6), _fake_fairness_record(4, 1)]
    canned = {
        "fairness": FIGURES["fairness"].build(fairness_records, True),
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
    for name in NEW_FIGURES:
        canned[name] = FIGURES[name].build(_canned_records(True)[name], True)
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
    for name in ["fairness", "smoothness", "scaling", "feedback"] + NEW_FIGURES:
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
