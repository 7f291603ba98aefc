"""The ledger's own rules: names, limits, statistics, verdicts, digests.

Nothing here simulates for longer than a fraction of a second; the numbers
themselves come from ``run.py``, not from the test suite.
"""

import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import ledger_core as core  # noqa: E402
import ledger_workloads as workloads  # noqa: E402
from ledger_trace import Sampler, Spans, write_spans  # noqa: E402

# ``run`` is too common a module name to leave on the suite's import path.
_spec = importlib.util.spec_from_file_location("ledger_run", os.path.join(HERE, "run.py"))
ledger_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_run)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ names and limits


def test_benchmark_json_is_what_the_harness_defines(benchmark_file):
    assert benchmark_file == core.benchmark_json()
    assert [w["name"] for w in benchmark_file["workloads"]] == list(workloads.WORKLOADS)
    assert set(core.REFERENCE_LINK_PACKETS) <= set(workloads.WORKLOADS)


def test_benchmark_json_is_inside_the_contract(benchmark_file):
    assert set(benchmark_file) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(benchmark_file["workloads"]) <= 8
    assert 1 <= len(benchmark_file["end_to_end"]) <= 16
    assert 1 <= len(benchmark_file["per_layer"]) <= 128
    assert isinstance(benchmark_file["run_seconds"], int) and 1 <= benchmark_file["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_file[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in benchmark_file["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark_file["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark_file["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in benchmark_file["end_to_end"] + benchmark_file["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in benchmark_file["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark_file["end_to_end"])
    assert benchmark_file["paths"] == ["benchmarks/ledger"]
    assert all(not part.startswith("/") and ".." not in part for part in benchmark_file["command"])


def fake_child():
    op = {"wall": 2.0, "cpu": 1.5, "scale": 0.5, "error": None, "traced": False}
    failed = dict(op, error="boom")
    return {
        "setup_s": 0.3, "peak_rss_mb": 50.0, "ops": [op, dict(op, wall=4.0), failed],
        "warm": [dict(op, wall=0.01, scale=1.0)], "layers": {"simulator.events": 7},
        "stats_digest": "", "spans": [],
    }


def test_harness_emits_exactly_the_named_metrics(benchmark_file):
    end_to_end = core.reduce_end_to_end(fake_child(), [0.1, 0.2, 0.4])
    assert list(end_to_end) == [m["name"] for m in benchmark_file["end_to_end"]]
    assert end_to_end["op_s.p50"]["value"] == pytest.approx(1.5)  # failed op left out, scaled
    assert end_to_end["op_cpu_s.p50"]["value"] == pytest.approx(0.75)
    assert end_to_end["setup_s"]["value"] == pytest.approx(0.25)
    assert end_to_end["setup_s"]["samples"] == 4
    for metric, spec in zip(end_to_end.values(), benchmark_file["end_to_end"]):
        assert metric["unit"] == spec["unit"]
    per_layer = core.reduce_per_layer(fake_child(), {"cli.list_s": 0.4})
    assert list(per_layer) == [m["name"] for m in benchmark_file["per_layer"]]
    assert per_layer["simulator.events"]["value"] == 7
    assert per_layer["cli.list_s"]["value"] == 0.4
    assert per_layer["channel.share"]["value"] == 0  # a layer that did not run reads 0
    assert core.count_failures(fake_child()) == (4, 1)


def test_result_line_has_the_contract_keys():
    run = {"correct": True, "attempted": 3, "failed": 0, "stats_digest": "x",
           "metrics": core.reduce_end_to_end(fake_child(), [])}
    line = json.loads(ledger_run.result_line(run))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


# ------------------------------------------------------------------ statistics


def test_quartiles_spread_and_percentiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert core.quartiles(values) == (q1, q2, q3)
    assert core.spread(values) == pytest.approx((q3 - q1) / q2)
    assert core.quartiles([3.0]) == (3.0, 3.0, 3.0) and core.spread([3.0]) == 0.0
    assert core.spread([]) == 0.0 and core.median([]) == 0.0
    hundred = [float(i) for i in range(1, 101)]
    assert core.percentile(hundred, 90) == pytest.approx(90.1)
    assert core.percentile(hundred, 50) == pytest.approx(statistics.median(hundred))


def test_highest_reported_percentile_keeps_ten_samples_beyond_it():
    assert core.supports_percentile(100, 90) and not core.supports_percentile(99, 90)
    assert core.supports_percentile(20, 50) and not core.supports_percentile(19, 50)
    assert core.supports_percentile(1000, 99) and not core.supports_percentile(400, 99)
    # serve_jobs reports service.op_ms.p90.warm from its fixed number of warm ops
    serve = workloads.ServeJobs
    warm_ops = round(0.75 * core.RUN_SECONDS) * serve.cold_per_round * serve.warm_repeats
    assert core.supports_percentile(warm_ops, 90)


def test_layer_map_sends_unknown_files_to_other():
    assert core.layer_of("simulator/engine.py") == "simulator.engine"
    assert core.layer_of("simulator/queues.py") == "simulator.link"
    assert core.layer_of("core/loss_history.py") == "core.receiver"
    assert core.layer_of("tcp/reno.py") == "tcp"
    assert core.layer_of("engines/cohort.py") == "engines.cohort"
    assert core.layer_of("engines/exact.py") == "other"
    assert core.layer_of("simulator/engine2.py") == "other"
    assert core.layer_of("brand/new/module.py") == "other"
    assert core.layer_of("tcpx/reno.py") == "other"
    names = {name for name, _unit, _better, _moves in core.PER_LAYER}
    for layer in core.LAYERS:
        assert {layer + ".share", layer + ".self_s"} <= names


def test_sampler_charges_cpu_to_the_layer_of_the_running_file(tmp_path):
    source = tmp_path / "repro" / "simulator"
    source.mkdir(parents=True)
    (source / "engine.py").write_text(
        "import time\n"
        "def spin(seconds):\n"
        "    end = time.process_time() + seconds\n"
        "    while time.process_time() < end:\n"
        "        sum(range(100))\n"
    )
    spec = importlib.util.spec_from_file_location("fake_engine", str(source / "engine.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sampler = Sampler(str(tmp_path / "repro"), core.layer_of, interval=0.001)
    with sampler:
        module.spin(0.1)
    end = time.process_time() + 0.02  # outside the sampled region: not counted
    while time.process_time() < end:
        pass
    shares = sampler.shares()
    assert sum(sampler.counts.values()) >= 20
    assert shares["simulator.engine"] > 0.9
    assert sum(shares.values()) == pytest.approx(1.0)


def test_every_span_has_a_parent_chain_to_its_root(tmp_path):
    spans = Spans("fanout_exact", 10.0)
    spans.add_op("op[0]", [("engines.build", 10.0, 10.5), ("simulator.run", 10.5, 12.0)])
    rows = spans.close(12.5)
    path = str(tmp_path / "out" / "trace.jsonl")
    write_spans(path, rows)
    write_spans(path, Spans("unicast_mix", 1.0).close(2.0))
    with open(path, encoding="utf-8") as fh:
        written = [json.loads(line) for line in fh]
    by_id = {row["id"]: row for row in written}
    assert len(by_id) == len(written) == 5
    for row in written:
        assert set(row) == {"id", "parent", "workload", "name", "start", "end"}
        while row["parent"] is not None:
            row = by_id[row["parent"]]
        assert row["name"] == row["workload"]
    assert by_id["fanout_exact:0"]["end"] == 12.5


# ------------------------------------------------------------------- verdicts


def test_compare_verdicts_on_synthetic_runs():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    verdict = lambda change, bound=0.1, better="lower": core.verdict(base, change, better, bound)["verdict"]
    assert verdict([v * 0.8 for v in base]) == "improved"
    assert verdict([v * 1.01 for v in base]) == "unchanged"
    assert verdict([v * 1.2 for v in base]) == "regressed"
    assert verdict(list(base)) == "unchanged"
    # nine of ten pairs must win: eight is not enough to call it improved
    assert verdict([v * 0.97 for v in base[:8]] + [v * 1.02 for v in base[8:]]) == "unchanged"
    # higher-is-better metrics flip the direction
    assert verdict([v * 1.2 for v in base], better="higher") == "improved"
    assert verdict([v * 0.8 for v in base], better="higher") == "regressed"
    # a spread wider than the bound resolves nothing ...
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 15.0, 6.0, 11.0, 9.0, 13.0]
    assert core.verdict(noisy, [v * 1.05 for v in reversed(noisy)], "lower", 0.1)["verdict"] == "unresolved"
    assert core.verdict(noisy, [v * 1.3 for v in reversed(noisy)], "lower", 0.1)["verdict"] == "unresolved"
    # ... unless every run of the change beats every run of the base
    assert core.verdict(noisy, [v * 0.3 for v in noisy], "lower", 0.1)["verdict"] == "improved"
    # ... or the change loses nine of ten pairs by more than the base's quartile distance
    assert core.verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.1)["verdict"] == "regressed"
    detail = core.verdict(base, [v * 0.8 for v in base], "lower", 0.1)
    assert detail["wins"] == detail["pairs"] == 10 and detail["ratio"] == pytest.approx(0.8)


def test_any_rise_of_failed_share_is_a_regression():
    assert core.failed_share_verdict(0.0, 0.0) == "unchanged"
    assert core.failed_share_verdict(0.0, 0.001) == "regressed"
    assert core.failed_share_verdict(0.01, 0.0) == "improved"


def write_ledger(directory, run, op_s, failed=0):
    folder = os.path.join(directory, str(run))
    os.makedirs(folder)
    ledger = {"workloads": {"fanout_exact": {
        "end_to_end": {"op_s.p50": {"value": op_s, "unit": "s"}}, "attempted": 10, "failed": failed,
    }}}
    with open(os.path.join(folder, "LEDGER.json"), "w", encoding="utf-8") as fh:
        json.dump(ledger, fh)


def test_compare_command_exits_non_zero_only_on_a_regression(tmp_path, capsys):
    base, same, worse = (str(tmp_path / name) for name in ("a", "b", "c"))
    for i, value in enumerate([1.0, 1.01, 0.99, 1.02, 0.98]):
        write_ledger(base, i, value)
        write_ledger(same, i, value * 1.01)
        write_ledger(worse, i, value * 1.5, failed=i == 0)
    assert ledger_run.main(["--compare", base, same]) == 0
    out = capsys.readouterr().out
    assert "op_s.p50" in out and "unchanged" in out and "regressed" not in out
    assert ledger_run.main(["--compare", base, worse]) == 1
    assert capsys.readouterr().out.count("regressed") == 2


# ---------------------------------------------------------------- correctness


def test_stats_digest_ignores_events_and_run_and_nothing_else():
    record = {"scenario": "s", "seed": 1, "events": 10, "fairness_index": 0.9,
              "flows": [{"id": "f", "avg_bps": 1.0}], "run": {"index": 0}}
    digest = core.stats_digest(record)
    assert core.stats_digest(dict(record, events=999)) == digest
    assert core.stats_digest(dict(record, run={"index": 7, "env": {}})) == digest
    assert core.stats_digest({k: v for k, v in record.items() if k not in ("events", "run")}) == digest
    for key, value in (("seed", 2), ("fairness_index", 0.8), ("scenario", "t"),
                       ("flows", [{"id": "f", "avg_bps": 2.0}]), ("extra", 1)):
        assert core.stats_digest(dict(record, **{key: value})) != digest


def test_sanity_gate():
    good = {"events": 5, "fairness_index": 1.0, "flows": [{"id": "f", "avg_bps": 0.0}]}
    assert core.sanity_error(good) is None
    assert "events" in core.sanity_error(dict(good, events=0))
    assert "avg_bps" in core.sanity_error(dict(good, flows=[{"id": "f", "avg_bps": float("nan")}]))
    assert "fairness_index" in core.sanity_error(dict(good, fairness_index=0.0))
    assert "fairness_index" in core.sanity_error(dict(good, fairness_index=1.5))
    assert "failure" in core.sanity_error({"failed": True, "error": "x"})


# ----------------------------------------------------------- against the program


class TinyFanout(workloads.FanoutExact):
    params = {"num_receivers": 4, "duration": 3.0}


@pytest.mark.parametrize("trace", [False, True])
def test_sim_workload_runs_against_the_public_api(tmp_path, monkeypatch, trace):
    monkeypatch.chdir(tmp_path)
    run = TinyFanout(seed=3, seconds=0.0, trace=trace)
    run.setup()
    run.measure()
    result = run.result(setup_s=0.1)
    assert len(result["ops"]) == (6 if trace else 3) and len(result["warm"]) >= 3
    assert not any(op["error"] for op in result["ops"] + result["warm"])
    assert all(op["scale"] > 0 for op in result["ops"])
    assert result["stats_digest"] and result["layers"]["simulator.link_packets"] > 0
    assert bool(result["spans"]) == trace
    again = TinyFanout(seed=3, seconds=0.0, trace=False)
    again.setup()
    again.warm_up()
    assert again.digest == result["stats_digest"]  # same seed, same inputs, same statistics


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, str(bare / "benchmarks" / "ledger"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(bare))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fanout_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
