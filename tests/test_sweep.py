"""Tests for the sweep runner, the JSONL store and the ``python -m repro`` CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.scenarios import (
    ResultStore,
    RunExecutor,
    SweepRunner,
    expand_grid,
    get_scenario,
)
from repro.scenarios.registry import SweepRun

TINY = {"duration": 4.0, "num_tcp": 2}


# -------------------------------------------------------------------- store


def test_result_store_append_and_read(tmp_path):
    store = ResultStore(str(tmp_path / "sub" / "results.jsonl"))
    assert store.read() == []
    store.append({"b": 1, "a": 2})
    store.append_many([{"x": [1, 2]}, {"y": None}])
    assert len(store) == 3
    records = store.read()
    assert records[0] == {"a": 2, "b": 1}
    # Keys are sorted on disk for canonical output.
    first_line = (tmp_path / "sub" / "results.jsonl").read_text().splitlines()[0]
    assert first_line == '{"a":2,"b":1}'


# -------------------------------------------------------------------- sweep


def test_expand_grid():
    assert expand_grid({}) == [{}]
    combos = expand_grid({"a": [1, 2], "b": ["x"]})
    assert combos == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]


def test_sweep_runs_enumeration_and_seeds():
    runner = SweepRunner(
        "fairness",
        grid={"num_tcp": [2, 3]},
        params={"duration": 4.0},
        replications=2,
        base_seed=10,
    )
    runs = runner.runs()
    assert [r.seed for r in runs] == [10, 11, 12, 13]
    assert [r.params["num_tcp"] for r in runs] == [2, 2, 3, 3]
    assert all(r.params["duration"] == 4.0 for r in runs)


def test_sweep_rejects_bad_arguments():
    with pytest.raises(KeyError):
        SweepRunner("no-such-scenario")
    with pytest.raises(ValueError):
        SweepRunner("fairness", replications=0)
    with pytest.raises(ValueError):
        SweepRunner("fairness", jobs=0)
    spec = get_scenario("fairness").spec(**TINY)
    with pytest.raises(ValueError):
        SweepRunner(spec, grid={"num_tcp": [1]})


def test_sweep_over_concrete_spec():
    spec = get_scenario("fairness").spec(**TINY)
    records = SweepRunner(spec, replications=2, base_seed=3).execute()
    assert len(records) == 2
    assert [r["seed"] for r in records] == [3, 4]
    assert records[0]["run"]["scenario"] == "fairness"


def test_execute_run_is_reproducible():
    run = SweepRun(index=0, seed=9, params=dict(TINY), scenario="fairness")
    with RunExecutor() as executor:
        a = executor.submit(run).result().stamp(run)
        b = executor.submit(run).result().stamp(run)
    assert a == b
    assert a["tfmcc_mean_bps"] > 0


def test_serial_and_parallel_sweeps_are_bit_identical(tmp_path):
    """The ISSUE acceptance property: JSONL output must not depend on how
    many worker processes executed the sweep."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    kwargs = dict(params=dict(TINY), replications=3, base_seed=2)
    SweepRunner("fairness", jobs=1, **kwargs).execute(store=ResultStore(str(serial)))
    SweepRunner("fairness", jobs=2, **kwargs).execute(store=ResultStore(str(parallel)))
    serial_bytes = serial.read_bytes()
    assert serial_bytes == parallel.read_bytes()
    assert serial_bytes.count(b"\n") == 3
    for line in serial.read_text().splitlines():
        record = json.loads(line)  # every line is valid JSON
        assert record["scenario"] == "fairness"
        assert record["run"]["params"]["num_tcp"] == 2


def test_bursty_loss_sweep_is_bit_identical_serial_vs_parallel(tmp_path):
    """Gilbert-Elliott bursty-loss runs must be deterministic too: the loss
    model keeps per-link Markov state fed from the simulator RNG, so this
    guards the seeding/ordering contract for stateful loss processes."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    kwargs = dict(
        params={"duration": 6.0, "burst_length": 4.0, "loss_rate": 0.05},
        replications=3,
        base_seed=7,
    )
    SweepRunner("bursty-loss", jobs=1, **kwargs).execute(store=ResultStore(str(serial)))
    SweepRunner("bursty-loss", jobs=2, **kwargs).execute(store=ResultStore(str(parallel)))
    assert serial.read_bytes() == parallel.read_bytes()
    records = [json.loads(line) for line in serial.read_text().splitlines()]
    assert len(records) == 3
    # Bursty loss must actually have occurred, otherwise this test is vacuous.
    assert any(r["links"]["random_drops"] > 0 for r in records)


def test_wireless_sweep_is_bit_identical_serial_vs_parallel(tmp_path):
    """snr_per channel runs (channel trace probe + per-cause drop
    accounting) must survive the multiprocessing sweep path unchanged:
    channel models are built per worker from the spec, never shared."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    kwargs = dict(
        params={"duration": 6.0, "snr_db": 12.5},
        replications=3,
        base_seed=4,
    )
    SweepRunner("wireless_last_hop", jobs=1, **kwargs).execute(
        store=ResultStore(str(serial))
    )
    SweepRunner("wireless_last_hop", jobs=2, **kwargs).execute(
        store=ResultStore(str(parallel))
    )
    assert serial.read_bytes() == parallel.read_bytes()
    records = [json.loads(line) for line in serial.read_text().splitlines()]
    assert len(records) == 3
    # Wireless loss must actually have occurred, otherwise this is vacuous.
    assert all(r["links"]["channel_drops"]["per"] > 0 for r in records)


def test_mobility_sweep_is_bit_identical_serial_vs_parallel(tmp_path):
    """Waypoint mobility (positions interpolated inside each worker, SNR
    re-derived every update tick) must be deterministic across jobs."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    kwargs = dict(params={"duration": 10.0}, replications=3, base_seed=6)
    SweepRunner("mobile_receiver", jobs=1, **kwargs).execute(
        store=ResultStore(str(serial))
    )
    SweepRunner("mobile_receiver", jobs=2, **kwargs).execute(
        store=ResultStore(str(parallel))
    )
    assert serial.read_bytes() == parallel.read_bytes()
    records = [json.loads(line) for line in serial.read_text().splitlines()]
    assert len(records) == 3
    assert all(r["trace"]["channel"]["mobility_updates"] == 20 for r in records)


def test_dynamics_sweep_is_bit_identical_serial_vs_parallel(tmp_path):
    """Time-scripted dynamics (link failure, reroute, re-graft and the trace
    summary) must survive the multiprocessing sweep path unchanged: events
    are scheduled from the spec inside each worker, never shared."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    kwargs = dict(
        params={"fail_at": 8.0, "recover_at": 14.0, "duration": 20.0},
        replications=3,
        base_seed=5,
    )
    SweepRunner("link_failure_reroute", jobs=1, **kwargs).execute(
        store=ResultStore(str(serial))
    )
    SweepRunner("link_failure_reroute", jobs=2, **kwargs).execute(
        store=ResultStore(str(parallel))
    )
    assert serial.read_bytes() == parallel.read_bytes()
    records = [json.loads(line) for line in serial.read_text().splitlines()]
    assert len(records) == 3
    # The failure/recovery pair must have been applied in every run.
    assert all(r["trace"]["dynamics"]["route_rebuilds"] == 2 for r in records)


# ---------------------------------------------------------------------- CLI


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fairness" in out
    assert "bursty-loss" in out
    assert "parameters:" in out


def test_cli_show_round_trips(capsys):
    assert cli_main(["show", "late-join", "--set", "num_tcp=3"]) == 0
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.from_json(capsys.readouterr().out)
    assert spec.name == "late-join"
    assert len([f for f in spec.flows if f.kind == "tcp-reno"]) == 3


def test_cli_run_json_and_out(tmp_path, capsys):
    out_file = tmp_path / "run.jsonl"
    rc = cli_main(
        [
            "run",
            "fairness",
            "--seed",
            "4",
            "--set",
            "duration=4.0",
            "--set",
            "num_tcp=2",
            "--json",
            "--out",
            str(out_file),
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(out_file.read_text())
    assert printed == stored
    assert stored["seed"] == 4
    assert stored["run"]["params"]["duration"] == 4.0


def test_cli_run_summary(capsys):
    rc = cli_main(["run", "scaling", "--set", "duration=4.0", "--set", "num_receivers=2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario : scaling" in out
    assert "kbit/s" in out


def test_cli_sweep_writes_jsonl(tmp_path, capsys):
    out_file = tmp_path / "sweep.jsonl"
    rc = cli_main(
        [
            "sweep",
            "fairness",
            "--jobs",
            "2",
            "--reps",
            "2",
            "--grid",
            "num_tcp=2,3",
            "--set",
            "duration=4.0",
            "--out",
            str(out_file),
            "--quiet",
        ]
    )
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 4  # 2 grid points x 2 replications
    records = [json.loads(line) for line in lines]
    assert [r["run"]["index"] for r in records] == [0, 1, 2, 3]
    assert {r["run"]["params"]["num_tcp"] for r in records} == {2, 3}


def test_cli_show_prints_flow_table_on_stderr(capsys):
    assert cli_main(["show", "protocol_mix"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays pure JSON
    assert "flows (5):" in captured.err
    for kind in ("tfmcc", "tfrc", "tcp-reno", "cbr", "onoff"):
        assert kind in captured.err


def test_cli_run_with_protocol_override(tmp_path, capsys):
    out_file = tmp_path / "run.jsonl"
    rc = cli_main(
        [
            "run",
            "scaling",
            "--set",
            "duration=5.0",
            "--set",
            "num_receivers=2",
            "--override",
            "flows.0.params.max_rtt=0.25",
            "--json",
            "--out",
            str(out_file),
        ]
    )
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["run"]["params"]["flows.0.params.max_rtt"] == 0.25
    assert cli_main(["run", "scaling", "--override", "flows.0.params.mtu=1"]) == 2


def test_cli_sweep_with_dotted_grid(tmp_path):
    out_file = tmp_path / "sweep.jsonl"
    rc = cli_main(
        [
            "sweep",
            "scaling",
            "--reps",
            "1",
            "--grid",
            "flows.0.params.max_rtt=0.25,0.5",
            "--set",
            "duration=5.0",
            "--set",
            "num_receivers=2",
            "--out",
            str(out_file),
            "--quiet",
        ]
    )
    assert rc == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["run"]["params"]["flows.0.params.max_rtt"] for r in records] == [0.25, 0.5]


def test_cli_error_handling(capsys):
    assert cli_main(["run", "no-such-scenario"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli_main(["run", "fairness", "--set", "bogus=1"]) == 2
    with pytest.raises(SystemExit):
        cli_main(["run", "fairness", "--set", "notanassignment"])


# Each case: the CLI flags naming a run, and the params a figure (or a service
# payload) writes for the same run.
ENTRY_POINT_CASES = [
    (
        "fairness",
        ["--set", "duration=2.0", "--override", "num_tcp=1"],
        {"duration": 2.0, "num_tcp": 1},
    ),
    (
        "scaling",
        ["--set", "duration=2.0", "--set", "num_receivers=2",
         "--set", "flows.0.params.max_rtt=0.3"],
        {"duration": 2.0, "num_receivers": 2, "flows.0.params.max_rtt": 0.3},
    ),
    (
        "scaling",
        ["--set", "duration=2.0", "--set", "num_receivers=2",
         "--set", "engine.kind=exact", "--engine", "cohort"],
        {"duration": 2.0, "num_receivers": 2, "engine.kind": "cohort"},
    ),
    (  # two spellings of one flag: the later value wins
        "fairness",
        ["--set", "num_tcp=3", "--override", "num_tcp=1", "--set", "duration=2.0"],
        {"duration": 2.0, "num_tcp": 1},
    ),
]


@pytest.mark.parametrize("scenario,flags,params", ENTRY_POINT_CASES)
def test_every_entry_point_resolves_the_same_flags_to_the_same_run(
    tmp_path, capsys, scenario, flags, params
):
    from repro.cli import _submit_payload, build_parser
    from repro.scenarios import fingerprint
    from repro.scenarios.sweep import run_fingerprint
    from repro.service.jobs import expand_payload

    seed = 5
    expected = run_fingerprint(SweepRun(index=0, seed=seed, params=params, scenario=scenario))

    assert cli_main(["show", scenario, *flags]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert fingerprint(shown, seed) == expected

    cache = str(tmp_path / "cache.jsonl")
    assert cli_main(["run", scenario, *flags, "--seed", str(seed), "--json", "--cache", cache]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["fingerprint"] == expected

    out = tmp_path / "sweep.jsonl"
    sweep = ["sweep", scenario, *flags, "--reps", "1", "--seed", str(seed), "--quiet"]
    assert cli_main([*sweep, "--cache", cache, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["run"]["fingerprint"] == expected

    args = build_parser().parse_args(["submit", scenario, *flags, "--seed", str(seed)])
    (unit,) = expand_payload(_submit_payload(args))
    assert run_fingerprint(unit) == expected


@pytest.mark.parametrize("command", ["show", "run", "profile"])
def test_a_plain_key_that_is_no_scenario_parameter_is_rejected(command, capsys):
    assert cli_main([command, "scaling", "--override", "description=x"]) == 2
    assert "unknown parameters" in capsys.readouterr().err
