"""Simulation-service tests: coalescing, SSE, cancel, crash resume, drain.

Covers the ``repro serve`` acceptance properties:

* two clients submitting the same (spec, seed) share one simulation
  (in-flight coalescing, asserted via the service telemetry counters), and
  anything already cached is answered without simulating,
* SSE progress streams are sequence-ordered and end with the terminal state,
* a job cancelled mid-run stops scheduling its remaining units while the
  daemon keeps serving,
* a SIGKILLed daemon resumes queued/running jobs from its journal,
* a fetched service record is byte-identical to the same spec run through
  ``repro run --cache``,
* malformed submissions are 400s; drain refuses new submissions with 503.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import telemetry
from repro.scenarios import get_scenario
from repro.scenarios import sweep as sweep_mod  # patched before a pool forks
from repro.scenarios.cache import ResultCache, pure_record
from repro.scenarios.store import encode_record
from repro.service import ReproService, ServiceClient, ServiceError
from repro.service.jobs import JobJournal, expand_payload

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Smallest useful run: ~0.5 s of wall time.
TINY = {"duration": 4.0, "num_tcp": 2}
#: A run long enough (~2 s wall) to still be in flight when we act on it.
SLOW = {"duration": 20.0, "num_tcp": 2}


def tiny_payload(seed=2, **params):
    merged = {**TINY, **params}
    return {"scenario": "fairness", "seed": seed, "params": merged}


def slow_payload(seed=2, **params):
    merged = {**SLOW, **params}
    return {"scenario": "fairness", "seed": seed, "params": merged}


@pytest.fixture
def service(tmp_path):
    svc = ReproService(
        str(tmp_path / "data"), uds=str(tmp_path / "repro.sock"), workers=2
    ).start()
    yield svc
    svc.shutdown(timeout=120)


@pytest.fixture
def client(service):
    return ServiceClient(service.endpoint)


def counters(service):
    return service.scheduler.telemetry_snapshot().get("counters", {})


# ------------------------------------------------------------ payload model


def test_expand_payload_single_and_grid():
    units = expand_payload(tiny_payload(seed=5))
    assert len(units) == 1 and units[0].seed == 5
    units = expand_payload(
        {
            "scenario": "fairness",
            "seed": 3,
            "params": dict(TINY),
            "grid": {"num_tcp": [1, 2]},
            "replications": 2,
        }
    )
    assert [u.seed for u in units] == [3, 4, 5, 6]
    assert [u.params["num_tcp"] for u in units] == [1, 1, 2, 2]


@pytest.mark.parametrize(
    "payload",
    [
        {},  # neither scenario nor spec
        {"scenario": "fairness", "spec": {"name": "x"}},  # both
        {"scenario": "no-such-scenario"},
        {"scenario": "fairness", "seed": "seven"},
        {"scenario": "fairness", "replications": 0},
        {"scenario": "fairness", "grid": {"num_tcp": 4}},  # not a list
        {"scenario": "fairness", "params": {"bogus_param": 1}},
        {"scenario": "fairness", "bogus_field": 1},
    ],
)
def test_expand_payload_rejects_malformed(payload):
    with pytest.raises((ValueError, KeyError)):
        expand_payload(payload)


def test_journal_replay_and_compact(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    journal.append({"op": "submit", "id": "j00001", "payload": tiny_payload()})
    journal.append({"op": "state", "id": "j00001", "state": "running"})
    journal.close()
    # A truncated tail (killed mid-write) must not poison the replay.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "unit", "id": "j000')
    entries = JobJournal.replay(path)
    assert [e["op"] for e in entries] == ["submit", "state"]


def test_journal_reopened_after_a_torn_write_replays_every_later_entry(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    journal.append({"op": "submit", "id": "j00001", "payload": tiny_payload()})
    journal.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "unit", "id": "j000')  # killed mid-write
    restarted = JobJournal(path)
    restarted.append({"op": "submit", "id": "j00002", "payload": tiny_payload()})
    restarted.append({"op": "state", "id": "j00002", "state": "running"})
    restarted.close()
    entries = JobJournal.replay(path)
    assert [(e["op"], e["id"]) for e in entries] == [
        ("submit", "j00001"), ("submit", "j00002"), ("state", "j00002")
    ]


# ------------------------------------------------- coalescing and cache hits


def test_identical_concurrent_submits_share_one_simulation(service, client):
    first = client.submit(slow_payload(seed=11))
    second = client.submit(slow_payload(seed=11))  # identical fingerprint
    third = client.submit(slow_payload(seed=12))  # different fingerprint
    for job in (first, second, third):
        assert client.wait(job["id"], timeout=300)["state"] == "done"
    tallies = counters(service)
    assert tallies["service.units_coalesced"] == 1
    assert tallies["service.units_executed"] == 2  # seeds 11 and 12, once each
    a = client.result(first["id"])
    b = client.result(second["id"])
    assert encode_record(pure_record(a)) == encode_record(pure_record(b))
    done_second = client.job(second["id"])
    assert done_second["sources"]["coalesced"] == 1


def test_cached_submit_answers_without_simulating(service, client):
    job = client.submit(tiny_payload(seed=21))
    client.wait(job["id"], timeout=300)
    executed_before = counters(service)["service.units_executed"]
    again = client.submit(tiny_payload(seed=21))
    final = client.wait(again["id"], timeout=60)
    assert final["state"] == "done"
    assert final["sources"]["cached"] == 1
    assert counters(service)["service.units_executed"] == executed_before
    assert encode_record(client.result(job["id"])) == encode_record(
        client.result(again["id"])
    )


# ------------------------------------------------------------- SSE streaming


def test_sse_stream_is_ordered_and_terminal(service, client):
    job = client.submit(
        {
            "scenario": "fairness",
            "seed": 31,
            "params": dict(TINY),
            "grid": {"num_tcp": [1, 2, 3]},
        }
    )
    events = list(client.watch(job["id"]))
    seqs = [data["seq"] for _event, data in events]
    assert seqs == list(range(len(events)))  # contiguous from 0, in order
    kinds = [event for event, _data in events]
    assert kinds[0] == "queued"
    assert kinds[-1] == "state" and events[-1][1]["state"] == "done"
    unit_progress = [data["completed"] for event, data in events if event == "unit"]
    assert unit_progress == [1, 2, 3]  # progress is monotone, one per unit
    # Reconnecting mid-stream replays only from the requested sequence.
    tail = list(client.watch(job["id"], from_seq=seqs[-1]))
    assert [data["seq"] for _e, data in tail] == [seqs[-1]]


# ------------------------------------------------------------------- cancel


def test_cancel_mid_run_stops_remaining_units(service, client):
    job = client.submit(
        {
            "scenario": "fairness",
            "seed": 41,
            "params": dict(SLOW),
            "grid": {"num_tcp": [1, 2, 3, 4, 5, 6]},
        }
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if service.scheduler.stats()["inflight_tasks"] > 0:
            break
        time.sleep(0.02)
    response = client.cancel(job["id"])
    assert response["cancelled"] is True
    status = client.job(job["id"])
    assert status["state"] == "cancelled"
    assert status["completed"] < 6
    # Cancelling twice reports 409 rather than flapping state.
    assert client.cancel(job["id"])["cancelled"] is False
    # The daemon keeps serving afterwards.
    after = client.submit(tiny_payload(seed=42))
    assert client.wait(after["id"], timeout=300)["state"] == "done"
    assert counters(service)["service.jobs_cancelled"] == 1


# ------------------------------------------------------------- HTTP errors


def test_malformed_submissions_and_unknown_routes(service, client):
    scaling = get_scenario("scaling").spec(num_receivers=4).to_dict()
    fairness = get_scenario("fairness").spec(num_tcp=2).to_dict()
    infinite_bottleneck = {**fairness["topology"], "bottleneck_bps": float("inf")}

    def with_receivers(receivers):
        return {"spec": {**scaling, "flows": [{**scaling["flows"][0], "receivers": receivers}]}}

    for payload, names in (
        ({}, ""),
        ({"scenario": "no-such-scenario"}, ""),
        ({"scenario": "fairness", "params": {"bogus": 1}}, ""),
        ({"scenario": "fairness", "grid": {"num_tcp": 4}}, ""),
        # A receiver run is three outside-supplied fields, one of them a format string.
        (with_receivers({"node": "dst{}", "count": 1e5}), "receivers.count"),
        (with_receivers({"node": "dst{}", "count": 4, "first": -1}), "receivers.first"),
        (with_receivers({"node": "{0.__class__}", "count": 4}), "receivers.node"),
        (with_receivers({"node": "dst{}", "count": 4, "stride": 2}), "stride"),
        (with_receivers({"node": "dst{}"}), "count"),
        ({"scenario": "scaling", "params": {"flows.0.receivers.count": "10"}}, "receivers.count"),
        # Traffic on a node the topology does not define.
        (with_receivers({"node": "dst{}", "count": 5}), "node 'dst4'"),
        ({"scenario": "scaling", "params": {"topology.num_right": 2}}, "node 'dst7'"),
        # json.loads takes NaN and Infinity; a run of that length never ends.
        ({"scenario": "fairness", "params": {"duration": float("nan")}}, "duration"),
        ({"spec": {**scaling, "duration": float("inf")}}, "duration"),
        # The body is JSON with a bare Infinity: refused at submit, by field.
        ({"spec": {**fairness, "topology": infinite_bottleneck}}, "topology.bottleneck_bps"),
    ):
        status, body = client.request("POST", "/v1/jobs", payload)
        assert status == 400, body
        assert "invalid submission" in body["error"] and names in body["error"]
    # Nothing refused was journalled or reached a worker: a valid job completes.
    assert client.jobs() == []
    job = client.submit(tiny_payload(seed=50))
    assert client.wait(job["id"], timeout=120)["state"] == "done"
    with pytest.raises(ServiceError) as err:
        client.job("j99999")
    assert err.value.status == 404
    status, _body = client.request("GET", "/no/such/endpoint")
    assert status == 404
    # Result of an unfinished job is a 409, not a partial payload.
    job = client.submit(slow_payload(seed=51))
    status, body = client.request("GET", f"/v1/jobs/{job['id']}/result")
    assert status == 409 and "not ready" in body["error"]
    client.cancel(job["id"])


# ---------------------------------------------------------------- draining


def test_drain_refuses_new_submissions_and_checkpoints(tmp_path):
    svc = ReproService(
        str(tmp_path / "data"), uds=str(tmp_path / "repro.sock"), workers=1
    ).start()
    client = ServiceClient(svc.endpoint)
    job = client.submit(slow_payload(seed=61))
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if svc.scheduler.stats()["inflight_tasks"] >= 1:
            break
        time.sleep(0.01)
    else:
        raise AssertionError("unit never reached the pool")
    drainer = threading.Thread(target=svc.scheduler.drain, kwargs={"timeout": 120})
    drainer.start()
    deadline = time.monotonic() + 10
    while not svc.scheduler.draining and time.monotonic() < deadline:
        time.sleep(0.01)
    assert client.health()["status"] == "draining"
    with pytest.raises(ServiceError) as err:
        client.submit(tiny_payload(seed=62))
    assert err.value.status == 503
    drainer.join(timeout=120)
    assert not drainer.is_alive()
    # The in-flight unit was allowed to finish and the journal was
    # compacted to one submit entry per job plus its surviving state.
    entries = JobJournal.replay(os.path.join(svc.scheduler.data_dir, "journal.jsonl"))
    submits = [e for e in entries if e["op"] == "submit"]
    assert [e["id"] for e in submits] == [job["id"]]
    assert {e["op"] for e in entries} <= {"submit", "unit", "state"}
    assert any(e["op"] == "unit" and e["status"] == "done" for e in entries)
    svc.shutdown(timeout=30)


# ----------------------------------------------------- daemon crash / resume


def _spawn_daemon(tmp_path, sock, data):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--uds", sock, "--data", data, "--jobs", "1",
        ],
        cwd=str(tmp_path),
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # lets a SIGKILL take the pool workers too
    )
    # Probe with a short timeout: right after a SIGKILL the old daemon's
    # orphaned pool workers still hold the stale listening socket (inherited
    # across fork), so a connect can succeed yet never be served until the
    # restarted daemon unlinks the path and binds its own socket.
    probe = ServiceClient(f"unix://{sock}", timeout=2.0)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            probe.health()
            return proc, ServiceClient(f"unix://{sock}")
        except OSError:
            if proc.poll() is not None:
                raise AssertionError(f"daemon exited early: {proc.returncode}")
            time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGKILL)
    raise AssertionError("daemon did not come up within 60 s")


def test_sigkill_and_restart_resumes_jobs_from_journal(tmp_path):
    sock = str(tmp_path / "repro.sock")
    data = str(tmp_path / "data")
    proc, client = _spawn_daemon(tmp_path, sock, data)
    try:
        job = client.submit(
            {
                "scenario": "fairness",
                "seed": 71,
                "params": dict(SLOW),
                "grid": {"num_tcp": [1, 2, 3]},
            }
        )
        queued = client.submit(tiny_payload(seed=72))  # still queued behind it
        journal = os.path.join(data, "journal.jsonl")
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            committed = [
                e
                for e in JobJournal.replay(journal)
                if e["op"] == "unit" and e["status"] == "done"
            ]
            if committed:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("no unit was journaled before the kill")
    finally:
        # Kill the whole process group: a bare SIGKILL of the daemon would
        # orphan its forked pool workers (which share its cmdline and the
        # inherited listening socket) for the rest of the suite.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

    proc, client = _spawn_daemon(tmp_path, sock, data)
    try:
        restarted = client.job(job["id"])
        assert restarted["state"] in ("queued", "running", "done")
        final = client.wait(job["id"], timeout=600)
        assert final["state"] == "done"
        assert final["completed"] == 3
        other = client.wait(queued["id"], timeout=600)
        assert other["state"] == "done"
        # Units committed before the SIGKILL are answered from the cache on
        # resume, not re-simulated: the restarted daemon executed fewer than
        # all four units (three sweep units plus the queued single run).
        executed = [
            line
            for line in client.metrics().splitlines()
            if line.startswith("repro_service_units_executed_total ")
        ]
        assert executed and int(executed[0].split()[-1]) < 4
        records = client.result(job["id"])["records"]
        assert [r["run"]["seed"] for r in records] == [71, 72, 73]
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0  # graceful drain exits 0


def test_sigterm_drains_gracefully(tmp_path):
    sock = str(tmp_path / "repro.sock")
    data = str(tmp_path / "data")
    proc, client = _spawn_daemon(tmp_path, sock, data)
    job = client.submit(tiny_payload(seed=81))
    assert client.wait(job["id"], timeout=300)["state"] == "done"
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    entries = JobJournal.replay(os.path.join(data, "journal.jsonl"))
    assert any(e["op"] == "state" and e["state"] == "done" for e in entries)


# ------------------------------------------------ parity with the batch CLI


def test_service_record_matches_repro_run_cache(service, client, tmp_path):
    job = client.submit(tiny_payload(seed=91))
    assert client.wait(job["id"], timeout=300)["state"] == "done"
    service_record = client.result(job["id"])
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "run", "fairness", "--seed", "91",
            "--set", "duration=4.0", "--set", "num_tcp=2",
            "--cache", str(tmp_path / "cli-cache.jsonl"), "--json",
        ],
        cwd=str(tmp_path),
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        check=True,
    )
    direct_record = json.loads(out.stdout)
    assert encode_record(pure_record(service_record)) == encode_record(
        pure_record(direct_record)
    )
    # Same machine, same provenance shape: even the full records agree.
    assert encode_record(service_record) == encode_record(direct_record)


def test_service_record_carries_run_telemetry_like_repro_run(tmp_path):
    """With telemetry on, a service record equals the ``repro run`` record
    and ``/metrics`` exposes the fleet (run-level) section."""
    with telemetry.forced(True):  # set before the pool forks; workers inherit it
        svc = ReproService(
            str(tmp_path / "data"), uds=str(tmp_path / "repro.sock"), workers=1
        ).start()
        try:
            client = ServiceClient(svc.endpoint)
            job = client.submit(tiny_payload(seed=93))
            assert client.wait(job["id"], timeout=300)["state"] == "done"
            service_record = client.result(job["id"])
            again = client.submit(tiny_payload(seed=93))
            assert client.wait(again["id"], timeout=60)["sources"]["cached"] == 1
            cached_record = client.result(again["id"])
            metrics = client.metrics()
        finally:
            svc.shutdown(timeout=120)
    section = service_record["run"]["telemetry"]
    assert section["counters"]["engine.events_total"] == service_record["events"]
    assert "spans" not in section
    assert "telemetry" not in cached_record["run"]  # nothing was simulated for it
    stored = [json.loads(line) for line in open(svc.scheduler.store.path)]
    assert stored[0]["run"]["telemetry"] == section
    assert f"repro_engine_events_total_total {service_record['events']}" in metrics
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "run", "fairness", "--seed", "93",
            "--set", "duration=4.0", "--set", "num_tcp=2", "--json",
        ],
        cwd=str(tmp_path),
        env={**os.environ, "PYTHONPATH": SRC_DIR, "REPRO_TELEMETRY": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert encode_record(service_record) == encode_record(json.loads(out.stdout))


# ------------------------------------------------- failures behind the API


def test_deterministic_unit_failure_ends_job_failed(service, client, monkeypatch):
    def broken(spec, seed=None, **kwargs):
        raise RuntimeError("deterministic bug")

    monkeypatch.setattr(sweep_mod, "run_scenario", broken)  # before the pool forks
    job = client.submit(tiny_payload(seed=94))
    final = client.wait(job["id"], timeout=120)
    assert final["state"] == "failed" and final["completed"] == 1
    record = client.result(job["id"])
    assert record["failed"] is True
    assert record["error"] == "RuntimeError: deterministic bug"
    assert record["run"]["seed"] == 94
    assert record["run"]["retries"] == service.scheduler.max_retries
    tallies = counters(service)
    assert tallies["service.units_failed"] == 1
    assert tallies["service.units_retried"] == service.scheduler.max_retries
    assert "service.units_executed" not in tallies


def test_worker_sigkill_mid_job_still_ends_done(service, client, tmp_path, monkeypatch):
    real = sweep_mod.run_scenario
    flag = tmp_path / "kill-once"
    flag.write_text("armed")

    def killer(spec, seed=None, **kwargs):
        if seed == 99 and flag.exists():  # one seed: two workers must not race for the flag
            flag.unlink()
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec, seed=seed, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_scenario", killer)
    job = client.submit(
        {"scenario": "fairness", "seed": 98, "params": dict(TINY), "replications": 3}
    )
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done" and final["completed"] == 3
    assert [r["run"]["seed"] for r in client.result(job["id"])["records"]] == [98, 99, 100]
    tallies = counters(service)
    assert tallies["service.pool_rebuilds"] >= 1
    assert tallies["service.units_retried"] == tallies["service.pool_rebuilds"]
    assert tallies["service.units_executed"] == 3


def test_cancel_skips_units_not_yet_dispatched(tmp_path, monkeypatch):
    """Cancelling a job cancels its queued futures: only what was already in
    flight is ever simulated."""
    calls = tmp_path / "calls"
    go = tmp_path / "go"

    def held(spec, seed=None, **kwargs):
        with open(calls, "a") as fh:
            fh.write(f"{seed}\n")
        while not go.exists():
            time.sleep(0.01)
        return {"scenario": spec.name, "seed": seed, "tfmcc_mean_bps": 1.0}

    monkeypatch.setattr(sweep_mod, "run_scenario", held)
    svc = ReproService(
        str(tmp_path / "data"), uds=str(tmp_path / "repro.sock"), workers=1
    ).start()
    try:
        client = ServiceClient(svc.endpoint)
        job = client.submit(
            {"scenario": "fairness", "seed": 200, "params": dict(TINY), "replications": 9}
        )
        deadline = time.monotonic() + 30
        while not calls.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = svc.scheduler.stats()
        assert stats["inflight_tasks"] + stats["pending_tasks"] == 9
        assert client.cancel(job["id"])["cancelled"] is True
        go.write_text("")
        after = client.submit(tiny_payload(seed=300))
        assert client.wait(after["id"], timeout=120)["state"] == "done"
    finally:
        svc.shutdown(timeout=120)
    simulated = [int(seed) for seed in calls.read_text().split()]
    assert len(simulated) == stats["inflight_tasks"] + 1  # the window, then seed 300
    assert simulated[-1] == 300


def test_end_to_end_concurrent_clients(service):
    """One long sweep streams progress while a cached run answers instantly."""
    warm = ServiceClient(service.endpoint)
    job = warm.submit(tiny_payload(seed=95))
    warm.wait(job["id"], timeout=300)

    sweeper = ServiceClient(service.endpoint)
    sweep_job = sweeper.submit(
        {
            "scenario": "fairness",
            "seed": 96,
            "params": dict(SLOW),
            "grid": {"num_tcp": [1, 2]},
        }
    )
    executed_before = counters(service)["service.units_executed"]
    quick = ServiceClient(service.endpoint)
    quick_job = quick.submit(tiny_payload(seed=95))
    final = quick.wait(quick_job["id"], timeout=60)
    assert final["state"] == "done" and final["sources"]["cached"] == 1
    assert counters(service)["service.units_executed"] == executed_before
    assert sweeper.job(sweep_job["id"])["state"] in ("queued", "running")

    events = list(sweeper.watch(sweep_job["id"]))
    unit_progress = [d["completed"] for e, d in events if e == "unit"]
    assert unit_progress == [1, 2]
    assert sweeper.job(sweep_job["id"])["state"] == "done"


# ------------------------------------------------------------------ metrics


def test_metrics_exposition(service, client):
    job = client.submit(tiny_payload(seed=97))
    client.wait(job["id"], timeout=300)
    text = client.metrics()
    assert "# TYPE repro_service_units_executed_total counter" in text
    assert "repro_service_units_executed_total 1" in text
    assert "repro_service_jobs_active" in text  # gauges ride along


# ----------------------------------------------------- cache file locking


def _cache_writer(path, start):
    from repro.scenarios.cache import ResultCache

    cache = ResultCache(path)
    for i in range(start, start + 25):
        cache.put(f"fp{i:04d}", {"value": i})


def test_result_cache_concurrent_processes_keep_index_valid(tmp_path):
    """Parallel writers under the advisory flock never corrupt the index."""
    import multiprocessing

    path = str(tmp_path / "cache.jsonl")
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_cache_writer, args=(path, i * 25)) for i in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]  # all parse
    assert len(lines) == 100
    cache = ResultCache(path)
    assert len(cache) == 100
    assert cache.get("fp0000") == {"value": 0}
    assert os.path.exists(path + ".lock")
