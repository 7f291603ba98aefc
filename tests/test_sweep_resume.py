"""Orchestration tests: sweep resume, sharding, result cache, fault tolerance.

Covers the sweep orchestrator's acceptance properties:

* spec fingerprints are canonical and stable across processes,
* records stream to the store per completion (O(1) memory, crash-safe),
* an interrupted sweep (controlled stop or SIGKILL) resumes to a store
  byte-identical to an uninterrupted run; a completed sweep re-run is a no-op,
* a warm result-cache re-run performs zero simulations yet writes the same
  bytes,
* the manifest is a checkpoint: saved O(1) times for a sweep of instant
  units, equal to the store after every exit short of a kill and never ahead
  of it after one,
* the result cache keeps entries encoded: every hit is a fresh object, equal
  whether the entry was put by this process or read from the file,
* the union of shard stores compacts to exactly the unsharded sweep,
* a failing run is retried and finally recorded as a failure entry without
  aborting the sweep; a killed worker only breaks (and rebuilds) its pool.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cli import main as cli_main
from repro.scenarios import (
    ReceiverSpec,
    ResultCache,
    ResultStore,
    SweepManifest,
    SweepRunner,
    compact_stores,
    fingerprint,
    get_scenario,
    manifest_path,
)
from repro.scenarios.cache import canonical_json, fingerprint_spec
from repro.scenarios.executor import WINDOW
from repro.scenarios.sweep import heartbeat_path

# The module whose ``run_scenario`` the worker entry point calls: patching it
# (before a pool forks) is the seam for injecting failures into runs.
sweep_mod = sys.modules["repro.scenarios.sweep"]

TINY = {"duration": 4.0, "num_tcp": 2}
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def tiny_runner(**kwargs):
    """Three-run fairness sweep (seeds 2, 3, 4), the shared fixture shape."""
    defaults = dict(params=dict(TINY), replications=3, base_seed=2)
    defaults.update(kwargs)
    return SweepRunner("fairness", **defaults)


# -------------------------------------------------------------- fingerprints


def test_fingerprint_is_canonical():
    spec_dict = get_scenario("fairness").spec(**TINY).to_dict()
    fp = fingerprint(spec_dict, 7)
    assert len(fp) == 16
    # A JSON round trip and a different key insertion order do not matter.
    assert fingerprint(json.loads(json.dumps(spec_dict)), 7) == fp
    assert fingerprint(dict(reversed(list(spec_dict.items()))), 7) == fp
    # The seed does.
    assert fingerprint(spec_dict, 8) != fp


def test_fingerprint_spec_equals_the_fingerprint_of_its_dict():
    """The per-spec encoding memo must not change a single fingerprint."""
    spec = get_scenario("fairness").spec(**TINY)
    canonical = hashlib.sha256(
        json.dumps(
            {"seed": 7, "spec": spec.to_dict()}, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    ).hexdigest()[:16]
    assert fingerprint(spec.to_dict(), 7) == canonical
    assert fingerprint_spec(spec, 7) == canonical
    assert fingerprint_spec(spec, 7) == canonical  # now from the memo
    assert fingerprint_spec(spec, 8) == fingerprint(spec.to_dict(), 8) != canonical
    # A derived spec never inherits its parent's encoding.
    longer = spec.with_overrides(duration=9.0)
    assert fingerprint_spec(longer, 7) == fingerprint(longer.to_dict(), 7) != canonical
    # A large spec is not made to carry megabytes of JSON around.
    explicit = tuple(ReceiverSpec(f"dst{i}") for i in range(2000))
    large = get_scenario("scaling").spec(num_receivers=2000)
    large = large.with_overrides(**{"flows.0.receivers": explicit})
    assert fingerprint_spec(large, 7) == fingerprint(large.to_dict(), 7)
    assert "_canonical_json" in vars(spec) and "_canonical_json" not in vars(large)


def test_fingerprint_is_stable_across_processes():
    spec = get_scenario("fairness").spec(**TINY)
    fp = fingerprint_spec(spec, 7)
    code = (
        "from repro.scenarios import get_scenario\n"
        "from repro.scenarios.cache import fingerprint_spec\n"
        "spec = get_scenario('fairness').spec(duration=4.0, num_tcp=2)\n"
        "print(fingerprint_spec(spec, 7))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert out.stdout.strip() == fp


# -------------------------------------------------------------- result cache


def test_result_cache_roundtrip_strips_provenance(tmp_path):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    record = {"a": 1, "nested": {"x": [1, 2]}, "run": {"index": 0, "seed": 9}}
    assert cache.put("k1", record) is True
    assert cache.put("k1", {"a": 999}) is False  # first write wins
    pure = {"a": 1, "nested": {"x": [1, 2]}}
    got = cache.get("k1")
    assert got == pure
    got["nested"]["x"].append(3)  # callers mutate their copy...
    assert cache.get("k1") == pure  # ...never the index
    assert cache.get("missing") is None
    assert cache.hits == 2 and cache.misses == 1
    assert "k1" in cache and len(cache) == 1
    # The file persists across instances (a later invocation warm-starts).
    assert ResultCache(str(tmp_path / "cache.jsonl")).get("k1") == pure


def test_result_cache_tolerates_truncated_trailing_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResultCache(str(path)).put("k1", {"a": 1})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"fingerprint": "k2", "rec')  # writer killed mid-line
    again = ResultCache(str(path))
    assert again.get("k1") == {"a": 1}
    assert "k2" not in again


def test_result_cache_get_is_the_same_from_memory_and_from_disk(tmp_path):
    """Tuples come back as lists and keys as strings, whoever wrote the entry."""
    path = str(tmp_path / "cache.jsonl")
    record = {"pair": (1, 2.5), "by_id": {3: "c", 10: "j"}, "run": {"index": 0}}
    cache = ResultCache(path)
    cache.put("k1", record)
    decoded = {"pair": [1, 2.5], "by_id": {"3": "c", "10": "j"}}
    assert cache.get("k1") == decoded
    assert ResultCache(path).get("k1") == decoded
    assert record["pair"] == (1, 2.5) and "run" in record  # the argument is untouched


def test_result_cache_file_format_is_pinned(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(str(path))
    cache.put("0123456789abcdef", {"b": [1.5, None], "a": {"y": True, "x": "é"}, "run": {}})
    cache.put('odd"key', {"z": 0})
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        '{"fingerprint":"0123456789abcdef",'
        '"record":{"a":{"x":"\\u00e9","y":true},"b":[1.5,null]}}'
    )
    # Every line is the canonical encoding of the whole entry, as before the
    # index kept records encoded.
    assert lines == [
        canonical_json({"fingerprint": "0123456789abcdef",
                        "record": {"a": {"x": "é", "y": True}, "b": [1.5, None]}}),
        canonical_json({"fingerprint": 'odd"key', "record": {"z": 0}}),
    ]
    assert ResultCache(str(path)).get('odd"key') == {"z": 0}


def test_result_cache_loads_lines_it_did_not_write(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        '{"record": {"b": 1, "a": [1, 2]}, "fingerprint": "spaced"}\n'
        '{"fingerprint":"extra","record":{"a":1},"note":"third key"}\n'
        '{"fingerprint": "k2", "rec',  # writer killed mid-line
        encoding="utf-8",
    )
    cache = ResultCache(str(path))
    assert cache.get("spaced") == {"a": [1, 2], "b": 1}
    assert cache.get("extra") == {"a": 1}
    assert "k2" not in cache and len(cache) == 2


def test_result_cache_concurrent_hits_get_distinct_equal_objects(tmp_path):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    cache.put("k1", {"series": list(range(2000)), "nested": {"x": [1, 2]}})
    got = []
    barrier = threading.Barrier(2)

    def reader():
        barrier.wait(timeout=10)
        for _ in range(50):
            got.append(cache.get("k1"))

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 100 and cache.hits == 100
    assert all(record == got[0] for record in got)
    assert len({id(record) for record in got}) == 100
    assert len({id(record["nested"]["x"]) for record in got}) == 100


# ---------------------------------------------------------- streaming writes


def test_records_stream_to_store_per_completion(tmp_path):
    """Every committed run is on disk before the next one starts."""
    store_path = tmp_path / "s.jsonl"
    seen = []

    def progress(done, total, record):
        seen.append((done, total, len(store_path.read_text().splitlines())))

    tiny_runner().execute(store=ResultStore(str(store_path)), progress=progress)
    assert seen == [(1, 3, 1), (2, 3, 2), (3, 3, 3)]


# -------------------------------------------------------------------- resume


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_sweep_resumes_byte_identical(tmp_path, jobs):
    ref = tmp_path / "ref.jsonl"
    tiny_runner(jobs=jobs).execute(store=ResultStore(str(ref)))

    store = tmp_path / "resumable.jsonl"
    tiny_runner(jobs=jobs).execute(store=ResultStore(str(store)), stop_after=1)
    assert len(store.read_text().splitlines()) == 1

    resumed = tiny_runner(jobs=jobs)
    records = resumed.execute(store=ResultStore(str(store)))
    assert store.read_bytes() == ref.read_bytes()
    assert resumed.stats.resumed == 1 and resumed.stats.executed == 2
    assert [r["run"]["index"] for r in records] == [0, 1, 2]

    manifest = SweepManifest.load(manifest_path(str(store)))
    assert manifest is not None
    assert manifest.completed == {0, 1, 2}
    assert manifest.sweep_fingerprint == resumed.fingerprint()


def test_completed_sweep_rerun_is_noop(tmp_path):
    store = tmp_path / "s.jsonl"
    tiny_runner().execute(store=ResultStore(str(store)))
    before = store.read_bytes()

    rerun = tiny_runner()
    records = rerun.execute(store=ResultStore(str(store)))
    assert rerun.stats.executed == 0 and rerun.stats.resumed == 3
    assert store.read_bytes() == before
    assert [r["run"]["index"] for r in records] == [0, 1, 2]


def test_truncated_tail_is_repaired_on_resume(tmp_path):
    ref = tmp_path / "ref.jsonl"
    tiny_runner().execute(store=ResultStore(str(ref)))

    store = tmp_path / "s.jsonl"
    tiny_runner().execute(store=ResultStore(str(store)), stop_after=2)
    with open(store, "ab") as fh:
        fh.write(b'{"tfmcc_mean_bps": 123, "run": {"inde')  # killed mid-write

    resumed = tiny_runner()
    resumed.execute(store=ResultStore(str(store)))
    assert resumed.stats.resumed == 2
    assert store.read_bytes() == ref.read_bytes()


def test_resuming_a_different_sweep_raises(tmp_path):
    store = tmp_path / "s.jsonl"
    tiny_runner().execute(store=ResultStore(str(store)), stop_after=1)
    with pytest.raises(ValueError, match="different sweep"):
        tiny_runner(base_seed=99).execute(store=ResultStore(str(store)))


# --------------------------------------------------------------------- cache


def test_warm_cache_rerun_runs_zero_simulations(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    cold_store = tmp_path / "cold.jsonl"
    tiny_runner().execute(store=ResultStore(str(cold_store)), cache=cache)

    def boom(*args, **kwargs):  # a warm re-run must never reach the simulator
        raise AssertionError("warm cached re-run simulated a run")

    monkeypatch.setattr(sweep_mod, "run_scenario", boom)
    warm_store = tmp_path / "warm.jsonl"
    warm = tiny_runner()
    warm.execute(store=ResultStore(str(warm_store)), cache=cache)
    assert warm.stats.executed == 0 and warm.stats.cached == 3
    assert warm_store.read_bytes() == cold_store.read_bytes()


def test_warm_sweep_looks_up_only_its_window(tmp_path, monkeypatch):
    """Cache hits are answered inside the bounded window, not all up front."""
    monkeypatch.setattr(sweep_mod, "run_scenario", instant)
    path = str(tmp_path / "cache.jsonl")
    tiny_runner(replications=50).execute(cache=ResultCache(path), collect=False)
    for jobs in (1, 2):
        cache = ResultCache(path)
        runner = tiny_runner(replications=50, jobs=jobs)
        store = ResultStore(str(tmp_path / f"warm{jobs}.jsonl"))
        runner.execute(store=store, cache=cache, stop_after=1, collect=False)
        assert runner.stats.cached == 1 and runner.stats.executed == 0
        assert cache.hits <= (1 if jobs == 1 else jobs * WINDOW) + 1


# ------------------------------------------------------- manifest checkpoints


def instant(spec, seed=None, **kwargs):
    return {"scenario": spec.name, "seed": seed, "tfmcc_mean_bps": 1.0}


def count_saves(monkeypatch):
    saves = []
    real = SweepManifest.save

    def counted(self):
        saves.append(len(self.completed))
        real(self)

    monkeypatch.setattr(SweepManifest, "save", counted)
    return saves


@pytest.mark.parametrize("units", [48, 192])
def test_all_cached_sweep_saves_the_manifest_a_constant_number_of_times(
    tmp_path, monkeypatch, units
):
    monkeypatch.setattr(sweep_mod, "run_scenario", instant)
    cache_path = str(tmp_path / "cache.jsonl")
    tiny_runner(replications=units).execute(cache=ResultCache(cache_path), collect=False)

    saves = count_saves(monkeypatch)
    warm = tiny_runner(replications=units)
    store = tmp_path / "warm.jsonl"
    warm.execute(store=ResultStore(str(store)), cache=ResultCache(cache_path), collect=False)
    assert warm.stats.cached == units and warm.stats.executed == 0
    # Once at the start, once on the way out, and at most one CHECKPOINT_S tick
    # in between however many units were committed (it was units + 2).
    assert saves[0] == 0 and saves[-1] == units and len(saves) <= 3
    manifest = SweepManifest.load(manifest_path(str(store)))
    assert manifest.completed == set(range(units)) and manifest.done


def test_checkpoint_interval_zero_saves_after_every_unit(tmp_path, monkeypatch):
    """The interval is all that changed: at zero every commit checkpoints."""
    monkeypatch.setattr(sweep_mod, "run_scenario", instant)
    monkeypatch.setattr(sweep_mod, "CHECKPOINT_S", 0.0)
    saves = count_saves(monkeypatch)
    store = tmp_path / "s.jsonl"
    on_disk = []

    def progress(done, total, record):
        on_disk.append(len(SweepManifest.load(manifest_path(str(store))).completed))

    tiny_runner(replications=12).execute(
        store=ResultStore(str(store)), progress=progress, collect=False
    )
    assert saves == [0] + list(range(1, 13)) + [12]
    assert on_disk == list(range(1, 13))


def assert_manifest_agrees_with_store_and_heartbeat(store_path, expected):
    manifest = SweepManifest.load(manifest_path(str(store_path)))
    stored = {r["run"]["index"] for r in ResultStore(str(store_path)).iter_records()}
    with open(heartbeat_path(str(store_path)), encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert manifest.completed == stored == expected
    assert entries[-1]["event"] == "stop"
    assert entries[-1]["completed"] == entries[-2]["completed"] == len(expected)


@pytest.mark.parametrize("raised", [None, RuntimeError, KeyboardInterrupt])
def test_manifest_equals_store_after_every_exit_through_finally(
    tmp_path, monkeypatch, raised
):
    monkeypatch.setattr(sweep_mod, "run_scenario", instant)
    store = tmp_path / "s.jsonl"

    def progress(done, total, record):
        if raised is not None and done == 5:
            raise raised("from the progress callback")

    runner = tiny_runner(replications=12)
    if raised is None:
        runner.execute(store=ResultStore(str(store)), stop_after=5, collect=False)
    else:
        with pytest.raises(raised):
            runner.execute(store=ResultStore(str(store)), progress=progress, collect=False)
    # No CHECKPOINT_S tick fell inside this sweep, so only the save on the
    # way out can have recorded the five runs.
    assert_manifest_agrees_with_store_and_heartbeat(store, set(range(5)))

    resumed = tiny_runner(replications=12)
    resumed.execute(store=ResultStore(str(store)), collect=False)
    assert resumed.stats.resumed == 5 and resumed.stats.executed == 7
    assert_manifest_agrees_with_store_and_heartbeat(store, set(range(12)))


def test_heartbeat_parses_after_a_torn_write_and_a_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_mod, "run_scenario", instant)
    store = tmp_path / "s.jsonl"
    tiny_runner(replications=6).execute(store=ResultStore(str(store)), stop_after=2)
    with open(heartbeat_path(str(store)), "a", encoding="utf-8") as fh:
        fh.write('{"event":"run","ind')  # killed mid-write
    tiny_runner(replications=6).execute(store=ResultStore(str(store)), collect=False)
    with open(heartbeat_path(str(store)), encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert [e["event"] for e in entries].count("start") == 2
    assert entries[-1]["event"] == "stop" and entries[-1]["completed"] == 6


def test_open_log_cuts_a_torn_tail_and_keeps_whole_lines(tmp_path):
    from repro.scenarios.store import open_log

    path = tmp_path / "log.jsonl"
    for content, kept in [
        (b"", b""),
        (b"torn", b""),
        (b'{"a":1}\n', b'{"a":1}\n'),
        (b'{"a":1}\n{"b":', b'{"a":1}\n'),
        (b"x" * 5000 + b"\n" + b"y" * 9000, b"x" * 5000 + b"\n"),
    ]:
        path.write_bytes(content)
        open_log(str(path)).close()
        assert path.read_bytes() == kept


def assert_manifest_within_store(store_path):
    """After a kill the checkpoint may lag the store; it never leads it."""
    manifest = SweepManifest.load(manifest_path(str(store_path)))
    records, _clean_end = ResultStore(str(store_path)).scan_valid()
    assert manifest is not None
    assert manifest.completed <= {r["run"]["index"] for r in records}


# -------------------------------------------------------------------- shards


def test_shard_union_compacts_to_full_sweep(tmp_path):
    ref = tmp_path / "ref.jsonl"
    tiny_runner().execute(store=ResultStore(str(ref)))

    shard_paths = []
    for i in range(2):
        path = tmp_path / f"shard{i}.jsonl"
        tiny_runner(shard=(i, 2)).execute(store=ResultStore(str(path)))
        shard_paths.append(str(path))
    # index % 2 partitioning: shard 0 owns runs {0, 2}, shard 1 owns {1}.
    assert len((tmp_path / "shard0.jsonl").read_text().splitlines()) == 2
    assert len((tmp_path / "shard1.jsonl").read_text().splitlines()) == 1

    merged = tmp_path / "merged.jsonl"
    assert compact_stores(str(merged), shard_paths) == 3
    assert merged.read_bytes() == ref.read_bytes()

    manifest = SweepManifest.load(manifest_path(str(merged)))
    assert manifest is not None
    assert manifest.completed == {0, 1, 2}
    assert manifest.shard is None


def test_compact_rejects_mismatched_sweeps(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tiny_runner(shard=(0, 2)).execute(store=ResultStore(str(a)))
    tiny_runner(base_seed=50, shard=(1, 2)).execute(store=ResultStore(str(b)))
    with pytest.raises(ValueError, match="fingerprint"):
        compact_stores(str(tmp_path / "m.jsonl"), [str(a), str(b)])


# ----------------------------------------------------------- fault tolerance


def test_transient_failure_is_retried(tmp_path, monkeypatch):
    ref = tmp_path / "ref.jsonl"
    tiny_runner().execute(store=ResultStore(str(ref)))

    real = sweep_mod.run_scenario
    failures = {"left": 1}

    def flaky(spec, seed=None, **kwargs):
        if seed == 3 and failures["left"] > 0:
            failures["left"] -= 1
            raise RuntimeError("transient")
        return real(spec, seed=seed, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_scenario", flaky)
    runner = tiny_runner()
    store = tmp_path / "s.jsonl"
    runner.execute(store=ResultStore(str(store)))
    assert runner.stats.retried == 1 and runner.stats.failed == 0
    assert store.read_bytes() == ref.read_bytes()


def test_flaky_run_is_retried_in_a_worker_not_the_parent(tmp_path, monkeypatch):
    ref = tmp_path / "ref.jsonl"
    tiny_runner().execute(store=ResultStore(str(ref)))

    real = sweep_mod.run_scenario
    pids = tmp_path / "pids"
    flag = tmp_path / "fail-once"
    flag.write_text("armed")

    def flaky(spec, seed=None, **kwargs):
        if seed == 3:
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if flag.exists():
                flag.unlink()
                raise RuntimeError("transient")
        return real(spec, seed=seed, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_scenario", flaky)
    runner = tiny_runner(jobs=2)
    store = tmp_path / "s.jsonl"
    runner.execute(store=ResultStore(str(store)))
    attempts = [int(pid) for pid in pids.read_text().split()]
    assert len(attempts) == 2 and os.getpid() not in attempts
    assert runner.stats.retried == 1 and runner.stats.failed == 0
    assert store.read_bytes() == ref.read_bytes()


def test_terminal_failure_is_recorded_and_not_rerun(tmp_path, monkeypatch):
    real = sweep_mod.run_scenario

    def broken(spec, seed=None, **kwargs):
        if seed == 3:
            raise RuntimeError("deterministic bug")
        return real(spec, seed=seed, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_scenario", broken)
    runner = tiny_runner(max_retries=1)
    store = tmp_path / "s.jsonl"
    records = runner.execute(store=ResultStore(str(store)))
    assert runner.stats.failed == 1 and runner.stats.retried == 1
    assert runner.stats.executed == 2

    entry = records[1]
    assert entry["failed"] is True
    assert "deterministic bug" in entry["error"]
    assert entry["run"]["index"] == 1 and entry["run"]["seed"] == 3
    manifest = SweepManifest.load(manifest_path(str(store)))
    assert manifest.failed == {1: "RuntimeError: deterministic bug"}

    # A deterministic failure would only fail again: resume treats the
    # failure entry as completed instead of retrying it forever.
    rerun = tiny_runner(max_retries=1)
    rerun.execute(store=ResultStore(str(store)))
    assert rerun.stats.resumed == 3 and rerun.stats.executed == 0


def test_killed_worker_pool_is_rebuilt(tmp_path, monkeypatch):
    """SIGKILLing a worker mid-run breaks only its pool, never the sweep."""
    ref = tmp_path / "ref.jsonl"
    tiny_runner(jobs=2).execute(store=ResultStore(str(ref)))

    real = sweep_mod.run_scenario
    flag = tmp_path / "kill-once"
    flag.write_text("armed")

    def killer(spec, seed=None, **kwargs):
        if seed == 3 and flag.exists():
            flag.unlink()
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec, seed=seed, **kwargs)

    # Pool workers are forked, so they inherit the patched module.
    monkeypatch.setattr(sweep_mod, "run_scenario", killer)
    runner = tiny_runner(jobs=2)
    store = tmp_path / "s.jsonl"
    runner.execute(store=ResultStore(str(store)))
    assert runner.stats.retried >= 1 and runner.stats.failed == 0
    assert store.read_bytes() == ref.read_bytes()


# ----------------------------------------------------------------------- CLI


CLI_ARGS = [
    "sweep",
    "fairness",
    "--reps",
    "3",
    "--seed",
    "2",
    "--set",
    "duration=4.0",
    "--set",
    "num_tcp=2",
    "--quiet",
]


def test_cli_sigkill_then_resume_byte_identical(tmp_path):
    ref = tmp_path / "ref.jsonl"
    assert cli_main(CLI_ARGS + ["--out", str(ref)]) == 0

    store = tmp_path / "s.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + CLI_ARGS + ["--out", str(store)],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Kill -9 as soon as the first record lands, i.e. mid-sweep.
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            if store.exists() and store.read_bytes().count(b"\n") >= 1:
                break
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait()
    lines_before = store.read_bytes().count(b"\n")
    assert lines_before >= 1
    assert_manifest_within_store(store)

    assert cli_main(CLI_ARGS + ["--out", str(store)]) == 0
    assert store.read_bytes() == ref.read_bytes()


WIRELESS_CLI_ARGS = [
    "sweep",
    "wireless_last_hop",
    "--reps",
    "3",
    "--seed",
    "2",
    "--set",
    "duration=5.0",
    "--set",
    "snr_db=12.5",
    "--quiet",
]


def test_cli_sigkill_then_resume_wireless_sweep_byte_identical(tmp_path):
    """Resume-after-SIGKILL must hold for channel-model runs too: the
    snr_per loss draws, channel trace summary and per-cause drop breakdown
    are all re-derived from the spec on resume, never from worker state."""
    ref = tmp_path / "ref.jsonl"
    assert cli_main(WIRELESS_CLI_ARGS + ["--out", str(ref)]) == 0
    # The reference runs must have exercised the wireless channel.
    assert all(
        json.loads(line)["links"]["channel_drops"]["per"] > 0
        for line in ref.read_text().splitlines()
    )

    store = tmp_path / "s.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + WIRELESS_CLI_ARGS + ["--out", str(store)],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Kill -9 as soon as the first record lands, i.e. mid-sweep.
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            if store.exists() and store.read_bytes().count(b"\n") >= 1:
                break
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait()
    assert store.read_bytes().count(b"\n") >= 1
    assert_manifest_within_store(store)

    assert cli_main(WIRELESS_CLI_ARGS + ["--out", str(store)]) == 0
    assert store.read_bytes() == ref.read_bytes()


def test_cli_stop_after_then_resume(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    assert cli_main(CLI_ARGS + ["--out", str(ref)]) == 0
    store = tmp_path / "s.jsonl"
    assert cli_main(CLI_ARGS + ["--out", str(store), "--stop-after", "1"]) == 0
    assert "re-run" in capsys.readouterr().err  # points the user at resume
    assert len(store.read_text().splitlines()) == 1
    assert cli_main(CLI_ARGS + ["--out", str(store)]) == 0
    assert store.read_bytes() == ref.read_bytes()


def test_cli_shard_and_compact(tmp_path):
    ref = tmp_path / "ref.jsonl"
    assert cli_main(CLI_ARGS + ["--out", str(ref)]) == 0
    for i in range(2):
        shard_out = str(tmp_path / f"shard{i}.jsonl")
        assert cli_main(CLI_ARGS + ["--shard", f"{i}/2", "--out", shard_out]) == 0
    merged = tmp_path / "merged.jsonl"
    rc = cli_main(
        [
            "sweep",
            "--compact",
            str(tmp_path / "shard0.jsonl"),
            str(tmp_path / "shard1.jsonl"),
            "--out",
            str(merged),
        ]
    )
    assert rc == 0
    assert merged.read_bytes() == ref.read_bytes()


def test_cli_sweep_argument_errors(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(CLI_ARGS + ["--shard", "bogus"])
    with pytest.raises(SystemExit):
        cli_main(["sweep", "--compact", str(tmp_path / "a.jsonl")])  # no --out
    with pytest.raises(SystemExit):
        cli_main(["sweep"])  # no scenario and no --compact
    # Out-of-range shard index is a plain usage error (exit code 2).
    assert cli_main(CLI_ARGS + ["--shard", "3/2"]) == 2
