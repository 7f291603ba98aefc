"""The shared run executor, driven directly.

Cache → coalesce → dispatch → retry → rebuild is written once, in
``repro.scenarios.executor``; sweep, service, report and ``repro run`` are
its clients and are tested through their own suites.  These tests pin the
executor's contract with a fake ``run_scenario`` (patched into the sweep
module before any pool forks, so workers inherit it) whose records carry the
pid that produced them.
"""

import ast
import dataclasses
import importlib
import inspect
import multiprocessing
import os
import pathlib
import re
import signal
import sys
import threading
import time
from concurrent.futures import Future

import pytest

import repro
from repro.scenarios import ResultCache, RunExecutor, SweepRun, pure_record
from repro.scenarios.executor import WINDOW

sweep_mod = sys.modules["repro.scenarios.sweep"]

PARAMS = {"duration": 4.0, "num_tcp": 1}


def unit(seed, index=0):
    return SweepRun(index=index, seed=seed, params=dict(PARAMS), scenario="fairness")


def wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} never appeared")
        time.sleep(0.01)


@pytest.fixture
def fake(tmp_path, monkeypatch):
    """Patch in a fake simulator; returns its control handle.

    Every call appends ``seed pid`` to ``calls``.  A seed listed in
    ``fail`` raises; one with a ``raise-<seed>`` / ``kill-<seed>`` file does
    so once (the file is consumed); every call waits for ``go`` when a
    ``hold`` file exists.
    """

    class Control:
        calls = tmp_path / "calls"
        hold = tmp_path / "hold"
        go = tmp_path / "go"
        fail = set()

        def arm(self, kind, seed):
            (tmp_path / f"{kind}-{seed}").write_text("armed")

        def seeds(self):
            if not self.calls.exists():
                return []
            return [int(line.split()[0]) for line in self.calls.read_text().splitlines()]

        def pids(self):
            return {int(line.split()[1]) for line in self.calls.read_text().splitlines()}

    control = Control()

    def run_scenario(spec, seed=None, **_kwargs):
        with open(control.calls, "a") as fh:
            fh.write(f"{seed} {os.getpid()}\n")
        if control.hold.exists():
            wait_for(control.go)
        for kind in ("raise", "kill"):
            flag = tmp_path / f"{kind}-{seed}"
            if flag.exists():
                flag.unlink()
                if kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("transient")
        if seed in control.fail:
            raise RuntimeError("deterministic bug")
        return {"scenario": spec.name, "seed": seed, "pid": os.getpid()}

    monkeypatch.setattr(sweep_mod, "run_scenario", run_scenario)
    return control


def test_cache_hit_is_answered_without_simulating(tmp_path, fake):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    with RunExecutor(cache=cache) as executor:
        cold = executor.submit(unit(1)).result()
        warm = executor.submit(unit(1, index=7)).result()
    assert (cold.source, warm.source) == ("executed", "cached")
    assert fake.seeds() == [1]
    assert warm.record == cold.record and warm.attempts == 0
    stamped = warm.stamp(unit(1, index=7))
    assert stamped["run"]["index"] == 7
    assert stamped["run"]["fingerprint"] == cold.fingerprint
    assert pure_record(stamped) == cold.record


def test_cache_hit_is_decoded_outside_the_executor_lock(tmp_path, fake):
    """Handler threads must not queue behind one another's cache hits."""
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    lock_was_free = []

    def probe(executor):
        got = executor._lock.acquire(timeout=5)
        lock_was_free.append(got)
        if got:
            executor._lock.release()

    with RunExecutor(cache=cache) as executor:
        executor.submit(unit(1)).result()
        real_get = cache.get

        def get(key):
            other = threading.Thread(target=probe, args=(executor,))
            other.start()
            other.join(timeout=10)
            return real_get(key)

        cache.get = get
        assert executor.submit(unit(1)).result().source == "cached"
    assert lock_was_free == [True]


def test_unit_settled_between_lookup_and_lock_is_not_simulated_again(tmp_path, fake):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    with RunExecutor(cache=cache) as executor:
        executor.submit(unit(1)).result()
        real_get = cache.get
        lookups = []

        def get(key):  # the first lookup comes just too early to see the entry
            lookups.append(key)
            return None if len(lookups) == 1 else real_get(key)

        cache.get = get
        again = executor.submit(unit(1)).result()
    assert again.source == "cached" and len(lookups) == 2
    assert fake.seeds() == [1]


def test_one_job_runs_inline_and_spawns_no_process(fake):
    with RunExecutor(jobs=1) as executor:
        outcome = executor.submit(unit(1)).result()
        assert executor.window == 1
    assert outcome.record["pid"] == os.getpid()
    assert multiprocessing.active_children() == []


def test_isolated_single_job_runs_in_a_worker(fake):
    with RunExecutor(jobs=1, isolated=True) as executor:
        outcome = executor.submit(unit(1)).result(timeout=60)
    assert outcome.record["pid"] != os.getpid()


def test_same_fingerprint_shares_one_simulation(fake):
    fake.hold.write_text("")
    with RunExecutor(jobs=2) as executor:
        first = executor.submit(unit(5, index=0))
        wait_for(fake.calls)  # the simulation is in flight...
        second = executor.submit(unit(5, index=1))  # ...when its twin arrives
        fake.go.write_text("")
        a, b = first.result(timeout=60), second.result(timeout=60)
    assert fake.seeds() == [5]
    assert (a.source, b.source) == ("executed", "coalesced")
    assert a.record == b.record and b.wall == 0.0
    assert a.stamp(unit(5, 0))["run"]["index"] == 0
    assert b.stamp(unit(5, 1))["run"]["index"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_failure_is_retried_where_it_ran(fake, jobs):
    fake.arm("raise", 3)
    with RunExecutor(jobs=jobs, max_retries=2) as executor:
        outcome = executor.submit(unit(3)).result(timeout=60)
    assert outcome.error is None and outcome.attempts == 2
    assert fake.seeds() == [3, 3]
    assert (os.getpid() in fake.pids()) == (jobs == 1)  # pooled retries stay pooled


@pytest.mark.parametrize("jobs", [1, 2])
def test_terminal_failure_after_max_retries(fake, jobs):
    fake.fail.add(4)
    with RunExecutor(jobs=jobs, max_retries=1) as executor:
        bad = executor.submit(unit(4)).result(timeout=60)
        good = executor.submit(unit(6)).result(timeout=60)  # the executor lives on
    assert bad.record is None and bad.attempts == 2
    assert bad.error == "RuntimeError: deterministic bug"
    assert fake.seeds() == [4, 4, 6]
    entry = bad.stamp(unit(4, index=9))
    assert entry["failed"] is True and entry["error"] == bad.error
    assert entry["run"]["index"] == 9 and entry["run"]["retries"] == 1
    assert good.error is None


def test_killed_worker_rebuilds_the_pool_and_resubmits_survivors(fake):
    fake.arm("kill", 12)
    with RunExecutor(jobs=2, max_retries=2) as executor:
        futures = [executor.submit(unit(seed)) for seed in (10, 11, 12, 13, 14)]
        outcomes = [future.result(timeout=120) for future in futures]
        rebuilds = executor.pool_rebuilds
    assert [o.error for o in outcomes] == [None] * 5
    assert [o.record["seed"] for o in outcomes] == [10, 11, 12, 13, 14]
    assert rebuilds >= 1
    # Each rebuild charges exactly one unit (the first broken future to
    # report); the other futures of the dead pool are stale and ignored.
    assert sum(o.attempts - 1 for o in outcomes) == rebuilds


def test_unit_that_always_kills_its_worker_fails_alone(fake, monkeypatch):
    real = sweep_mod.run_scenario

    def poisonous(spec, seed=None, **kwargs):
        if seed == 21:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(spec, seed=seed, **kwargs)

    monkeypatch.setattr(sweep_mod, "run_scenario", poisonous)
    with RunExecutor(jobs=1, max_retries=1, isolated=True) as executor:
        bad = executor.submit(unit(21))
        good = executor.submit(unit(22))
        assert "worker process died" in bad.result(timeout=120).error
        assert good.result(timeout=120).error is None
        assert executor.pool_rebuilds == 2


def test_stale_generation_callbacks_are_ignored(fake):
    with RunExecutor(jobs=2) as executor:
        executor.submit(unit(1)).result(timeout=60)
        stale = Future()
        stale.set_exception(RuntimeError("from a replaced pool"))
        executor._on_done("no-such-fingerprint", executor._generation - 1, stale)
        assert executor.pool_rebuilds == 0 and executor.inflight == 0


def test_cancelled_before_dispatch_is_never_simulated(fake):
    fake.hold.write_text("")
    with RunExecutor(jobs=1, isolated=True) as executor:
        busy = [executor.submit(unit(seed)) for seed in range(30, 30 + WINDOW)]
        queued = executor.submit(unit(40))
        kept = executor.submit(unit(41))
        assert executor.pending == 2 and executor.inflight == WINDOW
        assert queued.cancel() is True
        assert busy[0].cancel() is False  # dispatched: no longer cancellable
        fake.go.write_text("")
        assert kept.result(timeout=60).error is None
        assert [f.result(timeout=60).error for f in busy] == [None] * WINDOW
    assert queued.cancelled()
    assert 40 not in fake.seeds() and 41 in fake.seeds()


def test_map_is_ordered_and_runs_a_window_ahead(fake):
    with RunExecutor(jobs=2) as executor:
        outcomes = executor.map(unit(seed) for seed in range(50, 80))
        first = next(outcomes)
        assert first.record["seed"] == 50
        assert len(set(fake.seeds())) <= executor.window + 1
        assert [o.record["seed"] for o in outcomes] == list(range(51, 80))


def test_close_cancels_queued_units_and_refuses_new_ones(fake):
    fake.hold.write_text("")
    executor = RunExecutor(jobs=1, isolated=True)
    futures = [executor.submit(unit(seed)) for seed in range(60, 60 + WINDOW + 2)]
    wait_for(fake.calls)
    # Released only once close() is waiting, so nothing queued gets dispatched.
    threading.Timer(0.3, fake.go.write_text, args=("",)).start()
    assert executor.close(wait=True, timeout=60) is True
    assert [f.cancelled() for f in futures] == [False] * WINDOW + [True, True]
    assert all(f.done() for f in futures)
    assert executor.submit(unit(99)).cancelled()
    assert 99 not in fake.seeds()


# ------------------------------------------------- the copies cannot grow back


def package_sources():
    root = pathlib.Path(repro.__file__).parent
    return {str(p.relative_to(root)): p.read_text() for p in root.rglob("*.py")}


def test_no_parallel_tree_of_hand_built_experiments():
    """One place wires topologies and flows.  The ``experiments`` package of
    hand-built drivers is gone; only the builder, the protocol and engine
    factories and the session may instantiate the wiring classes, so an
    experiment stays a spec that can be swept, cached and served."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(repro.__name__ + ".experiments")
    allowed = ("scenarios/build.py", "protocols/", "engines/", "session.py")
    wiring = re.compile(r"(?<!class )\b(Network|TFMCCSession|TCPRenoSender)\(")
    sources = sorted(package_sources().items())
    assert [n for n, text in sources if not n.startswith(allowed) and wiring.search(text)] == []


def test_one_spelling_for_traffic_and_for_link_loss():
    """``flows`` is the only traffic field of a spec and ``channel`` the only
    loss seam below it: the per-family flow classes, the views derived from
    them and the links' second loss-model slot are gone."""
    from repro.scenarios import ScenarioSpec
    from repro.simulator.link import Link
    from repro.simulator.topology import Network

    assert {f.name for f in dataclasses.fields(ScenarioSpec)} == {
        "name", "duration", "topology", "flows", "metrics", "dynamics", "description", "engine"
    }  # fmt: skip
    for function in (Link.__init__, Network.add_link, Network.add_duplex_link):
        parameters = inspect.signature(function).parameters
        assert not [name for name in parameters if name.startswith("loss_model")], function
    gone = re.compile(
        r"\b(TfmccFlowSpec|TcpFlowSpec|BackgroundFlowSpec|_legacy_views|_replace_spec)\b|loss_model"
    )
    assert [name for name, text in sorted(package_sources().items()) if gone.search(text)] == []


def test_one_ruler_and_one_event_loop(capsys):
    """Performance is measured by the ledger (``benchmarks/ledger``) alone:
    the ``repro bench`` harness, its absolute-seconds baselines and the
    engine's hand-synchronised instrumented loop are gone."""
    from repro.cli import main
    from repro.simulator.engine import Simulator

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(repro.__name__ + ".bench")
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2 and "invalid choice: 'bench'" in capsys.readouterr().err
    gone = re.compile(r"BENCH_|perf/baseline")
    assert [name for name, text in sorted(package_sources().items()) if gone.search(text)] == []
    assert not hasattr(Simulator, "_run_instrumented")


def test_execution_machinery_exists_exactly_once():
    """One pool, one dead-worker handler, one place that builds ``run`` blocks."""
    sources = package_sources()

    def sites(needle):
        return [name for name, text in sorted(sources.items()) for _ in range(text.count(needle))]

    assert sites("ProcessPoolExecutor(") == ["scenarios/executor.py"]
    assert sites("except BrokenProcessPool") == ["scenarios/executor.py"]
    assert sites("multiprocessing.Pool(") == []

    stampers = set()
    for name, text in sources.items():
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                keys = {
                    key.value
                    for key in getattr(node, "keys", [])
                    if isinstance(key, ast.Constant)
                }
                if isinstance(node, ast.Dict) and {"index", "seed", "fingerprint"} <= keys:
                    stampers.add((name, function.name))
    assert stampers == {
        ("scenarios/sweep.py", "stamp_record"),
        ("scenarios/sweep.py", "failure_record"),
    }
