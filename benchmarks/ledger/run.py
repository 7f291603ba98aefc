#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--seed S] [--out DIR]
        every workload untraced, then traced; prints every metric with its
        unit and writes DIR/LEDGER.json + DIR/trace.jsonl (default
        results/ledger/)
    python3 benchmarks/ledger/run.py --workload W --seed S --seconds N --trace 0|1
        one run of one workload; the last line printed is the result object
        BENCHMARK.json's contract describes
    python3 benchmarks/ledger/run.py --compare A/ B/
        verdict per end-to-end metric and workload over two sets of
        LEDGER.json files; exits 1 on any ``regressed``

This process only generates load and does arithmetic: every workload runs in
a fresh child interpreter, so set-up time and peak memory are per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import ledger_core as core
from ledger_trace import write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(core.REPO_ROOT, "results", "ledger")
#: One run may take 180 s; a child that overstays is killed and the run fails.
CHILD_TIMEOUT = 170.0
SETUP_PROBES = 3
STARTUP_REPEATS = 3


def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [core.SOURCE_DIR, env.get("PYTHONPATH", "")]))
    env.pop("REPRO_TELEMETRY", None)  # end-to-end runs have telemetry off
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, work: str,
              setup_only: bool = False) -> Dict[str, Any]:
    """One fresh interpreter for one workload; returns the samples it wrote."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", work, "--result", result_path,
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    # The child's own prints go to stderr: stdout belongs to the result line.
    done = subprocess.run(
        command, env=child_environment(), stdout=sys.stderr, timeout=CHILD_TIMEOUT, check=False
    )
    if done.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"workload {workload} child exited {done.returncode} without a result")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def timed_command(args: Sequence[str]) -> float:
    # No timeout: ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms,
    # which would quantise these short times.
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *args], env=child_environment(), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def startup_probes() -> Dict[str, float]:
    """What every command pays before its first line of work (``cli.*``)."""
    counted = subprocess.run(
        [sys.executable, "-c", "import sys, repro.cli; print(len(sys.modules))"],
        env=child_environment(), check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    repeat = range(STARTUP_REPEATS)
    return {
        "cli.interpreter_s": core.median([timed_command(["-c", "pass"]) for _ in repeat]),
        "cli.import_s": core.median([timed_command(["-c", "import repro.cli"]) for _ in repeat]),
        "cli.modules_imported": int(counted.stdout.strip()),
        "cli.list_s": core.median([timed_command(["-m", "repro", "list"]) for _ in repeat]),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 startup: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """One run of one workload in the shape LEDGER.json keeps."""
    work = os.path.join(DEFAULT_OUT, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        probes = []
        if not trace:
            probes = [
                run_child(workload, seed, seconds, 0, work, setup_only=True)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        elif startup is None:
            startup = startup_probes()
        child = run_child(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = core.count_failures(child)
    run = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": child["env"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "correct": attempted > 0 and failed == 0,
        "stats_digest": child["stats_digest"],
        "spans": child["spans"],
    }
    if trace:
        run["metrics"] = core.reduce_per_layer(child, startup or {})
    else:
        run["metrics"] = core.reduce_end_to_end(child, probes)
    return run


# ------------------------------------------------------------------ printing


def print_metrics(run: Dict[str, Any], out: Any) -> None:
    bounds = {name: bound for name, _unit, _better, bound, _definition in core.END_TO_END}
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"== {run['workload']}  seed {run['seed']}  {kind}  "
          f"attempted {run['attempted']} failed {run['failed']}  "
          f"stats_digest {run['stats_digest'][:16]}", file=out)
    for name, metric in run["metrics"].items():
        line = f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}"
        if "spread" in metric:
            line += f"   n={metric['samples']:<4} in-run spread {metric['spread']:.3f}"
            if metric["spread"] > bounds[name]:
                line += f"  > bound {bounds[name]}"
        print(line, file=out)
    if not run["trace"]:
        print(f"  {'failed_share':<36} {run['failed_share']:>16.6g} ratio", file=out)


def result_line(run: Dict[str, Any]) -> str:
    """The contract's result object: exactly these four keys."""
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in run["metrics"].items()
        },
    })


# ------------------------------------------------------------------- ledger


def write_ledger(out_dir: str, seed: int, seconds: float, runs: List[Dict[str, Any]]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    workloads: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        entry = workloads.setdefault(run["workload"], {})
        if run["trace"]:
            write_spans(trace_path, run["spans"])
            entry["per_layer"] = run["metrics"]
        else:
            entry["end_to_end"] = run["metrics"]
            for key in ("attempted", "failed", "failed_share", "correct", "stats_digest"):
                entry[key] = run[key]
    ledger = {
        "schema": 1,
        "seed": seed,
        "seconds": seconds,
        "env": runs[0]["env"] if runs else {},
        "workloads": workloads,
    }
    path = os.path.join(out_dir, "LEDGER.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def full_ledger(seed: int, seconds: float, out_dir: str, names: Sequence[str]) -> int:
    runs = []
    startup = startup_probes()
    for trace in (0, 1):  # every end-to-end number first, with tracing off
        for workload in names:
            run = run_workload(workload, seed, seconds, trace, startup)
            print_metrics(run, sys.stdout)
            runs.append(run)
    path = write_ledger(out_dir, seed, seconds, runs)
    print(f"wrote {path} and {os.path.join(out_dir, 'trace.jsonl')}")
    return 0 if all(run["correct"] for run in runs) else 1


# ------------------------------------------------------------------ compare


def load_ledgers(directory: str) -> List[Dict[str, Any]]:
    """Every ``LEDGER*.json`` under ``directory``, in path order."""
    paths = sorted(
        os.path.join(folder, name)
        for folder, _dirs, names in os.walk(directory)
        for name in names
        if name.startswith("LEDGER") and name.endswith(".json")
    )
    ledgers = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    if not ledgers:
        raise SystemExit(f"no LEDGER*.json under {directory}")
    return ledgers


def metric_values(ledgers: List[Dict[str, Any]], workload: str, name: str) -> List[float]:
    return [
        ledger["workloads"][workload]["end_to_end"][name]["value"]
        for ledger in ledgers
        if name in ledger["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def failed_share(ledgers: List[Dict[str, Any]], workload: str) -> Optional[float]:
    """Operations failed or incorrect / attempted, over all runs of one side."""
    entries = [ledger["workloads"].get(workload, {}) for ledger in ledgers]
    attempted = sum(entry.get("attempted", 0) for entry in entries)
    return sum(entry.get("failed", 0) for entry in entries) / attempted if attempted else None


def compare(base_dir: str, change_dir: str) -> int:
    base, change = load_ledgers(base_dir), load_ledgers(change_dir)
    regressed = 0
    for workload in core.WORKLOADS:
        for name, unit, better, bound, _definition in core.END_TO_END:
            a = metric_values(base, workload, name)
            b = metric_values(change, workload, name)
            if not a or not b:
                continue
            v = core.verdict(a, b, better, bound)
            regressed += v["verdict"] == "regressed"
            print(
                f"{workload:<15} {name:<14} {unit:<5} "
                f"base {v['base']['median']:.5g} [{v['base']['q1']:.5g}, {v['base']['q3']:.5g}] n={v['base']['runs']}  "
                f"change {v['change']['median']:.5g} [{v['change']['q1']:.5g}, {v['change']['q3']:.5g}] n={v['change']['runs']}  "
                f"ratio {v['ratio']:.3f} of base {v['base']['median']:.5g}  "
                f"wins {v['wins']}/{v['pairs']}  bound {bound}  {v['verdict']}"
            )
        a, b = failed_share(base, workload), failed_share(change, workload)
        if a is not None and b is not None:
            result = core.failed_share_verdict(a, b)
            regressed += result == "regressed"
            print(f"{workload:<15} {'failed_share':<14} ratio base {a:.5g}  change {b:.5g}  bound 0  {result}")
    return 1 if regressed else 0


# --------------------------------------------------------------------- main


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(core.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=core.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for LEDGER.json and trace.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    for internal in ("--work", "--result"):
        parser.add_argument(internal, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(core.SOURCE_DIR, "repro")):
        print(f"no program to measure: {core.SOURCE_DIR}/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        from ledger_workloads import child_main

        return child_main(args)
    if args.workload is None:
        return full_ledger(args.seed, args.seconds, args.out or DEFAULT_OUT, list(core.WORKLOADS))
    run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_metrics(run, sys.stdout)
    if args.out:
        write_ledger(args.out, args.seed, args.seconds, [run])
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
