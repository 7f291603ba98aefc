"""Command-line interface: ``python -m repro {list,show,run,sweep}``.

Examples
--------
List the scenario catalogue::

    python -m repro list

Inspect the concrete spec a scenario expands to::

    python -m repro show bursty-loss --set burst_length=16

Run one scenario and append its record to a JSONL file::

    python -m repro run fairness --seed 3 --out results/fairness.jsonl

Override any spec field by dotted path — including per-flow protocol
parameters (``FlowSpec.params``), which makes protocol ablations one flag::

    python -m repro run tfmcc_vs_tfrc --override flows.0.params.max_rtt=0.3

Run a seeded sweep over a parameter grid on 4 worker processes; dotted grid
keys sweep override paths (protocol parameters, topology fields)::

    python -m repro sweep fairness --jobs 4 --grid num_tcp=2,4,8 --reps 4
    python -m repro sweep scaling --grid flows.0.params.max_rtt=0.25,0.5,1.0

Sweeps are resumable (an interrupted sweep continues where it left off when
re-run — a completed one is a no-op), shardable across hosts, and can share
a spec-fingerprint result cache with ``run`` and ``report``::

    python -m repro sweep fairness --reps 64 --out r/fair.jsonl   # Ctrl-C, then re-run
    python -m repro sweep scaling --shard 0/4 --out r/shard0.jsonl
    python -m repro sweep --compact r/shard0.jsonl r/shard1.jsonl --out r/merged.jsonl
    python -m repro sweep fairness --cache results/cache.jsonl

Build the paper-figure datasets/plots and verify them against the models::

    python -m repro report --quick --check

Run the long-running simulation service and talk to it::

    python -m repro serve --uds /tmp/repro.sock --data results/service --jobs 4
    python -m repro submit fairness --seed 3 --server unix:///tmp/repro.sock --wait
    python -m repro status --server unix:///tmp/repro.sock
    python -m repro watch j00001 --server unix:///tmp/repro.sock
    python -m repro cancel j00001 --server unix:///tmp/repro.sock
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import os

# Mirrors repro.report.runner.DEFAULT_OUT_DIR; the report package (and the
# numpy its analysis models need) is imported lazily in cmd_report so the
# rest of the CLI keeps its stdlib-only footprint.
REPORT_OUT_DIR = os.path.join("results", "figures")
from contextlib import nullcontext

from repro import telemetry
from repro.scenarios.cache import ResultCache
from repro.scenarios.executor import RunExecutor
from repro.scenarios.registry import scenarios
from repro.scenarios.store import ResultStore, encode_record
from repro.scenarios.sweep import (
    SweepRun,
    SweepRunner,
    compact_stores,
    heartbeat_path,
    manifest_path,
    run_fingerprint,
    shard_skew,
)


def _parse_value(text: str) -> Any:
    """Parse a CLI parameter value: int, float, bool or bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _run_params(args: argparse.Namespace) -> Dict[str, Any]:
    """The run params named by ``--set``/``--override`` and ``--engine``.

    ``--set`` and ``--override`` are two spellings of one flag, applied in
    command-line order (the later value wins).  A plain key is a scenario
    parameter, a dotted key a spec override path (``SweepRun.resolve_spec``).
    ``--engine`` is ``engine.kind`` and wins over both.
    """
    params: Dict[str, Any] = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --set/--override expects KEY=VALUE, got {item!r}")
        params[key] = _parse_value(value)
    if args.engine:
        params["engine.kind"] = args.engine
    return params


def _named_run(args: argparse.Namespace, seed: int = 1) -> SweepRun:
    """The run ``show``, ``run`` and ``profile`` name with their flags."""
    return SweepRun(index=0, seed=seed, params=_run_params(args), scenario=args.scenario)


def _parse_grid(args: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse repeated ``--grid key=v1,v2,...`` options."""
    grid: Dict[str, List[Any]] = {}
    for item in args:
        key, sep, values = item.partition("=")
        if not sep or not key or not values:
            raise SystemExit(f"error: --grid expects key=v1,v2,..., got {item!r}")
        grid[key] = [_parse_value(v) for v in values.split(",")]
    return grid


def _summarise(record: Dict[str, Any], out=None) -> None:
    out = out if out is not None else sys.stdout
    ratio = record.get("tfmcc_tcp_ratio")
    print(f"scenario : {record['scenario']}  (seed {record['seed']})", file=out)
    print(f"duration : {record['duration']:.1f} s simulated, {record['events']} events", file=out)
    engine = record.get("engine")
    if engine:
        print(
            f"engine   : {engine['kind']}  "
            f"({engine['receivers_cohort']} of {engine['receivers_total']} "
            f"receivers vectorised, {engine['tracer_receivers']} tracers)",
            file=out,
        )
    print(f"tfmcc    : {record['tfmcc_mean_bps'] / 1e3:10.1f} kbit/s (mean over receivers)", file=out)
    if record.get("tcp_mean_bps"):
        print(f"tcp      : {record['tcp_mean_bps'] / 1e3:10.1f} kbit/s (mean over flows)", file=out)
    if record.get("tfrc_mean_bps"):
        tfrc_ratio = record.get("tfmcc_tfrc_ratio")
        suffix = f"  (TFMCC / TFRC = {tfrc_ratio:.2f})" if tfrc_ratio is not None else ""
        print(f"tfrc     : {record['tfrc_mean_bps'] / 1e3:10.1f} kbit/s{suffix}", file=out)
    if ratio is not None:
        print(f"ratio    : {ratio:10.2f}  (TFMCC / TCP)", file=out)
    print(f"fairness : {record['fairness_index']:10.3f}  (Jain index)", file=out)
    if "links" in record:
        links = record["links"]
        down = (
            f", {links['down_drops']} down-link drops" if "down_drops" in links else ""
        )
        print(
            f"loss     : {links['queue_drops']} queue drops, "
            f"{links['random_drops']} random drops{down} "
            f"({links['packets_sent']} packets forwarded)",
            file=out,
        )
    channel = record.get("trace", {}).get("channel")
    if channel:
        drops = record.get("links", {}).get("channel_drops", {})
        causes = ", ".join(f"{v} {k}" for k, v in sorted(drops.items())) or "none"
        per = channel.get("per", {}).get("mean")
        per_part = f"mean sampled PER {per:.3f}, " if per is not None else ""
        print(
            f"channel  : {per_part}drops by cause: {causes}, "
            f"{channel.get('mobility_updates', 0)} mobility updates",
            file=out,
        )
    dynamics = record.get("trace", {}).get("dynamics")
    if dynamics:
        print(
            f"dynamics : {len(dynamics['events'])} scripted events, "
            f"{dynamics['route_rebuilds']} route rebuilds, "
            f"{len(dynamics['clr_switches'])} CLR switches",
            file=out,
        )
    for flow in record["flows"]:
        print(f"  {flow['kind']:>10}  {flow['id']:<24} {flow['avg_bps'] / 1e3:10.1f} kbit/s", file=out)


def cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for factory in scenarios():
        params = ", ".join(f"{k}={v!r}" for k, v in factory.defaults.items())
        rows.append((factory.name, factory.description, params))
    width = max(len(name) for name, _, _ in rows)
    for name, description, params in rows:
        print(f"{name:<{width}}  {description}")
        print(f"{'':<{width}}    parameters: {params}")
    return 0


def _flow_table(spec, out) -> None:
    """Print the unified flow table of a spec (one line per FlowSpec)."""
    print(f"flows ({len(spec.flows)}):", file=out)
    for index, flow in enumerate(spec.flows):
        if flow.receivers:
            endpoint = f"{flow.src} -> {len(flow.receivers)} receiver(s)"
        else:
            endpoint = f"{flow.src} -> {flow.dst}"
        stop = f"{flow.stop:g}" if flow.stop is not None else "end"
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(flow.params.items()))
        print(
            f"  [{index}] {flow.name:<14} {flow.kind:<9} {endpoint:<28} "
            f"t={flow.start:g}..{stop}"
            + (f"  params: {params}" if params else ""),
            file=out,
        )


def cmd_show(args: argparse.Namespace) -> int:
    spec = _named_run(args).resolve_spec()
    print(spec.to_json(indent=2))
    # The table goes to stderr so stdout stays machine-parseable JSON.
    print(f"engine: {spec.engine.kind} (tracers={spec.engine.tracer_receivers})", file=sys.stderr)
    _flow_table(spec, sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    run = _named_run(args, args.seed)
    fingerprint = run_fingerprint(run)  # resolves the spec: bad input fails here
    cache = ResultCache(args.cache) if args.cache else None
    started = time.perf_counter()
    forced = telemetry.forced(True) if args.telemetry else nullcontext()
    with forced, RunExecutor(max_retries=0, cache=cache) as executor:
        outcome = executor.submit(run, fingerprint).result()
    elapsed = time.perf_counter() - started
    if outcome.error is not None:
        raise SystemExit(f"error: run failed: {outcome.error}")
    if outcome.source == "cached":
        print(f"cache hit {fingerprint} in {args.cache}", file=sys.stderr)
    record = outcome.stamp(run)
    if outcome.telemetry is not None and args.telemetry_out:
        with open(args.telemetry_out, "w", encoding="utf-8") as fh:
            json.dump(outcome.telemetry, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"telemetry snapshot written to {args.telemetry_out}", file=sys.stderr)
    if args.out:
        ResultStore(args.out).append(record)
        print(f"appended 1 record to {args.out}", file=sys.stderr)
    if args.json:
        print(encode_record(record))
    else:
        _summarise(record)
        print(f"wall     : {elapsed:10.1f} s", file=sys.stderr)
    return 0


def _parse_shard(text: Optional[str]) -> Optional[tuple]:
    """Parse ``--shard I/N`` into a (i, n) tuple."""
    if text is None:
        return None
    index, sep, count = text.partition("/")
    try:
        if not sep:
            raise ValueError
        return (int(index), int(count))
    except ValueError:
        raise SystemExit(f"error: --shard expects I/N (e.g. 0/4), got {text!r}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.compact:
        if not args.out:
            raise SystemExit("error: --compact requires --out for the merged store")
        count = compact_stores(args.out, args.compact)
        print(
            f"compacted {len(args.compact)} shard store(s) into {args.out} "
            f"({count} records, sorted by run index, duplicates dropped)",
            file=sys.stderr,
        )
        rows = shard_skew(args.compact)
        if rows:
            walls = [row["wall_s"] for row in rows]
            slowest = max(rows, key=lambda row: row["wall_s"])
            retried = sum(row["retried"] for row in rows)
            print(
                f"fleet skew over {len(rows)} shard(s): wall min {min(walls):.1f}s / "
                f"mean {sum(walls) / len(walls):.1f}s / max {max(walls):.1f}s "
                f"(slowest {slowest['path']}), {retried} retries total",
                file=sys.stderr,
            )
            for row in rows:
                print(
                    f"  {row['path']}: {row['completed']}/{row['total']} runs, "
                    f"{row['wall_s']:.1f}s wall, {row['retried']} retried, "
                    f"{row['failed']} failed",
                    file=sys.stderr,
                )
        return 0
    if not args.scenario:
        raise SystemExit("error: a scenario name is required (unless using --compact)")
    grid = _parse_grid(args.grid)
    runner = SweepRunner(
        args.scenario,
        grid=grid,
        params=_run_params(args),
        replications=args.reps,
        base_seed=args.seed,
        jobs=args.jobs,
        shard=_parse_shard(args.shard),
        max_retries=args.retries,
    )
    runs = runner.shard_runs()
    out = args.out or f"results/{args.scenario}-sweep.jsonl"
    if args.fresh:
        for path in (out, manifest_path(out), heartbeat_path(out)):
            if os.path.exists(path):
                os.remove(path)
    cache = ResultCache(args.cache) if args.cache else None
    shard_note = f", shard {args.shard}" if args.shard else ""
    print(
        f"sweep {args.scenario!r}: {len(runs)} runs "
        f"({len(grid) or 'no'} grid axes x {args.reps} replications{shard_note}), "
        f"jobs={args.jobs}, out={out}",
        file=sys.stderr,
    )
    print(f"  heartbeat: {heartbeat_path(out)}", file=sys.stderr)
    started = time.perf_counter()

    def progress(done: int, total: int, record: Dict[str, Any]) -> None:
        if not args.quiet:
            stats = runner.stats
            elapsed = time.perf_counter() - started
            fresh = done - stats.resumed
            eta = elapsed / fresh * (total - done) if fresh > 0 else 0.0
            rate = record.get("tfmcc_mean_bps")
            label = (
                f"tfmcc={rate / 1e3:.1f} kbit/s"
                if rate is not None
                else f"FAILED ({record.get('error', 'unknown')})"
            )
            print(
                f"  [{done}/{total}] seed={record['run']['seed']} "
                f"params={record['run']['params']} {label} "
                f"({elapsed:.1f}s, eta {eta:.0f}s, "
                f"cache {stats.cached} hit / {stats.executed} miss, "
                f"{stats.retried} retried)",
                file=sys.stderr,
            )

    with telemetry.forced(True) if args.telemetry else nullcontext():
        runner.execute(
            store=ResultStore(out),
            progress=progress,
            cache=cache,
            stop_after=args.stop_after,
            collect=False,
        )
    stats = runner.stats
    if args.stop_after is not None and stats.completed < stats.total:
        print(
            f"stopped after {args.stop_after} new run(s): {stats.summary()} — "
            "re-run the same command to resume",
            file=sys.stderr,
        )
    else:
        print(f"completed {stats.summary()}, results in {out}", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry.profile import format_profile, profile_scenario

    spec = _named_run(args, args.seed).resolve_spec()
    if args.quick and spec.duration > 10.0:
        spec = spec.with_overrides(duration=10.0)
    record, snapshot, pstats_text = profile_scenario(
        spec, seed=args.seed, cprofile_path=args.cprofile, top=args.top
    )
    if record.get("failed"):
        print(f"error: profiled run failed: {record.get('error')}", file=sys.stderr)
        return 1
    print(format_profile(args.scenario, args.seed, spec.engine.kind, snapshot))
    if pstats_text:
        print()
        print(pstats_text.rstrip())
        print(f"cProfile stats written to {args.cprofile}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"telemetry snapshot written to {args.json}", file=sys.stderr)
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry.export import snapshot_from_source, to_prometheus

    snapshot = snapshot_from_source(args.source)
    if not snapshot:
        print(f"no telemetry data found in {args.source}", file=sys.stderr)
        return 1
    if args.format == "prom":
        sys.stdout.write(to_prometheus(snapshot, prefix=args.prefix))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import figure_names, run_report, summarise
    from repro.report.figures import FIGURES

    if args.list:
        width = max(len(name) for name in figure_names())
        for name in figure_names():
            figure = FIGURES[name]
            print(f"{name:<{width}}  {figure.paper_figures}: {figure.title}")
        return 0
    # Validate names up front; a try/except around run_report would also
    # swallow KeyErrors raised by genuine bugs inside the figure builds.
    unknown = [name for name in (args.figure or []) if name not in FIGURES]
    if unknown:
        print(
            f"error: unknown figure(s) {unknown}; available: {', '.join(figure_names())}",
            file=sys.stderr,
        )
        return 2
    reports, failures = run_report(
        figures=args.figure or None,
        quick=args.quick,
        check=args.check,
        out_dir=args.out,
        jobs=args.jobs,
        reuse=args.reuse,
        plots=not args.no_plots,
        cache=args.cache,
    )
    print(summarise(reports))
    if failures:
        for failure in failures:
            print(f"report check failed: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ReproService

    service = ReproService(
        data_dir=args.data,
        host=args.host,
        port=args.port,
        uds=args.uds,
        workers=args.jobs,
        max_retries=args.retries,
        verbose=args.verbose,
    )
    return service.run()


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.server)


def _submit_payload(args: argparse.Namespace) -> Dict[str, Any]:
    params = _run_params(args)
    payload: Dict[str, Any] = {"scenario": args.scenario, "seed": args.seed}
    if params:
        payload["params"] = params
    grid = _parse_grid(args.grid)
    if grid:
        payload["grid"] = grid
    if args.reps != 1:
        payload["replications"] = args.reps
    return payload


def _print_job_line(job: Dict[str, Any], out) -> None:
    sources = job.get("sources", {})
    mix = ", ".join(f"{v} {k}" for k, v in sources.items() if v) or "-"
    print(
        f"{job['id']:<8} {job['state']:<10} {str(job.get('scenario')):<22} "
        f"{job['completed']}/{job['units']} units  ({mix})",
        file=out,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        job = client.submit(_submit_payload(args))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"submitted {job['id']} ({job['units']} unit(s)) to {client.server}", file=sys.stderr)
    if not args.wait:
        print(job["id"])
        return 0
    final = client.wait(job["id"], timeout=args.timeout)
    if final["state"] != "done":
        print(f"job {job['id']} finished as {final['state']}", file=sys.stderr)
        return 1
    result = client.result(job["id"])
    records = result["records"] if isinstance(result, dict) and "records" in result else [result]
    if args.json:
        for record in records:
            print(encode_record(record))
    else:
        for record in records:
            _summarise(record)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        if args.job:
            job = client.job(args.job)
            if args.json:
                print(json.dumps(job, indent=2, sort_keys=True))
            else:
                _print_job_line(job, sys.stdout)
            return 0
        jobs = client.jobs()
        if args.json:
            print(json.dumps(jobs, indent=2, sort_keys=True))
            return 0
        health = client.health()
        stats = client.stats()
        print(
            f"service {client.server}: {health['status']}, "
            f"{stats['inflight_tasks']} in flight, {stats['pending_tasks']} pending, "
            f"{stats['cache_entries']} cached records "
            f"({stats['cache_hits']} hits / {stats['cache_misses']} misses)",
            file=sys.stderr,
        )
        for job in jobs:
            _print_job_line(job, sys.stdout)
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        response = client.cancel(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if response.get("cancelled"):
        print(f"cancelled {args.job}", file=sys.stderr)
        return 0
    print(
        f"{args.job} already {response.get('state', 'terminal')}; nothing to cancel",
        file=sys.stderr,
    )
    return 1


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    state = None
    try:
        for event, data in client.watch(args.job, from_seq=args.from_seq):
            if args.json:
                print(json.dumps({"event": event, **data}, sort_keys=True))
            else:
                detail = {k: v for k, v in data.items() if k != "seq"}
                parts = ", ".join(f"{k}={v}" for k, v in sorted(detail.items()))
                print(f"[{data.get('seq', '?')}] {event}: {parts}")
            if event == "state":
                state = data.get("state")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        return 130
    return 0 if state in (None, "done") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TFMCC reproduction: declarative scenarios, runs and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.set_defaults(func=cmd_list)

    # The flags that name a run, shared by show, run, sweep, profile, submit.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument(
        "--set",
        "--override",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="a scenario parameter (num_tcp=4) or, by dotted path, any spec "
        "field (flows.0.params.max_rtt=0.3, topology.bottleneck_bps=2e6); "
        "repeatable, the later value wins",
    )
    run_flags.add_argument(
        "--engine",
        default=None,
        help="simulation engine (shorthand for --set engine.kind=..., and wins "
        "over it): 'exact' (default, per-packet) or 'cohort' (vectorised receivers)",
    )

    p_show = sub.add_parser(
        "show", parents=[run_flags], help="print the JSON spec of a scenario"
    )
    p_show.add_argument("scenario")
    p_show.set_defaults(func=cmd_show)

    p_run = sub.add_parser(
        "run", parents=[run_flags], help="run one scenario and print a summary"
    )
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out", help="append the result record to this JSONL file")
    p_run.add_argument("--json", action="store_true", help="print the raw record as JSON")
    p_run.add_argument(
        "--cache",
        metavar="PATH",
        help="spec-fingerprint result cache (JSONL): reuse a cached record "
        "instead of simulating, insert fresh results",
    )
    p_run.add_argument(
        "--telemetry",
        action="store_true",
        help="collect runtime telemetry; deterministic sections are embedded "
        "under run.telemetry in the record",
    )
    p_run.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write the full telemetry snapshot (incl. wall-clock spans) to "
        "this JSON file (implies nothing unless --telemetry is set)",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[run_flags],
        help="run a seeded parameter sweep (resumable, shardable, cached)",
    )
    p_sweep.add_argument(
        "scenario",
        nargs="?",
        help="registered scenario name (omit only with --compact)",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_sweep.add_argument(
        "--reps", type=int, default=8, help="seeded replications per grid point (default 8)"
    )
    p_sweep.add_argument("--seed", type=int, default=1, help="base seed (run i uses seed+i)")
    p_sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help=(
            "sweep axis; repeat for a cartesian product. Dotted keys sweep "
            "spec override paths (e.g. flows.0.params.max_rtt=0.25,0.5)"
        ),
    )
    p_sweep.add_argument("--out", help="JSONL output path (default results/<scenario>-sweep.jsonl)")
    p_sweep.add_argument("--quiet", action="store_true", help="suppress per-run progress")
    p_sweep.add_argument(
        "--shard",
        metavar="I/N",
        help="execute only runs with index %% N == I (multi-host fan-out; "
        "merge the shard stores afterwards with --compact)",
    )
    p_sweep.add_argument(
        "--cache",
        metavar="PATH",
        help="spec-fingerprint result cache (JSONL): cached runs skip "
        "simulation, fresh results are inserted for later invocations",
    )
    p_sweep.add_argument(
        "--fresh",
        action="store_true",
        help="remove an existing store and manifest instead of resuming them",
    )
    p_sweep.add_argument(
        "--stop-after",
        type=int,
        metavar="N",
        help="commit at most N new runs, then stop (re-run to resume)",
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="retries per failed run before recording a failure entry (default 2)",
    )
    p_sweep.add_argument(
        "--compact",
        nargs="+",
        metavar="SHARD",
        help="merge the given shard JSONL stores into --out (sorted by run "
        "index, deduplicated) instead of running a sweep, and report "
        "fleet-level wall/retry skew from the shard manifests",
    )
    p_sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="collect runtime telemetry in every run (workers inherit it); "
        "deterministic sections land under run.telemetry in each record",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_profile = sub.add_parser(
        "profile",
        parents=[run_flags],
        help="run one scenario with telemetry on and print a phase/category "
        "breakdown (optionally under cProfile)",
    )
    p_profile.add_argument("scenario")
    p_profile.add_argument("--seed", type=int, default=1)
    p_profile.add_argument(
        "--quick",
        action="store_true",
        help="cap the simulated duration at 10 s (CI-sized profile)",
    )
    p_profile.add_argument(
        "--cprofile",
        metavar="PATH",
        help="also run under cProfile and dump raw stats to PATH",
    )
    p_profile.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows in the cProfile table (default 20)",
    )
    p_profile.add_argument(
        "--json",
        metavar="PATH",
        help="write the full telemetry snapshot to this JSON file",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_telemetry = sub.add_parser(
        "telemetry",
        help="export telemetry from a snapshot JSON, a record, or a JSONL "
        "store (merged fleet-wide) as JSON or Prometheus text",
    )
    p_telemetry.add_argument(
        "source",
        help="snapshot JSON (repro profile --json), a record JSON, or a "
        "JSONL result store whose run.telemetry sections are merged",
    )
    p_telemetry.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="output format (default json; prom = Prometheus text format)",
    )
    p_telemetry.add_argument(
        "--prefix",
        default="repro",
        help="metric-name prefix for Prometheus output (default repro)",
    )
    p_telemetry.set_defaults(func=cmd_telemetry)

    p_report = sub.add_parser(
        "report",
        help="build paper-figure datasets and plots from scenario runs",
    )
    p_report.add_argument(
        "figure", nargs="*", help="figure names (default: all; see --list)"
    )
    p_report.add_argument("--list", action="store_true", help="list available figures")
    p_report.add_argument(
        "--quick", action="store_true", help="short CI-sized runs with wider tolerances"
    )
    p_report.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when a figure's sim-vs-model assertions are violated",
    )
    p_report.add_argument(
        "--out",
        default=REPORT_OUT_DIR,
        help=f"output directory for datasets/plots (default {REPORT_OUT_DIR})",
    )
    p_report.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the simulations"
    )
    p_report.add_argument(
        "--reuse",
        action="store_true",
        help="reuse the JSONL run data of a previous identical invocation",
    )
    p_report.add_argument(
        "--no-plots", action="store_true", help="write datasets only, skip PNG rendering"
    )
    p_report.add_argument(
        "--cache",
        metavar="PATH",
        help="spec-fingerprint result cache (JSONL) shared with run/sweep: "
        "figure runs already cached skip simulation",
    )
    p_report.set_defaults(func=cmd_report)

    # ------------------------------------------------------------- service

    from repro.service.client import DEFAULT_SERVER, ENV_SERVER
    from repro.service.server import DEFAULT_HOST, DEFAULT_PORT

    server_flag = argparse.ArgumentParser(add_help=False)
    server_flag.add_argument(
        "--server",
        default=None,
        help=f"service address: http://host:port or unix:///path.sock "
        f"(default ${ENV_SERVER} or {DEFAULT_SERVER})",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the simulation service daemon (control API + worker pool)",
    )
    p_serve.add_argument("--host", default=DEFAULT_HOST, help=f"TCP bind host (default {DEFAULT_HOST})")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT, help=f"TCP port (default {DEFAULT_PORT})")
    p_serve.add_argument(
        "--uds",
        metavar="PATH",
        help="listen on a Unix domain socket instead of TCP",
    )
    p_serve.add_argument(
        "--data",
        default=os.path.join("results", "service"),
        metavar="DIR",
        help="state directory: job journal, result cache, record store "
        "(default results/service)",
    )
    p_serve.add_argument("--jobs", type=int, default=2, help="worker processes (default 2)")
    p_serve.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="retries per failing unit before it is recorded as failed (default 2)",
    )
    p_serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        parents=[run_flags, server_flag],
        help="submit a run or sweep grid to a running service",
    )
    p_submit.add_argument("scenario")
    p_submit.add_argument("--seed", type=int, default=1)
    p_submit.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="sweep axis (repeatable); makes the job a sweep grid",
    )
    p_submit.add_argument(
        "--reps", type=int, default=1, help="seeded replications per grid point (default 1)"
    )
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes, then print its record(s)",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None, help="give up --wait after this many seconds"
    )
    p_submit.add_argument(
        "--json", action="store_true", help="with --wait: print raw record JSON lines"
    )
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser("status", parents=[server_flag], help="show service job status")
    p_status.add_argument("job", nargs="?", help="job id (default: list all jobs)")
    p_status.add_argument("--json", action="store_true", help="print raw JSON")
    p_status.set_defaults(func=cmd_status)

    p_cancel = sub.add_parser("cancel", parents=[server_flag], help="cancel a service job")
    p_cancel.add_argument("job")
    p_cancel.set_defaults(func=cmd_cancel)

    p_watch = sub.add_parser(
        "watch",
        parents=[server_flag],
        help="stream a job's progress events (Server-Sent Events)",
    )
    p_watch.add_argument("job")
    p_watch.add_argument(
        "--from-seq", type=int, default=0, help="replay events starting at this sequence"
    )
    p_watch.add_argument("--json", action="store_true", help="print events as JSON lines")
    p_watch.set_defaults(func=cmd_watch)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
