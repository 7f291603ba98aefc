"""`repro profile` backend: run a scenario with telemetry on and break it down.

:func:`profile_scenario` forces telemetry for the duration of one
``run_scenario`` call (optionally under cProfile) and returns the record
plus the full telemetry snapshot; :func:`format_profile` renders the
snapshot as the phase/category breakdown table the CLI prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.telemetry.core import counters_by_name, split_key


def profile_scenario(
    spec: Any,
    seed: int = 1,
    cprofile_path: Optional[str] = None,
    sort: str = "cumulative",
    top: int = 20,
) -> Tuple[Dict[str, Any], Dict[str, Any], Optional[str]]:
    """Run ``spec`` with telemetry enabled; return (record, snapshot, pstats text).

    When ``cprofile_path`` is given the run executes under :mod:`cProfile`,
    the raw stats are dumped to that path, and the third element is the
    formatted top-``top`` table (otherwise ``None``).
    """
    from repro.scenarios.build import run_scenario

    pstats_text: Optional[str] = None
    with telemetry.forced(True):
        if cprofile_path:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            record = profiler.runcall(run_scenario, spec, seed=seed)
            profiler.dump_stats(cprofile_path)
            buffer = io.StringIO()
            pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(top)
            pstats_text = buffer.getvalue()
        else:
            record = run_scenario(spec, seed=seed)
    snapshot = telemetry.take_last_run() or {}
    return record, snapshot, pstats_text


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


def format_profile(
    scenario: str,
    seed: int,
    engine: str,
    snapshot: Dict[str, Any],
    top_categories: int = 15,
) -> str:
    """Render the profile breakdown table for one run's snapshot."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    spans = snapshot.get("spans", {})
    histograms = snapshot.get("histograms", {})

    events_total = counters.get("engine.events_total", 0)
    run_span = spans.get("engine.run", {})
    run_wall = run_span.get("total_s", 0.0)
    sim_time = gauges.get("engine.sim_time", 0.0)

    lines: List[str] = []
    lines.append(f"profile: {scenario} (seed {seed}, engine {engine})")
    rate = f"{events_total / run_wall:,.0f} events/s" if run_wall else "-"
    lines.append(
        f"simulated {sim_time:g} s, {events_total:,} events"
        f" in {run_wall:.3f} s wall ({rate})"
    )
    wall_per_sim = spans.get("engine.wall_per_sim_s", {}).get("total_s")
    if wall_per_sim is not None:
        lines.append(f"wall per simulated second: {wall_per_sim:.4f} s")

    link_packets = counters.get("link.packets_sent", 0)
    if link_packets:
        # The engine's structural cost: 1 on an idle link (one arrival event
        # per packet), 2 where packets queue (arrival + drain).
        lines.append(
            f"link packets: {link_packets:,}"
            f" ({events_total / link_packets:.2f} events per link packet)"
        )

    phase_keys = [k for k in spans if k.startswith("phase.")]
    if phase_keys:
        phase_total = sum(spans[k]["total_s"] for k in phase_keys)
        lines.append("")
        lines.append(f"{'phase':<24}{'wall_s':>12}{'share':>9}")
        for key in sorted(phase_keys, key=lambda k: -spans[k]["total_s"]):
            total = spans[key]["total_s"]
            lines.append(
                f"  {key[len('phase.'):]:<22}{total:>12.4f}{_share(total, phase_total):>9}"
            )

    categories = counters_by_name(snapshot, "engine.events")
    if categories:
        categories.sort(key=lambda item: (-item[1], item[0].get("category", "")))
        lines.append("")
        lines.append(f"{'events by category':<44}{'count':>12}{'share':>9}")
        shown = 0
        for labels, count in categories[:top_categories]:
            name = labels.get("category", "?")
            lines.append(f"  {name:<42}{count:>12,}{_share(count, events_total):>9}")
            shown += count
        rest = events_total - shown
        if rest > 0:
            lines.append(f"  {'(other)':<42}{rest:>12,}{_share(rest, events_total):>9}")
        lines.append(f"  {'total':<42}{events_total:>12,}")

    engine_bits = []
    if "engine.heap_peak" in gauges:
        engine_bits.append(f"heap peak {gauges['engine.heap_peak']:,}")
    if "engine.compactions" in counters:
        engine_bits.append(f"compactions {counters['engine.compactions']:,}")
    if "engine.reschedule_fast_hits" in counters:
        engine_bits.append(
            f"reschedule fast-path hits {counters['engine.reschedule_fast_hits']:,}"
        )
    batch = histograms.get("engine.batch_size")
    if batch and batch.get("count"):
        mean = batch["sum"] / batch["count"]
        engine_bits.append(f"batch mean {mean:.2f} max {batch['max']:g}")
    if engine_bits:
        lines.append("")
        lines.append("engine: " + ", ".join(engine_bits))

    drops = counters_by_name(snapshot, "link.drops")
    if drops:
        parts = [
            f"{value:,} {labels.get('cause', '?')}"
            for labels, value in sorted(drops, key=lambda item: item[0].get("cause", ""))
        ]
        queue_line = "links: drops " + " / ".join(parts)
        if "queue.peak" in gauges:
            queue_line += f", peak queue occupancy {gauges['queue.peak']:g}"
        lines.append(queue_line)

    channel_drops = counters_by_name(snapshot, "link.channel_drops")
    if channel_drops:
        parts = [
            f"{value:,} {labels.get('cause', '?')}"
            for labels, value in sorted(
                channel_drops, key=lambda item: item[0].get("cause", "")
            )
        ]
        lines.append("channels: drops " + " / ".join(parts))

    cohort_steps = counters.get("cohort.steps")
    if cohort_steps:
        cohort_line = (
            f"cohorts: {gauges.get('cohort.receivers', 0):,.0f} receivers peak, "
            f"{cohort_steps:,} steps, {counters.get('cohort.reports_injected', 0):,}"
            f" reports injected, {counters.get('cohort.suppressed', 0):,} suppressed"
        )
        step_span = spans.get("cohort.step")
        if step_span:
            cohort_line += f", {step_span['total_s']:.3f} s stepping"
        lines.append(cohort_line)

    other_spans = sorted(
        k
        for k in spans
        if not k.startswith("phase.")
        and split_key(k)[0] not in ("engine.run", "engine.wall_per_sim_s", "cohort.step")
    )
    if other_spans:
        lines.append("")
        for key in other_spans:
            span = spans[key]
            lines.append(
                f"span {key}: {span['count']:,} x, {span['total_s']:.4f} s total,"
                f" {span['max_s']:.4f} s max"
            )

    return "\n".join(lines)
