"""Paper-figure definitions: which runs to execute, how to reduce them.

Each :class:`FigureDef` names the simulation runs it needs (as declarative
``RunRequest`` items over the scenario registry), a pure ``build`` function
reducing the resulting records to a tabular dataset plus an optional
analytical overlay, and the declared tolerances its ``--check`` assertions
use.  Tolerances come in a ``quick`` and a ``full`` flavour: quick runs are
CI-sized (tens of simulated seconds) and therefore noisier.

The seven figures cover the paper's headline claims (plus one wireless
extension beyond the paper):

``fairness``    Figure 9 — TFMCC vs N TCPs on one bottleneck: Jain index and
                the TCP-friendliness ratio, against the equal-share model.
``smoothness``  Figures 11/20/21 theme — rate coefficient of variation: TFMCC
                must be smoother than TCP at comparable average rate.
``scaling``     Figure 7 — throughput degradation vs receiver-set size,
                overlaid with the Section-3 order-statistic model
                (:mod:`repro.analysis.scaling`).
``feedback``    Figures 4/6 — feedback messages per round vs receiver count,
                bounded by the exponential-suppression model
                (:mod:`repro.analysis.feedback_model`).
``responsiveness`` Figures 13-19 theme — reaction time to scripted network
                dynamics (link failure + reroute, bandwidth step, loss
                step): the sender must adopt the new constraint within a
                few feedback rounds.
``equivalence`` Section 1 / Figure 1 theme — TFMCC with a single receiver
                must behave like its unicast ancestor TFRC: both flows on
                one bottleneck (the ``tfmcc_vs_tfrc`` scenario of the
                unified flow API) should split it evenly.
``wireless``    beyond the paper — TFMCC/TFRC/TCP across SNR->PER wireless
                last hops (scenario ``wireless_last_hop``): sampled channel
                PER must track the analytic curve, and non-congestive loss
                must cost equation-based throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.feedback_model import expected_feedback_messages
from repro.analysis.scaling import expected_minimum_rate_constant_loss
from repro.channel import packet_error_rate
from repro.core.config import TFMCCConfig
from repro.metrics.aggregate import aggregate_field, group_records, record_engine, record_param
from repro.metrics.stats import (
    coefficient_of_variation,
    degradation_curve,
    jain_fairness,
    windowed_fairness,
)

#: Nominal RTT of the dumbbell topologies used by the report scenarios
#: (2 * (bottleneck_delay + 2 * access_delay) plus serialisation slack).
NOMINAL_RTT = 0.05

#: Bottleneck capacity the fairness figure runs at.  Passed explicitly to
#: every run request (rather than relying on the registry default), so the
#: equal-share overlay is always computed from the capacity that was
#: actually simulated.
FAIRNESS_BOTTLENECK_BPS = 4e6


@dataclass(frozen=True)
class RunRequest:
    """One simulation run a figure needs: scenario, parameters, seed.

    ``metrics`` optionally overrides fields of the scenario's
    :class:`~repro.scenarios.spec.MetricsSpec` (e.g. ``with_series`` or
    ``with_trace``) without the registry factory having to expose them;
    ``engine`` does the same for :class:`~repro.scenarios.spec.EngineSpec`
    fields (e.g. ``{"kind": "cohort"}`` for vectorised large populations).
    """

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    metrics: Dict[str, Any] = field(default_factory=dict)
    engine: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> Any:
        """Stable identity used to match records on reuse."""
        return (
            self.scenario,
            tuple(sorted(self.params.items())),
            self.seed,
            tuple(sorted(self.metrics.items())),
            tuple(sorted(self.engine.items())),
        )


@dataclass
class Check:
    """One pass/fail assertion of a figure's ``--check`` mode."""

    name: str
    passed: bool
    detail: str


@dataclass
class FigureData:
    """The reduced output of one figure build."""

    dataset: List[Dict[str, Any]]
    overlay: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PlotSpec:
    """Declarative plot layout consumed by :mod:`repro.report.plotting`."""

    x: str
    ys: Sequence[str]
    overlay_ys: Sequence[str] = ()
    xlabel: str = ""
    ylabel: str = ""
    logx: bool = False
    kind: str = "line"  # "line" | "bar"


@dataclass(frozen=True)
class FigureDef:
    name: str
    title: str
    paper_figures: str
    description: str
    requests: Callable[[bool], List[RunRequest]]
    build: Callable[[List[Dict[str, Any]], bool], FigureData]
    plot: PlotSpec
    tolerances: Dict[str, Dict[str, float]]

    def tol(self, quick: bool) -> Dict[str, float]:
        return self.tolerances["quick" if quick else "full"]


FIGURES: Dict[str, FigureDef] = {}


def register_figure(figure: FigureDef) -> FigureDef:
    if figure.name in FIGURES:
        raise ValueError(f"figure {figure.name!r} already registered")
    FIGURES[figure.name] = figure
    return figure


def figure_names() -> List[str]:
    return sorted(FIGURES)


def get_figure(name: str) -> FigureDef:
    try:
        return FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None


# ------------------------------------------------------------------ helpers


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _bounds_check(name: str, value: float, lo: float, hi: float) -> Check:
    return Check(
        name=name,
        passed=lo <= value <= hi,
        detail=f"{value:.4g} within [{lo:.4g}, {hi:.4g}]",
    )


def _measured_loss_rate(records: Sequence[Dict[str, Any]]) -> float:
    """Aggregate drop probability over the runs' link statistics."""
    sent = sum(r.get("links", {}).get("packets_sent", 0) for r in records)
    drops = sum(
        r.get("links", {}).get("queue_drops", 0) + r.get("links", {}).get("random_drops", 0)
        for r in records
    )
    if sent <= 0:
        return 0.0
    return drops / sent


# ------------------------------------------------------- figure: fairness


def _fairness_requests(quick: bool) -> List[RunRequest]:
    counts = [1, 2, 4] if quick else [1, 2, 4, 8]
    duration = 30.0 if quick else 120.0
    seeds = [1] if quick else [1, 2, 3]
    return [
        RunRequest(
            "fairness",
            {"num_tcp": n, "duration": duration, "bottleneck_bps": FAIRNESS_BOTTLENECK_BPS},
            seed,
        )
        for n in counts
        for seed in seeds
    ]


def _fairness_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_FAIRNESS.tol(quick)
    dataset: List[Dict[str, Any]] = []
    overlay: List[Dict[str, Any]] = []
    checks: List[Check] = []
    for num_tcp, group in sorted(group_records(records, "num_tcp").items()):
        bottleneck_bps = record_param(group[0], "bottleneck_bps", FAIRNESS_BOTTLENECK_BPS)
        tfmcc = _mean([r["tfmcc_mean_bps"] for r in group])
        tcp = _mean([r["tcp_mean_bps"] for r in group])
        ratio = tfmcc / tcp if tcp > 0 else 0.0
        jain = _mean([r["fairness_index"] for r in group])
        fair_share = bottleneck_bps / (num_tcp + 1)
        dataset.append(
            {
                "num_tcp": num_tcp,
                "tfmcc_mean_bps": tfmcc,
                "tcp_mean_bps": tcp,
                "tfmcc_tcp_ratio": ratio,
                "jain_index": jain,
                "runs": len(group),
            }
        )
        overlay.append({"num_tcp": num_tcp, "fair_share_bps": fair_share})
        checks.append(
            _bounds_check(f"jain(num_tcp={num_tcp})", jain, tol["jain_min"], 1.0)
        )
        checks.append(
            _bounds_check(
                f"tfmcc_tcp_ratio(num_tcp={num_tcp})", ratio, tol["ratio_lo"], tol["ratio_hi"]
            )
        )
    return FigureData(dataset=dataset, overlay=overlay, checks=checks)


FIG_FAIRNESS = register_figure(
    FigureDef(
        name="fairness",
        title="TCP-friendliness on a shared bottleneck",
        paper_figures="Figure 9",
        description=(
            "One TFMCC flow against N TCP flows over a 4 Mbit/s dumbbell: "
            "mean per-flow throughput, the TFMCC/TCP rate ratio and Jain's "
            "fairness index, versus the equal-share rate."
        ),
        requests=_fairness_requests,
        build=_fairness_build,
        plot=PlotSpec(
            x="num_tcp",
            ys=["tfmcc_mean_bps", "tcp_mean_bps"],
            overlay_ys=["fair_share_bps"],
            xlabel="competing TCP flows",
            ylabel="throughput (bit/s)",
        ),
        tolerances={
            "quick": {"jain_min": 0.55, "ratio_lo": 0.15, "ratio_hi": 6.0},
            "full": {"jain_min": 0.75, "ratio_lo": 0.3, "ratio_hi": 3.0},
        },
    )
)


# ------------------------------------------------------ figure: smoothness


def _smoothness_requests(quick: bool) -> List[RunRequest]:
    # TFMCC needs ~30 s to leave the ramp-up regime on this topology; the
    # CoV is only meaningful at steady state, so the warmup cut is deeper
    # than for the throughput figures.
    duration = 60.0 if quick else 150.0
    warmup = 0.4 if quick else 0.33
    seeds = [1] if quick else [1, 2]
    return [
        RunRequest(
            "fairness",
            {"num_tcp": 4, "duration": duration, "warmup_fraction": warmup},
            seed,
            metrics={"with_series": True},
        )
        for seed in seeds
    ]


def _smoothness_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_SMOOTHNESS.tol(quick)
    dataset: List[Dict[str, Any]] = []
    covs: Dict[str, List[float]] = {"tfmcc": [], "tcp": []}
    windowed: List[float] = []
    for record in records:
        series = record.get("series", {})
        post_warmup = {
            flow: [v for t, v in values if t >= record["warmup_s"]]
            for flow, values in series.items()
        }
        for flow_info in record["flows"]:
            flow, kind = flow_info["id"], flow_info["kind"]
            values = post_warmup.get(flow, [])
            cov = coefficient_of_variation(values)
            dataset.append(
                {
                    "seed": record["seed"],
                    "flow": flow,
                    "kind": kind,
                    "mean_bps": flow_info["avg_bps"],
                    "rate_cov": cov,
                }
            )
            if kind in covs:
                covs[kind].append(cov)
        windowed.extend(windowed_fairness(post_warmup, window_bins=5))
    tfmcc_cov = _mean(covs["tfmcc"])
    tcp_cov = _mean(covs["tcp"])
    windowed_mean = _mean(windowed)
    checks = [
        Check(
            name="tfmcc_smoother_than_tcp",
            passed=tfmcc_cov <= tcp_cov * tol["cov_ratio_max"],
            detail=f"tfmcc CoV {tfmcc_cov:.3f} <= {tol['cov_ratio_max']:.2f} x tcp CoV {tcp_cov:.3f}",
        ),
        _bounds_check("tfmcc_cov", tfmcc_cov, 0.0, tol["cov_max"]),
        _bounds_check("windowed_jain_mean", windowed_mean, tol["windowed_jain_min"], 1.0),
    ]
    return FigureData(
        dataset=dataset,
        checks=checks,
        extras={
            "tfmcc_cov_mean": tfmcc_cov,
            "tcp_cov_mean": tcp_cov,
            "windowed_jain_mean": windowed_mean,
        },
    )


FIG_SMOOTHNESS = register_figure(
    FigureDef(
        name="smoothness",
        title="Rate smoothness: coefficient of variation",
        paper_figures="Figures 11/20/21 (smoothness aspect)",
        description=(
            "Per-flow throughput CoV after warmup for 1 TFMCC + 4 TCP on a "
            "shared bottleneck; equation-based control must produce a much "
            "smoother rate than TCP's sawtooth, plus windowed Jain fairness."
        ),
        requests=_smoothness_requests,
        build=_smoothness_build,
        plot=PlotSpec(
            x="flow",
            ys=["rate_cov"],
            xlabel="flow",
            ylabel="rate coefficient of variation",
            kind="bar",
        ),
        tolerances={
            "quick": {"cov_ratio_max": 1.1, "cov_max": 0.8, "windowed_jain_min": 0.5},
            "full": {"cov_ratio_max": 0.9, "cov_max": 0.5, "windowed_jain_min": 0.6},
        },
    )
)


# --------------------------------------------------------- figure: scaling


def _scaling_requests(quick: bool) -> List[RunRequest]:
    counts = [1, 2, 4, 8] if quick else [1, 2, 4, 8, 16]
    duration = 20.0 if quick else 45.0
    seeds = [1] if quick else [1, 2]
    requests = [
        RunRequest("scaling", {"num_receivers": n, "duration": duration}, seed)
        for n in counts
        for seed in seeds
    ]
    # Population sizes beyond the exact engine's reach: the vectorised
    # cohort engine extends the curve to the regimes the paper could only
    # model analytically.
    cohort_counts = [1_000, 10_000] if quick else [1_000, 10_000, 100_000]
    requests += [
        RunRequest(
            "scaling",
            {"num_receivers": n, "duration": duration},
            seed,
            engine={"kind": "cohort"},
        )
        for n in cohort_counts
        for seed in seeds
    ]
    return requests


def _scaling_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_SCALING.tol(quick)
    grouped = group_records(records, "num_receivers")
    points = [
        (n, _mean([r["tfmcc_mean_bps"] for r in group])) for n, group in sorted(grouped.items())
    ]
    curve = degradation_curve(points)
    base_n = curve[0][0] if curve else 1
    p_measured = max(
        _measured_loss_rate(grouped.get(base_n, [])) or _measured_loss_rate(records),
        tol["min_loss_rate"],
    )
    model = {
        n: expected_minimum_rate_constant_loss(n, p_measured, NOMINAL_RTT) for n, _, _ in curve
    }
    dataset: List[Dict[str, Any]] = []
    overlay: List[Dict[str, Any]] = []
    checks: List[Check] = []
    for n, throughput, sim_ratio in curve:
        model_ratio = model[n] / model[base_n] if model[base_n] > 0 else 0.0
        engines = {record_engine(r) for r in grouped[n]}
        dataset.append(
            {
                "num_receivers": n,
                "tfmcc_mean_bps": throughput,
                "sim_ratio": sim_ratio,
                "runs": len(grouped[n]),
                "engine": engines.pop() if len(engines) == 1 else "mixed",
            }
        )
        overlay.append({"num_receivers": n, "model_ratio": model_ratio})
        # Simulated receivers share one bottleneck, so their loss is
        # positively correlated; the independent-loss model is therefore a
        # *lower* envelope for the normalised throughput, and 1 (plus noise
        # headroom) the upper one.
        checks.append(
            _bounds_check(
                f"sim_ratio(n={n})",
                sim_ratio,
                model_ratio - tol["ratio_slack"],
                1.0 + tol["ratio_headroom"],
            )
        )
    return FigureData(
        dataset=dataset,
        overlay=overlay,
        checks=checks,
        extras={"measured_loss_rate": p_measured, "nominal_rtt": NOMINAL_RTT},
    )


FIG_SCALING = register_figure(
    FigureDef(
        name="scaling",
        title="Throughput degradation vs receiver-set size",
        paper_figures="Figure 7 (companion)",
        description=(
            "Mean TFMCC throughput for growing receiver sets on one "
            "bottleneck, normalised to the smallest set, overlaid with the "
            "Section-3 expected-minimum (order statistic) model evaluated at "
            "the measured loss rate.  Points up to 16 receivers run the "
            "exact per-packet engine; the 1k-100k points use the vectorised "
            "cohort engine, whose independent per-receiver loss draws "
            "implement the model's i.i.d. assumption directly."
        ),
        requests=_scaling_requests,
        build=_scaling_build,
        plot=PlotSpec(
            x="num_receivers",
            ys=["sim_ratio"],
            overlay_ys=["model_ratio"],
            xlabel="receivers",
            ylabel="throughput relative to 1 receiver",
            logx=True,
        ),
        tolerances={
            "quick": {"ratio_slack": 0.45, "ratio_headroom": 0.35, "min_loss_rate": 0.005},
            "full": {"ratio_slack": 0.35, "ratio_headroom": 0.25, "min_loss_rate": 0.005},
        },
    )
)


# -------------------------------------------------------- figure: feedback


def _feedback_requests(quick: bool) -> List[RunRequest]:
    counts = [2, 4, 8] if quick else [2, 4, 8, 16]
    duration = 20.0 if quick else 40.0
    seeds = [1] if quick else [1, 2]
    return [
        RunRequest(
            "scaling",
            {"num_receivers": n, "duration": duration},
            seed,
            metrics={"with_trace": True},
        )
        for n in counts
        for seed in seeds
    ]


def _feedback_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_FEEDBACK.tol(quick)
    # T' in units of the nominal network RTT: the runs use the default
    # protocol configuration (feedback delay of feedback_rtts * max_rtt,
    # i.e. 2 s; the dumbbell RTT is about 50 ms).
    cfg = TFMCCConfig()
    feedback_delay_s = cfg.feedback_delay
    max_delay_rtts = feedback_delay_s / NOMINAL_RTT
    round_duration_s = feedback_delay_s + cfg.max_rtt
    grouped = group_records(records, "num_receivers")
    per_round = aggregate_field(records, "trace.feedback.per_round.mean", group="num_receivers")
    nonclr = aggregate_field(
        records, "trace.feedback.nonclr_per_round.mean", group="num_receivers"
    )
    rounds = aggregate_field(records, "trace.rounds", group="num_receivers")
    suppressed = aggregate_field(records, "trace.suppressed", group="num_receivers")
    dataset: List[Dict[str, Any]] = []
    overlay: List[Dict[str, Any]] = []
    checks: List[Check] = []
    for n in sorted(grouped):
        group = grouped[n]
        duration = group[0]["duration"]
        warmup = group[0]["warmup_s"]
        model = expected_feedback_messages(
            n, max_delay_rtts, network_delay_rtts=1.0, receiver_estimate=cfg.receiver_estimate
        )
        n_rounds = rounds[n]["mean"]
        dataset.append(
            {
                "num_receivers": n,
                "rounds": n_rounds,
                "feedback_per_round": per_round[n]["mean"],
                "nonclr_feedback_per_round": nonclr[n]["mean"],
                "suppressed_per_round": (
                    suppressed[n]["mean"] / n_rounds if n_rounds > 0 else 0.0
                ),
                "runs": len(group),
            }
        )
        overlay.append({"num_receivers": n, "model_messages_per_round": model})
        checks.append(
            _bounds_check(
                f"nonclr_feedback_per_round(n={n})",
                nonclr[n]["mean"],
                0.0,
                model * tol["model_factor"] + tol["model_slack"],
            )
        )
        expected_rounds = (duration - warmup) / round_duration_s
        checks.append(
            _bounds_check(
                f"rounds(n={n})",
                n_rounds,
                expected_rounds * (1.0 - tol["rounds_tolerance"]),
                expected_rounds * (1.0 + tol["rounds_tolerance"]),
            )
        )
    total_feedback = sum(
        r.get("trace", {}).get("feedback", {}).get("messages", 0) for r in records
    )
    checks.append(
        Check(
            name="feedback_observed",
            passed=total_feedback > 0,
            detail=f"{total_feedback} feedback messages traced across all runs",
        )
    )
    return FigureData(
        dataset=dataset,
        overlay=overlay,
        checks=checks,
        extras={"max_delay_rtts": max_delay_rtts, "round_duration_s": round_duration_s},
    )


# -------------------------------------------------- figure: responsiveness


def _responsiveness_requests(quick: bool) -> List[RunRequest]:
    # The scenarios' default event times already sit past the slowstart
    # ramp; durations cannot shrink much below the defaults, so quick mode
    # trims the seed set and the scenario list instead.
    seeds = [1] if quick else [1, 2]
    scenarios = ["link_failure_reroute", "bandwidth_step"]
    if not quick:
        scenarios.append("loss_step_responsiveness")
    params: Dict[str, Dict[str, Any]] = {
        # Explicit values for everything the reduction needs, so the build
        # never has to assume registry defaults.
        "bandwidth_step": {"bottleneck_bps": 2e6, "step_factor": 0.4, "restore_at": 38.0},
    }
    return [
        RunRequest(scenario, dict(params.get(scenario, {})), seed)
        for scenario in scenarios
        for seed in seeds
    ]


#: Feedback-round duration of the default protocol configuration; the
#: natural unit of the paper's "reaction within a few RTTs" claim at the
#: configured feedback delay (T = feedback_rtts * max_rtt).
def _round_duration_s() -> float:
    cfg = TFMCCConfig()
    return cfg.feedback_delay + cfg.max_rtt


def _first_event(trace_dynamics: Dict[str, Any]) -> Optional[List[Any]]:
    events = trace_dynamics.get("events") or []
    return events[0] if events else None


def _reaction_from_clr(trace_dynamics: Dict[str, Any], event_t: float) -> Optional[float]:
    """Seconds from the event to the first CLR switch at or after it.

    Entries are ``[t, receiver_id, flow_id]``; the responsiveness scenarios
    run a single TFMCC flow, so no flow filter is needed here.
    """
    for entry in trace_dynamics.get("clr_switches", []):
        if entry[0] >= event_t:
            return entry[0] - event_t
    return None


def _reaction_from_rate(
    trace_dynamics: Dict[str, Any], event_t: float, threshold_bps: float
) -> Optional[float]:
    """Seconds from the event until the sender rate (``[t, rate, flow]``
    entries) first drops under the stepped capacity."""
    for entry in trace_dynamics.get("rate_series", []):
        if entry[0] >= event_t and entry[1] <= threshold_bps:
            return entry[0] - event_t
    return None


def _responsiveness_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_RESPONSIVENESS.tol(quick)
    round_s = _round_duration_s()
    reaction_max = tol["reaction_rounds_max"] * round_s
    dataset: List[Dict[str, Any]] = []
    overlay: List[Dict[str, Any]] = []
    checks: List[Check] = []
    for record in records:
        scenario = record["scenario"]
        seed = record["seed"]
        case = f"{scenario}/seed{seed}"
        dyn = record.get("trace", {}).get("dynamics")
        if not dyn or not dyn.get("events"):
            checks.append(
                Check(
                    name=f"dynamics_traced({case})",
                    passed=False,
                    detail="record has no dynamics trace — scenario did not script events",
                )
            )
            continue
        event = _first_event(dyn)
        event_t = event[0]
        rebuilds = dyn.get("route_rebuilds", 0)
        if scenario == "bandwidth_step":
            bottleneck = record_param(record, "bottleneck_bps", 2e6)
            step_factor = record_param(record, "step_factor", 0.4)
            stepped_bps = bottleneck * step_factor
            # Reacted once the sending rate is at or below the new capacity.
            reaction = _reaction_from_rate(dyn, event_t, stepped_bps)
            restore_at = record_param(record, "restore_at", None)
            if reaction is not None and restore_at is not None:
                adapted = [
                    entry[1]
                    for entry in dyn.get("rate_series", [])
                    if event_t + reaction <= entry[0] < restore_at
                ]
                adapted_mean = _mean(adapted)
                checks.append(
                    _bounds_check(
                        f"adapted_rate({case})",
                        adapted_mean,
                        0.0,
                        stepped_bps * tol["adapted_headroom"],
                    )
                )
        else:
            # Link failure / loss step: reaction is the CLR hand-off.
            reaction = _reaction_from_clr(dyn, event_t)
        if scenario == "link_failure_reroute":
            checks.append(
                Check(
                    name=f"route_rebuilds({case})",
                    passed=rebuilds >= 1,
                    detail=f"{rebuilds} route rebuilds traced (need >= 1)",
                )
            )
        checks.append(
            Check(
                name=f"reaction({case})",
                passed=reaction is not None and reaction <= reaction_max,
                detail=(
                    f"reaction {reaction:.2f} s <= {reaction_max:.2f} s "
                    f"({tol['reaction_rounds_max']:.1f} feedback rounds)"
                    if reaction is not None
                    else "no reaction observed after the event"
                ),
            )
        )
        dataset.append(
            {
                "case": case,
                "scenario": scenario,
                "seed": seed,
                "event_t": event_t,
                "event_kind": event[1],
                "reaction_s": reaction,
                "reaction_rounds": (reaction / round_s) if reaction is not None else None,
                "route_rebuilds": rebuilds,
                "clr_switches": len(dyn.get("clr_switches", [])),
                "down_drops": record.get("links", {}).get("down_drops", 0),
            }
        )
        overlay.append(
            {"case": case, "expected_reaction_s": tol["model_rounds"] * round_s}
        )
    return FigureData(
        dataset=dataset,
        overlay=overlay,
        checks=checks,
        extras={"round_duration_s": round_s, "reaction_max_s": reaction_max},
    )


FIG_RESPONSIVENESS = register_figure(
    FigureDef(
        name="responsiveness",
        title="Reaction time to scripted network dynamics",
        paper_figures="Figures 13-19 (responsiveness theme)",
        description=(
            "Time-scripted link failure (reroute + multicast re-graft), "
            "bottleneck bandwidth step and loss-rate step: seconds until the "
            "sender adopts the new constraint (CLR hand-off or rate at the "
            "new capacity), in units of the feedback-round duration."
        ),
        requests=_responsiveness_requests,
        build=_responsiveness_build,
        plot=PlotSpec(
            x="case",
            ys=["reaction_s"],
            overlay_ys=["expected_reaction_s"],
            xlabel="scenario / seed",
            ylabel="reaction time (s)",
            kind="bar",
        ),
        tolerances={
            # Reaction bounds in feedback-round units (one round is
            # feedback_delay + max_rtt = 2.5 s at paper defaults); the
            # paper's step-response plots settle within a couple of rounds,
            # noisy quick runs get more headroom.
            "quick": {"reaction_rounds_max": 5.0, "model_rounds": 2.0, "adapted_headroom": 1.6},
            "full": {"reaction_rounds_max": 4.5, "model_rounds": 2.0, "adapted_headroom": 1.5},
        },
    )
)


# ------------------------------------------------------ figure: equivalence


#: Bottleneck capacity the equivalence figure runs at (passed explicitly so
#: the utilisation check always uses the capacity that was simulated).
EQUIVALENCE_BOTTLENECK_BPS = 2e6


def _equivalence_requests(quick: bool) -> List[RunRequest]:
    # TFMCC's feedback-round ramp needs tens of seconds before the two
    # equation-based flows settle into their shares; quick mode trades
    # duration for a wider declared tolerance.
    duration = 60.0 if quick else 120.0
    seeds = [1, 2] if quick else [1, 2, 3]
    return [
        RunRequest(
            "tfmcc_vs_tfrc",
            {"duration": duration, "bottleneck_bps": EQUIVALENCE_BOTTLENECK_BPS},
            seed,
        )
        for seed in seeds
    ]


def _equivalence_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_EQUIVALENCE.tol(quick)
    dataset: List[Dict[str, Any]] = []
    overlay: List[Dict[str, Any]] = []
    ratios: List[float] = []
    utilisations: List[float] = []
    for record in records:
        bottleneck = record_param(record, "bottleneck_bps", EQUIVALENCE_BOTTLENECK_BPS)
        tfmcc = record["tfmcc_mean_bps"]
        tfrc = record.get("tfrc_mean_bps", 0.0)
        ratio = tfmcc / tfrc if tfrc > 0 else 0.0
        ratios.append(ratio)
        utilisations.append((tfmcc + tfrc) / bottleneck if bottleneck > 0 else 0.0)
        dataset.append(
            {
                "seed": record["seed"],
                "tfmcc_mean_bps": tfmcc,
                "tfrc_mean_bps": tfrc,
                "tfmcc_tfrc_ratio": ratio,
            }
        )
        overlay.append({"seed": record["seed"], "fair_share_bps": bottleneck / 2.0})
    ratio_mean = _mean(ratios)
    util_mean = _mean(utilisations)
    checks = [
        _bounds_check("tfmcc_tfrc_ratio_mean", ratio_mean, tol["ratio_lo"], tol["ratio_hi"]),
        _bounds_check("bottleneck_utilisation", util_mean, tol["util_min"], 1.05),
    ]
    return FigureData(
        dataset=dataset,
        overlay=overlay,
        checks=checks,
        extras={"ratio_mean": ratio_mean, "utilisation_mean": util_mean},
    )


FIG_EQUIVALENCE = register_figure(
    FigureDef(
        name="equivalence",
        title="TFMCC (single receiver) vs unicast TFRC",
        paper_figures="Section 1 / Figure 1 (design-equivalence theme)",
        description=(
            "One TFMCC flow with a single receiver against one TFRC flow on "
            "a shared 2 Mbit/s bottleneck (scenario tfmcc_vs_tfrc): TFMCC "
            "must degenerate to TFRC-like behaviour, so the two flows split "
            "the link evenly and together keep it utilised."
        ),
        requests=_equivalence_requests,
        build=_equivalence_build,
        plot=PlotSpec(
            x="seed",
            ys=["tfmcc_mean_bps", "tfrc_mean_bps"],
            overlay_ys=["fair_share_bps"],
            xlabel="seed",
            ylabel="throughput (bit/s)",
            kind="bar",
        ),
        tolerances={
            # Mean TFMCC/TFRC ratio over the seed set: 60 s quick runs still
            # carry ramp-up bias on some seeds (measured 0.56-1.07), the
            # 120 s full runs sit at 0.91-1.02.
            "quick": {"ratio_lo": 0.45, "ratio_hi": 1.8, "util_min": 0.6},
            "full": {"ratio_lo": 0.6, "ratio_hi": 1.5, "util_min": 0.7},
        },
    )
)


# -------------------------------------------------------- figure: wireless

#: SNR grid the wireless figure sweeps (dB, QPSK at 1000-byte packets).
#: Spans the modulation's PER cliff: ~0 loss at 16 dB, ~3% at 13 dB,
#: ~24% at 12 dB and ~49% at 11.5 dB.
WIRELESS_SNR_GRID = [16.0, 13.0, 12.0, 11.5]

#: Bottleneck the wireless runs share (matches the scenario default).
WIRELESS_BOTTLENECK_BPS = 2e6


def _wireless_requests(quick: bool) -> List[RunRequest]:
    duration = 30.0 if quick else 120.0
    seeds = [1] if quick else [1, 2]
    return [
        RunRequest(
            "wireless_last_hop",
            {"snr_db": snr, "duration": duration},
            seed,
        )
        for snr in WIRELESS_SNR_GRID
        for seed in seeds
    ]


def _wireless_build(records: List[Dict[str, Any]], quick: bool) -> FigureData:
    tol = FIG_WIRELESS.tol(quick)
    dataset: List[Dict[str, Any]] = []
    overlay: List[Dict[str, Any]] = []
    checks: List[Check] = []
    by_snr: Dict[float, Dict[str, float]] = {}
    for snr, group in sorted(group_records(records, "snr_db").items()):
        analytic = packet_error_rate(snr, "qpsk", 1000)
        sampled = _mean(
            [
                r.get("trace", {}).get("channel", {}).get("per", {}).get("mean", 0.0)
                for r in group
            ]
        )
        drops = sum(
            r.get("links", {}).get("channel_drops", {}).get("per", 0) for r in group
        )
        sent = sum(r.get("links", {}).get("packets_sent", 0) for r in group)
        tfmcc = _mean([r["tfmcc_mean_bps"] for r in group])
        tfrc = _mean([r.get("tfrc_mean_bps", 0.0) for r in group])
        tcp = _mean([r.get("tcp_mean_bps", 0.0) for r in group])
        jain = _mean([r["fairness_index"] for r in group])
        by_snr[snr] = {"tfmcc": tfmcc, "tcp": tcp, "jain": jain}
        dataset.append(
            {
                "snr_db": snr,
                "analytic_per": analytic,
                "sampled_per": sampled,
                "measured_drop_rate": drops / sent if sent > 0 else 0.0,
                "tfmcc_mean_bps": tfmcc,
                "tfrc_mean_bps": tfrc,
                "tcp_mean_bps": tcp,
                "jain_index": jain,
                "runs": len(group),
            }
        )
        overlay.append(
            {"snr_db": snr, "fair_share_bps": WIRELESS_BOTTLENECK_BPS / 3.0}
        )
        # The probe samples both the data and the (smaller-packet) feedback
        # direction of every wireless leaf, so the sampled mean sits at or
        # below the 1000-byte analytic curve but must track it.
        checks.append(
            _bounds_check(
                f"sampled_per(snr={snr:g})",
                sampled,
                max(0.0, analytic * tol["per_lo_frac"] - 0.01),
                analytic + tol["per_hi_abs"],
            )
        )
    best = max(by_snr)
    worst = min(by_snr)
    checks.append(
        _bounds_check(
            "jain_clean",
            by_snr[best]["jain"],
            tol["jain_clean_min"],
            1.0,
        )
    )
    if by_snr[best]["tfmcc"] > 0:
        degradation = by_snr[worst]["tfmcc"] / by_snr[best]["tfmcc"]
    else:
        degradation = 1.0
    checks.append(
        # Non-congestive PER loss must cost TFMCC throughput: deep in the
        # cliff the rate has to sit well below the clean-channel rate.
        _bounds_check("tfmcc_degradation", degradation, 0.0, tol["degraded_max"])
    )
    return FigureData(
        dataset=dataset,
        overlay=overlay,
        checks=checks,
        extras={"snr_grid": WIRELESS_SNR_GRID, "modulation": "qpsk"},
    )


FIG_WIRELESS = register_figure(
    FigureDef(
        name="wireless",
        title="Throughput and fairness over SNR->PER wireless last hops",
        paper_figures="beyond the paper: DCCP-over-wireless theme (PAPERS.md)",
        description=(
            "TFMCC, TFRC and TCP sharing a 2 Mbit/s bottleneck, every "
            "receiver behind its own QPSK wireless last hop, swept across "
            "the SNR cliff: analytic vs sampled PER, per-protocol mean "
            "throughput and Jain fairness as non-congestive loss grows."
        ),
        requests=_wireless_requests,
        build=_wireless_build,
        plot=PlotSpec(
            x="snr_db",
            ys=["tfmcc_mean_bps", "tfrc_mean_bps", "tcp_mean_bps"],
            overlay_ys=["fair_share_bps"],
            xlabel="last-hop SNR (dB)",
            ylabel="throughput (bit/s)",
        ),
        tolerances={
            "quick": {
                "per_lo_frac": 0.1,
                "per_hi_abs": 0.05,
                "jain_clean_min": 0.45,
                "degraded_max": 0.8,
            },
            "full": {
                "per_lo_frac": 0.2,
                "per_hi_abs": 0.03,
                "jain_clean_min": 0.55,
                "degraded_max": 0.6,
            },
        },
    )
)


FIG_FEEDBACK = register_figure(
    FigureDef(
        name="feedback",
        title="Feedback suppression vs receiver count",
        paper_figures="Figures 4/6",
        description=(
            "Feedback messages reaching the sender per feedback round as the "
            "receiver set grows, bounded by the worst-case expectation of the "
            "exponential-suppression model (all receivers wanting to report)."
        ),
        requests=_feedback_requests,
        build=_feedback_build,
        plot=PlotSpec(
            x="num_receivers",
            ys=["feedback_per_round", "nonclr_feedback_per_round"],
            overlay_ys=["model_messages_per_round"],
            xlabel="receivers",
            ylabel="feedback messages per round",
            logx=True,
        ),
        tolerances={
            "quick": {"model_factor": 4.0, "model_slack": 2.5, "rounds_tolerance": 0.6},
            "full": {"model_factor": 3.0, "model_slack": 2.0, "rounds_tolerance": 0.5},
        },
    )
)
