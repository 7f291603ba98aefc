"""Engine registry and cohort-engine tests.

Covers the pluggable-engine API (registration, dispatch, spec plumbing),
the cohort engine's cross-validation against the exact engine on
scaling-family scenarios, determinism of cohort sweeps across worker
counts, and the EngineUnavailableError path when numpy is missing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    EngineFactory,
    EngineUnavailableError,
    engine_kinds,
    engines,
    get_engine,
    register_engine,
)
from repro.scenarios import EngineSpec, ScenarioSpec
from repro.scenarios.build import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.store import encode_record
from repro.scenarios.sweep import SweepRunner


# ------------------------------------------------------------------ registry


def test_registry_has_builtin_engines():
    assert engine_kinds() == ["cohort", "exact"]
    assert {f.kind for f in engines()} == {"cohort", "exact"}
    assert get_engine("exact").build is not None


def test_unknown_engine_is_an_error():
    with pytest.raises(ValueError, match="unknown engine"):
        get_engine("warp-drive")
    with pytest.raises(ValueError, match="unknown engine kind"):
        EngineSpec(kind="warp-drive")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_engine(
            EngineFactory(kind="exact", description="dupe", build=lambda *a, **k: None)
        )


def test_engine_spec_validation():
    with pytest.raises(ValueError, match="tracer_receivers"):
        EngineSpec(tracer_receivers=0)
    with pytest.raises(ValueError, match="step_interval"):
        EngineSpec(step_interval=-1.0)
    with pytest.raises(ValueError, match="max_reports_per_step"):
        EngineSpec(max_reports_per_step=0)


def test_engine_spec_flows_through_overrides_and_json():
    spec = get_scenario("scaling").spec(num_receivers=4)
    assert spec.engine == EngineSpec()  # default engine is exact
    cohort = spec.with_overrides(**{"engine.kind": "cohort", "engine.tracer_receivers": 3})
    assert cohort.engine.kind == "cohort"
    assert cohort.engine.tracer_receivers == 3
    round_tripped = ScenarioSpec.from_json(cohort.to_json())
    assert round_tripped.engine == cohort.engine
    # Pre-registry dicts carry no "engine" key and resolve to the default.
    legacy = cohort.to_dict()
    legacy.pop("engine")
    assert ScenarioSpec.from_dict(legacy).engine == EngineSpec()


def test_unavailable_engine_raises_at_build_not_at_spec(monkeypatch):
    import repro.engines.cohort as cohort_module

    spec = get_scenario("scaling").spec(num_receivers=8).with_overrides(
        **{"engine.kind": "cohort"}
    )  # spec construction must work without numpy
    monkeypatch.setattr(cohort_module, "_np", None)
    with pytest.raises(EngineUnavailableError, match="repro\\[cohort\\]"):
        get_engine("cohort").build(spec, seed=1)
    with pytest.raises(EngineUnavailableError, match="numpy"):
        get_engine("cohort").check_available()


# ------------------------------------------------- exact engine structure


def test_exact_engine_spends_one_event_per_link_packet_on_fan_out():
    """Structural perf guard: on multicast fan-out every leaf is idle, so a
    packet on a link costs one event (its arrival).  A second event per
    leaf packet (a serialisation-finish event) must not grow back."""
    spec = get_scenario("scaling").spec(num_receivers=50, duration=8.0)
    built = get_engine("exact").build(spec, seed=1)
    built.run()
    link_packets = sum(link.packets_sent for link in built.network.links)
    assert link_packets > 1000
    assert built.sim.events_processed / link_packets <= 1.05


@pytest.mark.parametrize(
    "name, params, low, high",
    [
        ("scaling", {"num_receivers": 200, "duration": 22.0}, 0.95, 1.0),
        ("protocol_mix", {"duration": 10.0}, 0.0, 0.0),
        ("fairness", {"duration": 10.0}, 0.0, 0.0),
    ],
)
def test_fan_out_deliveries_take_the_lane(name, params, low, high):
    """On a wide multicast tree nearly every event is a fan-out delivery
    merged into the lane; unicast workloads and one-receiver sessions never
    fan out, so they never touch it."""
    built = get_engine("exact").build(get_scenario(name).spec(**params), seed=1)
    built.run()
    sim = built.sim
    assert low <= sim.lane_events / sim.events_processed <= high


def _drive_receiver(seqs, reference):
    """Feed data packets with sequence numbers ``seqs`` to one TFMCCReceiver.

    ``reference`` disables the in-order fast path, so every packet takes
    ``update_rtt`` + ``LossEventDetector.on_packet`` as before the split.
    """
    from repro.core.headers import DataHeader
    from repro.core.receiver import TFMCCReceiver
    from repro.simulator.engine import Simulator
    from repro.simulator.node import Agent
    from repro.simulator.packet import Packet
    from repro.simulator.topology import Network

    class Reports(Agent):
        def __init__(self, sim):
            super().__init__(sim, "session")
            self.headers = []

        def receive(self, packet):
            self.headers.append(packet.payload)

    sim = Simulator(seed=7)
    net = Network(sim)
    net.add_duplex_link("s", "r", 1e7, 0.01)
    reports = Reports(sim)
    net.attach("s", reports)
    receiver = TFMCCReceiver(sim, "r0", "session", "s", "group")
    net.attach("r", receiver)
    if reference:
        receiver.detector.on_in_order_packet = lambda seq, send_time, rtt: False

    def deliver(index, seq):
        header = DataHeader(
            seq=seq,
            timestamp=sim.now - 0.02,
            send_rate=50_000.0,
            round_id=index // 25,
            max_rtt=0.5,
            is_slowstart=index < 30,
            clr_id="r0" if index >= 60 else None,  # CLR: immediate feedback
        )
        if index % 17 == 5:  # an RTT echo now and then
            header.echo_receiver_id = "r0"
            header.echo_timestamp = sim.now - 0.045
            header.echo_delay = 0.005
        receiver.receive(Packet(src="s", dst=None, flow_id="session", size=1000,
                                group="group", seq=seq, payload=header))

    for index, seq in enumerate(seqs):
        sim.schedule_at(0.05 + index * 0.01, deliver, index, seq)
    sim.run()
    detector, history = receiver.detector, receiver.history
    return {
        "loss_events": detector.loss_events,
        "packets_lost": detector.packets_lost,
        "packets_received": detector.packets_received,
        "expected_seq": detector.expected_seq,
        "detector_rtt": detector.rtt,
        "intervals": history.intervals,
        "open_interval": history.open_interval,
        "loss_event_rate": history.loss_event_rate,
        "feedback_sent": receiver.feedback_sent,
        "feedback_suppressed": receiver.feedback_suppressed,
        "rtt": receiver.rtt.rtt,
        "reports": [
            (h.round_id, h.calculated_rate, h.loss_event_rate, h.rtt) for h in reports.headers
        ],
    }


GAPPED_AND_REORDERED = (
    list(range(20)) + list(range(22, 40))  # a two-packet gap
    + [42, 40, 41]  # reordering: 40 and 41 arrive late
    + list(range(43, 60)) + [59]  # a duplicate
    + [75] + list(range(76, 120))  # a gap spanning several RTTs
)


def test_receiver_fast_path_split_matches_the_full_detector_path():
    fast = _drive_receiver(GAPPED_AND_REORDERED, reference=False)
    full = _drive_receiver(GAPPED_AND_REORDERED, reference=True)
    assert fast == full
    assert fast["loss_events"] >= 3 and fast["feedback_sent"] > 0
    assert len(fast["intervals"]) >= 2 and fast["reports"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, 1, 1, 1, 1, 2, 3, 12, 0, -1, -2]), min_size=5, max_size=120))
def test_receiver_fast_path_split_matches_on_generated_sequences(steps):
    seqs, seq = [], 0
    for step in steps:
        seq = max(seq + step, 0)
        seqs.append(seq)
    assert _drive_receiver(seqs, reference=False) == _drive_receiver(seqs, reference=True)


# ------------------------------------------------------- cohort cross-check


pytest.importorskip("numpy")


@pytest.mark.parametrize("receiver_estimate", [3, 10000])
@pytest.mark.parametrize("method", ["none", "offset", "modified_offset", "modified_n"])
def test_cohort_suppression_timers_equal_the_exact_receivers_timers(method, receiver_estimate):
    """Both engines turn one uniform vector into the same feedback timers,
    for every bias method (the cohort used to fall back to unbiased
    exponential timers for ``offset`` and ``modified_n``)."""
    from types import SimpleNamespace

    import numpy as np

    from repro.core.config import TFMCCConfig
    from repro.core.feedback import BiasMethod, FeedbackTimerPolicy
    from repro.engines.cohort import _FlowCohort

    config = TFMCCConfig(bias_method=BiasMethod(method), receiver_estimate=receiver_estimate)
    rng = np.random.default_rng(11)
    uniforms = np.concatenate(([0.0, 0.5, 1.0 - 2.0**-53], rng.random(397)))
    ratio = np.concatenate(([0.0, 1e-4, 0.5, 0.7, 0.9, 1.0], rng.random(394)))
    max_delay = 2.5

    cohort = SimpleNamespace(n=400, config=config, rng=SimpleNamespace(random=lambda n: uniforms))
    vectorised = _FlowCohort._suppression_timers(cohort, np, ratio, max_delay)

    draws = iter(uniforms.tolist())
    policy = FeedbackTimerPolicy(
        rng=SimpleNamespace(random=lambda: next(draws)),
        receiver_estimate=config.receiver_estimate,
        bias_method=config.bias_method,
        offset_fraction=config.offset_fraction,
        truncation_high=config.rate_truncation_high,
        truncation_low=config.rate_truncation_low,
    )
    exact = [policy.draw(max_delay, r).delay for r in ratio.tolist()]
    assert vectorised.tolist() == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_cohort_hears_the_lowest_echo_of_the_whole_cascade(monkeypatch):
    """A cohort member is cancelled by the lowest rate echoed so far.

    Member 1 fires before member 0's echo arrives, and the echo of its rate
    0.5 cancels member 2 (0.52 is within delta = 10 % of it).  The cohort
    used to hear only the first report's echo (rate 1.0), so member 2
    reported too.
    """
    import numpy as np

    spec = get_scenario("scaling").spec(num_receivers=5, duration=10.0)
    built = get_engine("cohort").build(spec.with_overrides(**{"engine.kind": "cohort"}), seed=1)
    cohort = built.cohorts[0]
    assert cohort.n == 3 and cohort.config.cancellation_delta == 0.1
    calc, rtt = np.array([1.0, 0.5, 0.52]), np.full(3, 0.1)
    monkeypatch.setattr(cohort, "_rates", lambda np_, anchor: (calc, np.full(3, 0.01), rtt))
    monkeypatch.setattr(
        cohort, "_suppression_timers", lambda np_, ratio, max_delay: np.array([0.0, 0.05, 1.0])
    )
    cohort._emit_feedback(np, 0.0)
    assert (cohort.reports_injected, cohort.suppressed) == (2, 1)


def test_cohort_injects_the_first_responders_up_to_the_cap(monkeypatch):
    """Late responders past 35 cancelled members still fill the cap, in timer order.

    Member 4 fires first (rate 1.0) and its echo cancels members 5-39
    (0.99); members 0-3 fire last, each more than delta below the lowest
    rate so far.  The round has five responders and the cap of 4 keeps the
    first four, which the cohort only reaches by widening its head past the
    cancelled members.
    """
    import numpy as np

    spec = get_scenario("scaling").spec(num_receivers=42, duration=10.0)
    built = get_engine("cohort").build(spec.with_overrides(**{"engine.kind": "cohort"}), seed=1)
    cohort = built.cohorts[0]
    assert cohort.n == 40 and cohort.engine.max_reports_per_step == 4
    calc = np.array([0.5, 0.4, 0.3, 0.2, 1.0] + [0.99] * 35)
    timers = np.array([5.0, 5.1, 5.2, 5.3, 0.0] + [1.0 + 0.01 * k for k in range(35)])
    monkeypatch.setattr(
        cohort, "_rates", lambda np_, anchor: (calc, np.full(40, 0.01), np.full(40, 0.1))
    )
    monkeypatch.setattr(cohort, "_suppression_timers", lambda np_, ratio, max_delay: timers)
    cohort._emit_feedback(np, 0.0)
    assert (cohort.reports_injected, cohort.suppressed) == (4, 36)
    assert sorted(cohort._reported.values()) == [0, 1, 2, 4]


#: Declared cross-validation tolerances (mirrors the scaling figure): the
#: cohort's independent loss draws track the Section-3 lower envelope, the
#: exact engine's correlated losses sit between that envelope and 1.
COHORT_RATIO_SLACK = 0.35
COHORT_RATIO_HEADROOM = 0.25


def _model_ratio(n: int, records) -> float:
    from repro.analysis.scaling import expected_minimum_rate_constant_loss

    links = records["links"]
    sent = links.get("packets_sent", 0)
    drops = links.get("queue_drops", 0) + links.get("random_drops", 0)
    p = max(drops / sent if sent else 0.0, 0.005)
    return expected_minimum_rate_constant_loss(n, p, 0.06) / expected_minimum_rate_constant_loss(
        1, p, 0.06
    )


@pytest.fixture(scope="module")
def scaling_200_pair():
    spec = get_scenario("scaling").spec(num_receivers=200, duration=45.0)
    exact = get_engine("exact").build(spec, seed=3)
    exact.run()
    cohort_spec = spec.with_overrides(**{"engine.kind": "cohort"})
    cohort = get_engine("cohort").build(cohort_spec, seed=3)
    cohort.run()
    return exact, cohort


def test_cohort_vs_exact_throughput_and_fairness(scaling_200_pair):
    exact, cohort = scaling_200_pair
    rec_exact = exact.collect()
    rec_cohort = cohort.collect()
    ratio = rec_cohort["tfmcc_mean_bps"] / rec_exact["tfmcc_mean_bps"]
    model = _model_ratio(200, rec_exact)
    assert model - COHORT_RATIO_SLACK <= ratio <= 1.0 + COHORT_RATIO_HEADROOM, (
        f"cohort/exact throughput ratio {ratio:.3f} outside "
        f"[{model - COHORT_RATIO_SLACK:.3f}, {1.0 + COHORT_RATIO_HEADROOM:.3f}]"
    )
    # One flow, shared multicast rate: both modes must be (near-)perfectly
    # fair across the receivers they report on.
    assert rec_exact["fairness_index"] > 0.95
    assert rec_cohort["fairness_index"] > 0.95
    stats = rec_cohort["engine"]
    assert stats["kind"] == "cohort"
    assert stats["receivers_total"] == 200
    assert stats["receivers_cohort"] == 200 - cohort.spec.engine.tracer_receivers
    assert stats["cohorts"][0]["reports"] > 0


def test_cohort_vs_exact_clr_identity(scaling_200_pair):
    exact, cohort = scaling_200_pair
    valid_ids = {f"tfmcc0-rcv{i}" for i in range(200)}
    for built in (exact, cohort):
        sender = built.sessions[0].sender
        assert sender.clr_id in valid_ids, f"CLR {sender.clr_id!r} not a flow receiver"
    # The cohort run's sender heard feedback from vectorised receivers.
    members = cohort.cohorts[0]
    cohort_ids = {members.member_id(i) for i in range(members.n)}
    assert cohort_ids == {f"tfmcc0-rcv{i}" for i in range(2, 200)}
    assert cohort_ids.isdisjoint(set(cohort.sessions[0].receivers))
    assert cohort.cohorts[0].reports_injected > 0


def test_cohort_degenerates_to_exact_when_all_receivers_traced():
    spec = get_scenario("scaling").spec(num_receivers=4, duration=20.0)
    rec_exact = run_scenario(spec, seed=3)
    traced = spec.with_overrides(
        **{"engine.kind": "cohort", "engine.tracer_receivers": 4}
    )
    rec_cohort = run_scenario(traced, seed=3)
    stats = rec_cohort.pop("engine")
    assert stats["receivers_cohort"] == 0 and stats["cohorts"] == []
    # With no receivers vectorised the engines are the same simulation.
    assert encode_record(rec_cohort) == encode_record(rec_exact)


def test_cohort_scales_past_exact_wall_time():
    import time

    spec = get_scenario("scaling").spec(num_receivers=10_000, duration=45.0)
    cohort_spec = spec.with_overrides(**{"engine.kind": "cohort"})
    start = time.perf_counter()
    record = run_scenario(cohort_spec, seed=1)
    wall = time.perf_counter() - start
    assert record["engine"]["receivers_cohort"] == 10_000 - 2
    # Far under the exact engine's ~5-10 s for a mere 200 receivers.
    assert wall < 5.0


def test_cohort_rates_match_a_fixed_order_reference_bit_for_bit():
    """The rate kernel is elementwise IEEE arithmetic in a stated order.

    It used to go through BLAS matrix products, whose rounding depends on
    the kernel OpenBLAS picks for the host CPU; the plain-Python loop below
    is the definition now, and any machine must reproduce it exactly.
    """
    import math

    import numpy as np

    from repro.core.equations import MAX_LOSS_RATE, MIN_LOSS_RATE

    spec = get_scenario("scaling").spec(num_receivers=66, duration=30.0)
    built = get_engine("cohort").build(
        spec.with_overrides(**{"engine.kind": "cohort"}), seed=5
    )
    built.run()
    cohort = built.cohorts[0]
    assert cohort.n == 64 and cohort.seeded
    anchor = cohort._anchor()
    calc, p, rtt = cohort._rates(np, anchor)

    weights = [float(w) for w in cohort.config.loss_interval_weights]
    weight_sum = cohort.weight_sum
    distinct = set()
    for i in range(cohort.n):
        history = [float(x) for x in cohort.intervals[:, i]]  # newest first
        closed = history[0] * weights[0]
        with_open = float(cohort.open_pkts[i]) * weights[0]
        for slot in range(1, len(weights)):
            closed += history[slot] * weights[slot]
            with_open += history[slot - 1] * weights[slot]
        average = max(closed / weight_sum, with_open / weight_sum)
        p_i = min(max(1.0 / max(average, 1.0), MIN_LOSS_RATE), MAX_LOSS_RATE)
        rtt_i = max(
            anchor.rtt.rtt * float(cohort.rtt_jitter[i]) + float(cohort.rtt_offset[i]), 1e-3
        )
        fast = rtt_i * math.sqrt(2.0 * p_i / 3.0)
        timeout = (4.0 * rtt_i) * (3.0 * math.sqrt(3.0 * p_i / 8.0)) * p_i * (1.0 + 32.0 * p_i * p_i)
        assert (float(p[i]), float(rtt[i])) == (p_i, rtt_i)
        assert float(calc[i]) == cohort.config.packet_size / (fast + timeout)
        distinct.add(float(calc[i]))
    assert len(distinct) == cohort.n  # 64 different histories, not one broadcast


# -------------------------------------------------------- sweep determinism


def test_cohort_sweep_serial_parallel_byte_identical(tmp_path):
    def run_records(jobs):
        runner = SweepRunner(
            "scaling",
            grid={"num_receivers": [400, 800]},
            params={"engine.kind": "cohort", "duration": 30.0},
            replications=1,
            base_seed=7,
            jobs=jobs,
        )
        return [encode_record(r) for r in runner.execute()]

    serial = run_records(jobs=1)
    parallel = run_records(jobs=2)
    assert serial == parallel
    assert len(serial) == 2
    for encoded in serial:
        assert '"engine":"cohort"' in encoded


def test_run_record_stamps_engine_kind():
    from repro.scenarios import RunExecutor, SweepRun

    spec = get_scenario("scaling").spec(num_receivers=4, duration=15.0)
    run = SweepRun(index=0, seed=1, params={}, spec_dict=spec.to_dict())
    with RunExecutor() as executor:
        record = executor.submit(run).result().stamp(run)
    assert record["run"]["engine"] == "exact"
