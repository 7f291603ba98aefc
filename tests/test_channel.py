"""Channel-model layer tests: registry, SNR->PER maths, contention, the
``Link`` channel seam, spec plumbing, mobility, and determinism.

Covers the channel-layer acceptance properties:

* the four built-in models are registered and validated through the
  channel registry (mirroring the protocol/engine registries),
* the SNR->BER->PER maths matches its closed form (scalar and the cohort
  engine's vectorised approximation),
* the ``loss_rate``/``gilbert_elliott`` spec fields and the
  ``bernoulli``/``gilbert_elliott`` channel kinds draw identically, and a
  link or impairment takes at most one loss process,
* mutation APIs: ``set_loss_rate`` on a link with a stateful channel warns
  that it replaces it,
* ``channel_update`` dynamics events and waypoint mobility are
  deterministic under fixed seeds,
* the cohort engine cross-validates against the exact engine at 200
  receivers under ``snr_per`` loss.
"""

import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.channel import (
    BernoulliChannel,
    ChannelFactory,
    ContentionChannel,
    GilbertElliottLoss,
    MODULATIONS,
    SnrPerChannel,
    bit_error_rate,
    channel_kinds,
    get_channel,
    packet_error_rate,
    register_channel,
    snr_from_distance,
    vector_packet_error_rate,
)
from repro.scenarios import get_scenario
from repro.scenarios.build import build_network, run_scenario, spec_uses_channels
from repro.scenarios.spec import (
    ChannelSpec,
    DynamicsSpec,
    EdgeSpec,
    FlowSpec,
    GilbertElliottSpec,
    ImpairmentSpec,
    MetricsSpec,
    MobilitySpec,
    NetworkEventSpec,
    ReceiverSpec,
    ScenarioSpec,
    StarSpec,
    WaypointSpec,
)
from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.simulator.topology import Network


# ----------------------------------------------------------------- registry


def test_registry_has_builtin_channels():
    assert channel_kinds() == ("bernoulli", "contention", "gilbert_elliott", "snr_per")
    factory = get_channel("snr_per")
    assert factory.kind == "snr_per"
    # Every call builds a fresh instance: channel state is never shared.
    one = factory({"snr_db": 12.0})
    two = factory({"snr_db": 12.0})
    assert one is not two


def test_unknown_channel_kind_is_an_error():
    with pytest.raises(ValueError, match="unknown channel kind"):
        get_channel("carrier-pigeon")


def test_duplicate_channel_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_channel(
            ChannelFactory(kind="bernoulli", description="dupe", build=BernoulliChannel)
        )


def test_factory_validate_maps_bad_params_to_value_error():
    with pytest.raises(ValueError):
        get_channel("bernoulli").validate({"loss_rate": 1.5})
    with pytest.raises(ValueError):
        get_channel("bernoulli").validate({"no_such_param": 1})
    get_channel("snr_per").validate({"distance": 8.0})


# ------------------------------------------------------------ SNR->PER maths


def test_ber_matches_closed_form():
    # QPSK: ber = Q(sqrt(snr)) with snr linear per-symbol Es/N0.
    snr = 10.0 ** (13.0 / 10.0)
    expected = 0.5 * math.erfc(math.sqrt(snr) / math.sqrt(2.0))
    assert bit_error_rate(13.0, "qpsk") == pytest.approx(expected, rel=1e-12)
    # BER approaches the 0.5 ceiling at deeply negative SNR and is monotone
    # decreasing in SNR for every modulation.
    assert bit_error_rate(-40.0, "qpsk") == pytest.approx(0.5, abs=0.005)
    for modulation in MODULATIONS:
        bers = [bit_error_rate(snr_db, modulation) for snr_db in range(-5, 30)]
        assert bers == sorted(bers, reverse=True)
    with pytest.raises(ValueError, match="unknown modulation"):
        bit_error_rate(10.0, "qam4096")


def test_per_reference_points_and_packet_size():
    # The QPSK cliff at 1000-byte packets: clean at 16 dB, ~24% at 12 dB.
    assert packet_error_rate(16.0, "qpsk", 1000) < 1e-4
    assert packet_error_rate(12.0, "qpsk", 1000) == pytest.approx(0.24, abs=0.02)
    assert packet_error_rate(11.5, "qpsk", 1000) == pytest.approx(0.49, abs=0.03)
    # Longer packets are more fragile at equal BER.
    assert packet_error_rate(12.0, "qpsk", 1500) > packet_error_rate(12.0, "qpsk", 500)
    assert packet_error_rate(-10.0, "qpsk", 1000) == 1.0


def test_snr_from_distance_log_distance_model():
    # Defaults: snr(d) = 20 - (70 + 30 log10 d) - (-90) = 40 - 30 log10 d.
    assert snr_from_distance(1.0) == pytest.approx(40.0)
    assert snr_from_distance(10.0) == pytest.approx(10.0)
    assert snr_from_distance(5.0) == pytest.approx(40.0 - 30.0 * math.log10(5.0))
    # Distances are clamped to 1 cm so log10 stays finite.
    assert snr_from_distance(0.0) == snr_from_distance(0.01)
    # A denser path-loss exponent decays faster.
    assert snr_from_distance(10.0, path_loss_exponent=4.0) < snr_from_distance(10.0)


def test_vector_per_matches_scalar():
    np = pytest.importorskip("numpy")
    snrs = np.linspace(8.0, 20.0, 60)
    for modulation in MODULATIONS:
        vec = vector_packet_error_rate(np, snrs, modulation, 1000)
        ref = np.array([packet_error_rate(s, modulation, 1000) for s in snrs])
        # A&S 7.1.26 erfc approximation: |error| < 1.5e-7 on erfc, which
        # amplifies through 1-(1-ber)^8000 to ~1e-3 on PER.
        assert np.max(np.abs(vec - ref)) < 2e-3


# ------------------------------------------------------------- model classes


def test_bernoulli_channel_draws_once_only_when_lossy():
    with pytest.raises(ValueError):
        BernoulliChannel(1.0)
    import random

    rng = random.Random(7)
    lossless = BernoulliChannel(0.0)
    before = rng.getstate()
    assert lossless.should_drop(rng) is False
    assert rng.getstate() == before  # zero-rate channels consume no draws
    assert BernoulliChannel(0.25).expected_loss_rate() == 0.25


def test_gilbert_elliott_stationary_rate():
    ge = GilbertElliottLoss(p_good_bad=0.1, p_bad_good=0.4)
    assert ge.stationary_loss_rate == pytest.approx(0.2)
    assert ge.expected_loss_rate() == pytest.approx(0.2)
    assert ge.cause == "burst"


def test_snr_per_channel_cache_and_retargeting():
    channel = SnrPerChannel(snr_db=12.0)
    assert channel.per_for(1000) == pytest.approx(packet_error_rate(12.0, "qpsk", 1000))
    assert channel.per_for(100) == pytest.approx(packet_error_rate(12.0, "qpsk", 100))
    channel.set_snr(16.0)
    assert channel.per_for(1000) < 1e-4
    # Distance-derived form: set_distance re-derives SNR via path loss.
    mobile = SnrPerChannel(distance=5.0)
    assert mobile.snr_db == pytest.approx(snr_from_distance(5.0))
    mobile.set_distance(12.0)
    assert mobile.snr_db == pytest.approx(snr_from_distance(12.0))
    # Fixed-PER override ignores SNR entirely until retargeted.
    fixed = SnrPerChannel(per=0.1)
    assert fixed.per_for(10) == 0.1 and fixed.per_for(10_000) == 0.1
    assert fixed.state()["snr_db"] is None
    fixed.set_snr(16.0)
    assert fixed.per_for(1000) < 1e-4
    with pytest.raises(ValueError, match="needs one of"):
        SnrPerChannel()


def test_contention_channel_slot_semantics():
    import random

    rng = random.Random(1)
    sim = SimpleNamespace(now=0.0)
    link_a = SimpleNamespace(sim=sim, name="a")
    link_b = SimpleNamespace(sim=sim, name="b")
    ch_a = ContentionChannel(medium="air", slot_time=0.001)
    ch_b = ContentionChannel(medium="air", slot_time=0.001)
    other = ContentionChannel(medium="ether", slot_time=0.001)
    ch_a.bind(link_a)
    ch_b.bind(link_b)
    other.bind(link_a)
    # First occupant captures the slot; a rival in the same slot collides.
    assert ch_a.should_drop(rng, now=0.0001) is False
    assert ch_b.should_drop(rng, now=0.0005) is True
    assert ch_b.collisions == 1
    # Back-to-back packets from the holder do not self-collide.
    assert ch_a.should_drop(rng, now=0.0009) is False
    # A different medium is independent slot state.
    assert other.should_drop(rng, now=0.0005) is False
    # The next slot is free again.
    assert ch_b.should_drop(rng, now=0.0015) is False
    assert ch_a.should_drop(rng, now=0.0016) is True


# ----------------------------------------------------------- link-level seam


def _duplex(sim, loss=0.0, channel_factory=None):
    net = Network(sim)
    net.add_duplex_link(
        "a", "b", 1e6, 0.01, queue_limit=10, loss_rate=loss, channel_factory=channel_factory
    )
    return net


def _forward_link(net):
    return next(link for link in net.links if link.name == "a->b")


def test_link_counts_drops_by_cause():
    sim = Simulator(seed=5)
    net = _duplex(sim, channel_factory=lambda: SnrPerChannel(per=0.5))
    link = _forward_link(net)
    for i in range(200):
        link.enqueue(Packet(src="a", dst="b", flow_id="f", size=1000, seq=i))
    sim.run()
    assert link.random_drops > 0
    assert link.drops_by_cause == {"per": link.random_drops}


def test_set_loss_rate_warns_when_replacing_stateful_channel():
    """``set_loss_rate`` replaces a stateful channel model — and says so."""
    sim = Simulator(seed=5)
    net = _duplex(sim)
    link = _forward_link(net)
    link.set_channel(GilbertElliottLoss(p_good_bad=0.5, p_bad_good=0.5))
    with pytest.warns(RuntimeWarning, match="replaces the active GilbertElliottLoss"):
        link.set_loss_rate(0.25)
    assert link.loss_rate == 0.25
    assert isinstance(link.channel, BernoulliChannel)


def test_loss_rate_property_assignment_still_shadowed_by_stateful_channel():
    # ``loss_rate`` is read off the installed channel, so there is nothing to
    # assign and no second copy of the rate for a stateful channel to shadow.
    sim = Simulator(seed=5)
    net = _duplex(sim, loss=0.5)
    link = _forward_link(net)
    assert isinstance(link.channel, BernoulliChannel) and link.loss_rate == 0.5
    with pytest.raises(AttributeError):
        link.loss_rate = 0.9
    ge = GilbertElliottLoss(p_good_bad=0.5, p_bad_good=0.5)
    link.set_channel(ge)
    assert link.channel is ge and link.loss_rate == 0.0
    link.set_channel(None)
    assert link.loss_rate == 0.0
    # One loss process per link: the shorthand and a model do not combine.
    with pytest.raises(ValueError, match="loss_rate and channel"):
        Network(sim).add_link("a", "b", 1e6, 0.01, loss_rate=0.1, channel=ge)


def test_set_channel_installs_and_clears():
    sim = Simulator(seed=5)
    net = _duplex(sim)
    link = _forward_link(net)
    contended = ContentionChannel(medium="air")
    link.set_channel(contended)
    assert link.channel is contended
    assert sim.__dict__["_channel_media"]["air"] is contended._slot_state
    link.set_channel(None)
    assert link.channel is None


# ----------------------------------------------------------------- spec layer


def test_channel_spec_validates_round_trips_and_hashes():
    spec = ChannelSpec("snr_per", {"snr_db": 12.0, "modulation": "qpsk"})
    again = ChannelSpec.from_dict(json.loads(json.dumps(asdict(spec))))
    assert again == spec
    assert hash(again) == hash(spec)
    model = spec.build()
    assert isinstance(model, SnrPerChannel)
    assert spec.expected_loss_rate(1000) == pytest.approx(
        packet_error_rate(12.0, "qpsk", 1000)
    )
    with pytest.raises(ValueError):
        ChannelSpec("no-such-model")
    with pytest.raises(ValueError):
        ChannelSpec("snr_per", {"snr_db": 12.0, "modulation": "morse"})


def test_impairment_spec_rejects_conflicting_loss_processes():
    channel = ChannelSpec("bernoulli", {"loss_rate": 0.1})
    bursty = GilbertElliottSpec(0.05, 0.45)
    with pytest.raises(ValueError, match="loss_rate and channel"):
        ImpairmentSpec(loss_rate=0.05, channel=channel)
    # Used to construct; the exact engine then lost 10 % and the cohort 19 %.
    with pytest.raises(ValueError, match="loss_rate and gilbert_elliott"):
        ImpairmentSpec(loss_rate=0.1, gilbert_elliott=bursty)
    with pytest.raises(ValueError, match="gilbert_elliott and channel"):
        ImpairmentSpec(gilbert_elliott=bursty, channel=channel)
    with pytest.raises(ValueError, match="loss_rate"):
        ImpairmentSpec(loss_rate=1.0)
    impairment = ImpairmentSpec(channel=channel)
    round_tripped = ImpairmentSpec.from_dict(json.loads(json.dumps(asdict(impairment))))
    assert round_tripped == impairment


@pytest.mark.parametrize(
    "impairment,expected",
    [
        (ImpairmentSpec(), 0.0),
        (ImpairmentSpec(loss_rate=0.1), 0.1),
        (ImpairmentSpec(gilbert_elliott=GilbertElliottSpec(0.05, 0.45)), 0.1),
        (ImpairmentSpec(gilbert_elliott=GilbertElliottSpec(0.1, 0.3, 0.01, 0.5)), 0.1325),
        (ImpairmentSpec(channel=ChannelSpec("bernoulli", {"loss_rate": 0.2})), 0.2),
        (ImpairmentSpec(channel=ChannelSpec("snr_per", {"per": 0.3})), 0.3),
        (
            ImpairmentSpec(channel=ChannelSpec("snr_per", {"snr_db": 11.0})),
            packet_error_rate(11.0, "qpsk", 500),
        ),
        (ImpairmentSpec(channel=ChannelSpec("contention", {"medium": "air"})), 0.0),
    ],
)
def test_engines_read_one_loss_rate_off_an_impairment(impairment, expected):
    """What the cohort engine models is what the exact engine's link runs."""
    assert impairment.expected_loss_rate(500) == pytest.approx(expected)
    network = build_network(
        Simulator(seed=1), StarSpec(leaves=(EdgeSpec(1e6, 0.01, impairment=impairment),))
    )
    down, up = network.link_between("hub", "leaf0"), network.link_between("leaf0", "hub")
    for link in (down, up):
        on_the_link = link.channel.expected_loss_rate(500) if link.channel is not None else 0.0
        assert on_the_link == impairment.expected_loss_rate(500)
    if down.channel is not None:
        assert down.channel is not up.channel  # a fresh model per direction


def test_dotted_override_reaches_channel_params():
    spec = get_scenario("wireless_last_hop").build(duration=8.0)
    assert spec_uses_channels(spec)
    tuned = spec.with_overrides(
        **{"topology.leaves.0.impairment.channel.params.snr_db": 11.5}
    )
    assert tuned.topology.leaves[0].impairment.channel.params["snr_db"] == 11.5
    assert spec.topology.leaves[0].impairment.channel.params["snr_db"] != 11.5


def test_mobility_spec_interpolates_waypoints():
    mobility = MobilitySpec(
        positions={"hub": (0.0, 0.0), "leaf1": (5.0, 0.0)},
        waypoints=(
            WaypointSpec("leaf1", 10.0, 15.0, 0.0),
            WaypointSpec("leaf1", 20.0, 5.0, 0.0),
        ),
        update_interval=0.5,
    )
    assert mobility.moving_nodes() == ("leaf1",)
    assert mobility.position_at("hub", 3.0) == (0.0, 0.0)
    assert mobility.position_at("leaf1", 0.0) == (5.0, 0.0)
    # Linear interpolation towards the first waypoint, then between them.
    assert mobility.position_at("leaf1", 5.0) == pytest.approx((10.0, 0.0))
    assert mobility.position_at("leaf1", 15.0) == pytest.approx((10.0, 0.0))
    # Past the last waypoint the node parks there; unknown nodes are None.
    assert mobility.position_at("leaf1", 99.0) == (5.0, 0.0)
    assert mobility.position_at("ghost", 1.0) is None
    round_tripped = MobilitySpec.from_dict(json.loads(json.dumps(asdict(mobility))))
    assert round_tripped == mobility


# -------------------------------------------------------------- determinism


def _star_spec(impairment, dynamics=None, duration=8.0, with_trace=False):
    return ScenarioSpec(
        name="channel-star",
        description="two-receiver star for channel determinism tests",
        duration=duration,
        topology=StarSpec(
            leaves=(EdgeSpec(2e6, 0.005, impairment=impairment), EdgeSpec(2e6, 0.005))
        ),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=(ReceiverSpec(node="leaf0"), ReceiverSpec(node="leaf1")),
            ),
        ),
        dynamics=dynamics or DynamicsSpec(),
        metrics=MetricsSpec(warmup_fraction=0.25, with_trace=with_trace),
    )


def test_explicit_bernoulli_channel_draws_like_legacy_loss_rate():
    """``channel: bernoulli`` and the ``loss_rate`` field are the same loss
    process, same RNG draw order."""
    legacy = _star_spec(ImpairmentSpec(loss_rate=0.05))
    explicit = _star_spec(
        ImpairmentSpec(channel=ChannelSpec("bernoulli", {"loss_rate": 0.05}))
    )
    assert not spec_uses_channels(legacy) and spec_uses_channels(explicit)
    rec_legacy = run_scenario(legacy, seed=11)
    rec_explicit = run_scenario(explicit, seed=11)
    # Identical draws -> identical dynamics; only channel-gated record keys
    # (the per-cause drop breakdown) may differ.
    assert rec_explicit["tfmcc_mean_bps"] == rec_legacy["tfmcc_mean_bps"]
    assert rec_explicit["flows"] == rec_legacy["flows"]
    assert rec_explicit["links"]["random_drops"] == rec_legacy["links"]["random_drops"]
    assert "channel_drops" not in rec_legacy["links"]
    assert rec_explicit["links"]["channel_drops"] == {
        "random": rec_explicit["links"]["random_drops"]
    }


def test_channel_update_mid_run_is_deterministic():
    """Installing and retargeting a channel mid-run must be reproducible
    and visible in the per-cause drop accounting."""
    dynamics = DynamicsSpec(
        events=(
            NetworkEventSpec(
                at=2.0,
                kind="channel_update",
                a="hub",
                b="leaf0",
                direction="forward",
                channel=ChannelSpec("snr_per", {"snr_db": 12.0}),
            ),
            NetworkEventSpec(
                at=5.0,
                kind="channel_update",
                a="hub",
                b="leaf0",
                direction="forward",
                snr_db=16.0,
            ),
        )
    )
    spec = _star_spec(ImpairmentSpec(), dynamics=dynamics, with_trace=True)
    first = run_scenario(spec, seed=4)
    second = run_scenario(spec, seed=4)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["links"]["channel_drops"]["per"] > 0
    applied = [e[1] for e in first["trace"]["dynamics"]["events"]]
    assert applied.count("channel_update") == 2
    # After the 16 dB retarget the sampled PER must have fallen to ~0.
    per_series = first["trace"]["channel"]["per_series"]
    assert max(per for _, _, per in per_series if per is not None) > 0.1
    assert per_series[-1][2] < 1e-4


def test_retargeting_snr_without_snr_channel_raises_at_fire_time():
    dynamics = DynamicsSpec(
        events=(
            NetworkEventSpec(at=2.0, kind="channel_update", a="hub", b="leaf0", snr_db=10.0),
        )
    )
    spec = _star_spec(ImpairmentSpec(), dynamics=dynamics)
    with pytest.raises(ValueError, match="snr_db"):
        run_scenario(spec, seed=4)


def test_mobile_receiver_scenario_is_deterministic():
    spec = get_scenario("mobile_receiver").build(duration=10.0)
    first = run_scenario(spec, seed=2)
    second = run_scenario(spec, seed=2)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    channel = first["trace"]["channel"]
    assert channel["mobility_updates"] == 20  # 10 s at 0.5 s intervals
    # The walkout must actually move the SNR (and with it the sampled PER).
    snrs = [snr for _, _, snr in channel["snr_series"]]
    assert max(snrs) - min(snrs) > 5.0


def test_contention_scenario_records_collisions():
    shared = ImpairmentSpec(
        channel=ChannelSpec("contention", {"medium": "air", "slot_time": 0.002})
    )
    spec = ScenarioSpec(
        name="contention-star",
        description="two wireless receivers on one shared medium",
        duration=8.0,
        topology=StarSpec(
            leaves=(EdgeSpec(2e6, 0.005, impairment=shared), EdgeSpec(2e6, 0.005, impairment=shared))
        ),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=(ReceiverSpec(node="leaf0"), ReceiverSpec(node="leaf1")),
            ),
        ),
        metrics=MetricsSpec(warmup_fraction=0.25, with_trace=True),
    )
    first = run_scenario(spec, seed=6)
    second = run_scenario(spec, seed=6)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["links"]["channel_drops"]["collision"] > 0
    assert first["trace"]["channel"]["collisions"] > 0


# ------------------------------------------------------ cohort cross-check


def test_cohort_vs_exact_at_200_receivers_under_snr_per_loss():
    """Cross-validate the cohort engine's analytic channel pricing against
    the exact engine on a 200-receiver wireless star (~0.1% PER — the
    regime where the cohort's independent-draw loss model is valid; see the
    scaling figure's envelope discussion for why it sits below exact)."""
    pytest.importorskip("numpy")
    wireless = ImpairmentSpec(
        channel=ChannelSpec("snr_per", {"snr_db": 14.25, "modulation": "qpsk"})
    )
    leaf = EdgeSpec(6e6, 0.005, impairment=wireless)
    spec = ScenarioSpec(
        name="wireless-xcheck",
        description="200 wireless receivers, one TFMCC session",
        duration=45.0,
        topology=StarSpec(leaves=tuple(leaf for _ in range(200)), hub_bps=2e6, hub_delay=0.01),
        flows=(
            FlowSpec(
                kind="tfmcc",
                src="source",
                receivers=tuple(ReceiverSpec(node=f"leaf{i}") for i in range(200)),
            ),
        ),
        metrics=MetricsSpec(warmup_fraction=0.25),
    )
    rec_exact = run_scenario(spec, seed=3)
    rec_cohort = run_scenario(spec.with_overrides(**{"engine.kind": "cohort"}), seed=3)
    assert rec_exact["links"]["channel_drops"]["per"] > 0
    ratio = rec_cohort["tfmcc_mean_bps"] / rec_exact["tfmcc_mean_bps"]
    assert 0.4 <= ratio <= 1.25, f"cohort/exact throughput ratio {ratio:.3f}"
    assert rec_exact["fairness_index"] > 0.95
    assert rec_cohort["fairness_index"] > 0.95
    assert rec_cohort["engine"]["kind"] == "cohort"
    assert rec_cohort["engine"]["receivers_total"] == 200


# -------------------------------------------------------- registry scenarios


def test_wireless_scenarios_are_registered():
    wireless = get_scenario("wireless_last_hop")
    assert "snr_per" in wireless.description
    spec = wireless.build(duration=8.0, num_receivers=3)
    assert len(spec.topology.leaves) == 5  # 3 tfmcc + tfrc + tcp leaves
    assert {flow.kind for flow in spec.flows} == {"tfmcc", "tfrc", "tcp-reno"}
    mobile = get_scenario("mobile_receiver").build(duration=8.0)
    assert mobile.dynamics.mobility is not None
    assert mobile.dynamics.mobility.moving_nodes() == ("leaf1",)
