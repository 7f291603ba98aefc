"""The cohort's star-leaf fill against the per-member loop it replaced.

On a star, each cohort member's private loss and RTT offset come from the
leaf it sits behind, and members behind distance-driven ``snr_per`` leaves
take part in the mobility refresh.  The cohort used to find that leaf with
one regex match and one leaf lookup per member; it now reads a
:class:`LeafRun` or a ``leaf{}`` :class:`ReceiverRun` as whole-array fills.
``per_member_fill`` below is the old loop, kept as the oracle: hypothesis
builds cohorts on stars of explicit or run-length leaves, with explicit or
run-length receivers, and the arrays must agree bit for bit.  Three mutants
of the new fill show the comparison sees the defects the rewrite invites.
"""

import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.engines import cohort as cohort_module  # noqa: E402
from repro.engines import get_engine  # noqa: E402
from repro.scenarios.spec import (  # noqa: E402
    ChannelSpec,
    DynamicsSpec,
    EdgeSpec,
    EngineSpec,
    FlowSpec,
    ImpairmentSpec,
    LeafRun,
    MobilitySpec,
    ReceiverRun,
    ReceiverSpec,
    ScenarioSpec,
    StarSpec,
    WaypointSpec,
)

from test_cohort_blocks import mutant  # noqa: E402

_LEAF = re.compile(r"^leaf(\d+)$")


def star_leaf(star, node):
    match = _LEAF.match(node)
    if match and int(match.group(1)) < len(star.leaves):
        return star.leaves[int(match.group(1))]
    return None


def per_member_fill(spec, cohort):
    """Private loss, RTT offset and refresh table as the per-member loop made them."""
    star, receivers = spec.topology, cohort._receivers
    packet_size = int(cohort.config.packet_size)
    nodes = [receivers[i].node for i in cohort._member_index]
    private = np.zeros(cohort.n)
    rtt_offset = np.zeros(cohort.n)
    for i, node in enumerate(nodes):
        leaf = star_leaf(star, node)
        if leaf is not None:
            private[i] = leaf.impairment.expected_loss_rate(packet_size)
            rtt_offset[i] = leaf.delay
    anchor = next((r for r in receivers if r.join_at <= 0.0), None)
    anchor_leaf = star_leaf(star, anchor.node) if anchor is not None else None
    if anchor_leaf is not None:
        rtt_offset -= anchor_leaf.delay
    rtt_offset *= 2.0
    refresh = []
    mobility = spec.dynamics.mobility
    if mobility is not None and mobility.position_at("hub", 0.0) is not None:
        for i, node in enumerate(nodes):
            leaf = star_leaf(star, node)
            channel = leaf.impairment.channel if leaf is not None else None
            if channel is None or channel.kind != "snr_per":
                continue
            params = channel.params
            if params.get("per") is not None or mobility.position_at(node, 0.0) is None:
                continue
            path = (
                float(params.get("tx_power_dbm", 20.0)),
                float(params.get("noise_dbm", -90.0)),
                float(params.get("ref_loss_db", 70.0)),
                float(params.get("path_loss_exponent", 3.0)),
                params.get("modulation", "qpsk"),
            )
            refresh.append((i, node, path))
    return private, rtt_offset, refresh


def cohort_refresh(cohort):
    if cohort._refresh_rows is None:
        return []
    paths = zip(
        cohort._refresh_tx.tolist(),
        cohort._refresh_noise.tolist(),
        cohort._refresh_ref_loss.tolist(),
        cohort._refresh_exponent.tolist(),
        cohort._refresh_modulations.tolist(),
    )
    return list(zip(cohort._refresh_rows.tolist(), cohort._refresh_nodes, paths))


IMPAIRMENTS = [
    ImpairmentSpec(),
    ImpairmentSpec(loss_rate=0.02),
    ImpairmentSpec(channel=ChannelSpec("snr_per", {"snr_db": 12.0})),
    ImpairmentSpec(channel=ChannelSpec("snr_per", {"distance": 8.0, "modulation": "bpsk"})),
    ImpairmentSpec(channel=ChannelSpec("snr_per", {"per": 0.01})),
]
edges = st.builds(
    EdgeSpec,
    bandwidth=st.sampled_from([2e6, 6e6]),
    delay=st.sampled_from([0.0, 0.005, 0.0125, 0.03]),
    impairment=st.sampled_from(IMPAIRMENTS),
)


@st.composite
def star_cohorts(draw):
    """A star, its TFMCC receivers and an optional mobility spec."""
    num_leaves = draw(st.integers(3, 12))
    if draw(st.booleans()):
        leaves = LeafRun(draw(edges), num_leaves)
    else:
        leaves = tuple(draw(st.lists(edges, min_size=num_leaves, max_size=num_leaves)))
    if draw(st.booleans()):
        first = draw(st.integers(0, num_leaves - 2))
        receivers = ReceiverRun("leaf{}", draw(st.integers(2, num_leaves - first)), first)
    else:
        nodes = draw(st.lists(st.integers(0, num_leaves - 1), min_size=2, unique=True))
        receivers = tuple(ReceiverSpec(f"leaf{i}") for i in nodes)
    mobility = None
    if draw(st.booleans()):
        placed = draw(st.lists(st.integers(0, num_leaves - 1), max_size=4, unique=True))
        mobility = MobilitySpec(
            positions={"hub": (0.0, 0.0), **{f"leaf{i}": (5.0 + i, 0.0) for i in placed}},
            waypoints=tuple(WaypointSpec(f"leaf{i}", 4.0, 12.0, 0.0) for i in placed[:1]),
        )
    return star_spec(leaves, receivers, mobility)


def star_spec(leaves, receivers, mobility=None):
    return ScenarioSpec(
        name="star-fill",
        duration=8.0,
        topology=StarSpec(leaves=leaves, hub_bps=2e6),
        flows=(FlowSpec(kind="tfmcc", src="source", receivers=receivers),),
        dynamics=DynamicsSpec(mobility=mobility),
        engine=EngineSpec(kind="cohort", tracer_receivers=1),
    )


def assert_fill_matches_the_oracle(spec):
    cohort = get_engine("cohort").build(spec, seed=1).cohorts[0]
    private, rtt_offset, refresh = per_member_fill(spec, cohort)
    assert cohort.private_loss.tobytes() == private.tobytes()
    assert cohort.rtt_offset.tobytes() == rtt_offset.tobytes()
    assert cohort_refresh(cohort) == refresh


#: Stars on which every mutant leaves the oracle: mixed explicit leaves (two
#: distance-driven, one placed by the mobility spec) behind receivers that
#: skip leaves, and behind a receiver run that starts at leaf 2.
_MIXED = (
    EdgeSpec(2e6, 0.005),
    EdgeSpec(6e6, 0.0125, impairment=IMPAIRMENTS[1]),
    EdgeSpec(2e6, 0.03, impairment=IMPAIRMENTS[3]),
    EdgeSpec(6e6, 0.0, impairment=IMPAIRMENTS[2]),
    EdgeSpec(2e6, 0.005, impairment=IMPAIRMENTS[3]),
)
_WITNESSES = [
    star_spec(
        _MIXED,
        tuple(ReceiverSpec(f"leaf{i}") for i in (0, 2, 4)),
        MobilitySpec(positions={"hub": (0.0, 0.0), "leaf4": (6.0, 0.0)}),
    ),
    star_spec(
        _MIXED,
        ReceiverRun("leaf{}", 3, 2),
        MobilitySpec(positions={"hub": (0.0, 0.0), "leaf4": (6.0, 0.0)}),
    ),
]


@settings(max_examples=60, deadline=None)
@given(star_cohorts())
@example(_WITNESSES[0])
@example(_WITNESSES[1])
@example(star_spec(LeafRun(_MIXED[4], 7), ReceiverRun("leaf{}", 4, 2)))
def test_the_star_fill_matches_the_per_member_loop(spec):
    assert_fill_matches_the_oracle(spec)


_MUTANTS = {
    # A receiver run's members are read from leaf 0, whatever its first index.
    "run_first_ignored": (
        cohort_module,
        "_member_leaves",
        [(" + receivers.first", "")],
    ),
    # An explicit leaf tuple is indexed by leaf number into the distinct edges.
    "distinct_edges_indexed_by_leaf": (
        cohort_module,
        "_leaf_edges",
        [("for i in used.tolist()], which", "for i in used.tolist()], leaf")],
    ),
    # Every star member joins the mobility refresh, placed or not.
    "refresh_rows_unfiltered": (
        cohort_module._FlowCohort,
        "_init_channel_refresh",
        [("self._refresh_rows = rows[keep]", "self._refresh_rows = rows")],
    ),
}


def witnesses_pass():
    for spec in _WITNESSES:
        assert_fill_matches_the_oracle(spec)


def test_the_witnesses_pass_unmutated():
    witnesses_pass()


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_the_comparison_catches_mutant(name):
    owner, attribute, edits = _MUTANTS[name]
    with mock.patch.object(owner, attribute, mutant(getattr(owner, attribute), *edits)):
        with pytest.raises((AssertionError, IndexError)):
            witnesses_pass()


def test_a_leaf_run_star_looks_up_one_edge_for_all_its_members():
    spec = star_spec(
        LeafRun(EdgeSpec(6e6, 0.005, impairment=IMPAIRMENTS[2]), 2002),
        ReceiverRun("leaf{}", 2000),
    )
    calls = SimpleNamespace(n=0)
    expected = ImpairmentSpec.expected_loss_rate

    def counting(self, packet_size=1000):
        calls.n += 1
        return expected(self, packet_size)

    with mock.patch.object(ImpairmentSpec, "expected_loss_rate", counting):
        cohort = get_engine("cohort").build(spec, seed=1).cohorts[0]
    assert cohort.n == 1999
    assert calls.n == 1
