"""The paper's simulated experiments as registry scenarios: what each factory builds.

Nothing is simulated here: ``test_scenarios.py`` runs every registered scenario,
``test_report.py`` reduces canned records with the figure builds, ``benchmarks/``
runs the figures at quick scale against their checks.
"""

from repro.scenarios import build_scenario, get_scenario


def spec_of(name, **params):
    return get_scenario(name).spec(**params)


def tcp_flows(spec):
    return [flow for flow in spec.flows if flow.kind == "tcp-reno"]


def test_fig09_driver_runs_and_reports_all_flows():
    spec = spec_of("fairness", num_tcp=15, bottleneck_bps=8e6)
    assert [flow.kind for flow in spec.flows] == ["tfmcc"] + ["tcp-reno"] * 15
    assert (spec.topology.num_left, spec.topology.bottleneck_bps) == (16, 8e6)


def test_fig10_driver_runs():
    spec = spec_of("individual-bottlenecks", num_receivers=16, tail_bps=1e6)
    tails = [link for link in spec.topology.extra_links if link.bandwidth == 1e6]
    # One 1 Mbit/s tail per receiver, shared with exactly one TCP flow.
    assert len(tails) == len(spec.flows[0].receivers) == len(tcp_flows(spec)) == 16


def test_fig11_driver_phases_and_membership():
    spec = spec_of("responsiveness", first_join=100.0, join_interval=50.0, duration=400.0)
    schedule = [(r.join_at, r.leave_at) for r in spec.flows[0].receivers]
    # Joins in order of increasing loss, leaves in reverse; leaf0 stays throughout.
    assert schedule == [(0.0, None), (100.0, 350.0), (150.0, 300.0), (200.0, 250.0)]
    losses = [leaf.impairment.loss_rate for leaf in spec.topology.leaves]
    assert losses == [0.001, 0.005, 0.025, 0.125] and len(tcp_flows(spec)) == 4


def test_fig20_driver_uses_delays():
    delays = (0.03, 0.06, 0.12, 0.24)
    leaves = spec_of("responsiveness", link_delays=delays).topology.leaves
    assert [leaf.delay for leaf in leaves] == [d / 2 for d in delays]  # RTT / 2 one way
    assert all(leaf.impairment.loss_rate == 0.0 for leaf in leaves)


def test_fig21_driver_structure():
    spec = spec_of("increasing_congestion", flow_counts=(1, 2, 4, 8), phase_length=50.0)
    assert spec.duration == 250.0
    starts = [flow.start for flow in tcp_flows(spec)]
    assert starts == [50.0] + [100.0] * 2 + [150.0] * 4 + [200.0] * 8
    assert spec.flows[0].start == 0.0  # TFMCC has the link to itself in phase 0


def test_fig12_rtt_acquisition_monotone():
    spec = spec_of("rtt_acquisition", num_receivers=5, bottleneck_bps=4e6)
    # The shared hub link is the bottleneck; leaf RTTs spread over 60-140 ms.
    assert spec.topology.hub_bps == 4e6 < spec.topology.leaves[0].bandwidth
    delays = [round(leaf.delay, 6) for leaf in spec.topology.leaves]
    assert delays == [0.03, 0.04, 0.05, 0.06, 0.07]
    assert spec.metrics.with_trace  # the curve is the trace's rtt_acquired channel


def test_fig13_rtt_change_reaction():
    spec = spec_of("rtt_step", num_receivers=4, step_at=40.0, duration=190.0)
    (event,) = spec.dynamics.events
    assert (event.at, event.kind, event.delay) == (40.0, "link_update", 0.3)
    assert (event.a, event.b) == ("leaf0", "hub")
    assert spec.flows[0].receivers[0].receiver_id == "stepped"
    assert len({leaf.impairment.loss_rate for leaf in spec.topology.leaves}) == 1


def test_fig14_slowstart_scenarios():
    for num_tcp in (0, 1, 8):
        spec = spec_of("slowstart", num_receivers=4, num_tcp=num_tcp, fair_rate_bps=1e6)
        # The same 1 Mbit/s fair rate however many flows compete.
        assert spec.topology.bottleneck_bps == 1e6 * (num_tcp + 1)
        assert len(tcp_flows(spec)) == num_tcp and spec.topology.num_right >= 4
        # The TCP flows are already running when the session starts.
        assert spec.flows[0].start == 0.1 and all(f.start == 0.0 for f in tcp_flows(spec))


def test_fig15_late_join_driver():
    spec = spec_of("late-join", tail_bps=200e3, join_time=50.0, leave_time=100.0, duration=140.0)
    late = spec.flows[0].receivers[-1]
    assert (late.receiver_id, late.join_at, late.leave_at) == ("late-rcv", 50.0, 100.0)
    assert any(link.bandwidth == 200e3 for link in spec.topology.extra_links)
    assert "tcp_slow" not in [flow.name for flow in spec.flows]


def test_fig16_late_join_with_tcp_on_tail():
    spec = spec_of("late-join", with_tcp_on_tail=True)
    (on_tail,) = [flow for flow in spec.flows if flow.name == "tcp_slow"]
    assert on_tail.dst == spec.flows[0].receivers[-1].node  # it shares the slow tail


def test_fig18_return_path_traffic_driver():
    flows = tcp_flows(spec_of("return_path_traffic", return_flow_counts=(0, 1, 2, 4)))
    forward = [flow for flow in flows if flow.src == "source"]
    reverse = [flow.src for flow in flows if flow.dst == "source"]
    assert [flow.dst for flow in forward] == ["leaf0", "leaf1", "leaf2", "leaf3"]
    assert reverse == ["leaf1"] + ["leaf2"] * 2 + ["leaf3"] * 4


def test_fig19_lossy_return_paths_driver():
    rates = (0.0, 0.1, 0.2, 0.3)
    built = build_scenario(spec_of("lossy_return_paths", return_loss_rates=rates), seed=12)
    built.sim.run(until=0.001)  # the reverse link_update events fire at t = 0
    # Only the way back is lossy: receiver reports and ACKs, not data.
    link = built.network.link_between
    assert [link(f"leaf{i}", "hub").loss_rate for i in range(4)] == list(rates)
    assert all(link("hub", f"leaf{i}").loss_rate == 0.0 for i in range(4))
