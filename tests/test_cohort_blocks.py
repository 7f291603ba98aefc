"""The cohort's block-wise step against the whole-cohort step it replaced.

``WholeCohortStep`` below is the cohort step as it was before it worked in
member blocks: seeding, history advance, rates, timers and the timer-ordered
head, each on member-sized arrays at once.  The block-wise step must draw the
same numbers in the same order and reach the same state, whatever the block
size, so hypothesis drives both through random steps with the block size
patched to 1, 7 and 64 and compares them after every step.  Three mutants of
the block-wise step show the comparison sees the defects a block rework
invites.
"""

import copy
import inspect
import math
import textwrap
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.config import TFMCCConfig  # noqa: E402
from repro.core.equations import MAX_LOSS_RATE, MIN_LOSS_RATE  # noqa: E402
from repro.core.feedback import (  # noqa: E402
    MIN_RECEIVER_ESTIMATE,
    BiasMethod,
    suppression_round,
)
from repro.core.loss_history import LossIntervalHistory  # noqa: E402
from repro.engines import cohort as cohort_module  # noqa: E402
from repro.engines.cohort import _CohortPlan, _FlowCohort  # noqa: E402
from repro.scenarios.spec import EngineSpec  # noqa: E402


class WholeCohortStep:
    """The whole-cohort step (member-sized temporaries), kept as the oracle."""

    def __init__(self, cohort):
        self.n = cohort.n
        self.rng = copy.deepcopy(cohort.rng)
        self.config = cohort.config
        self.cap = cohort.engine.max_reports_per_step
        self.weights = cohort.weights
        self.weight_sum = cohort.weight_sum
        self.history_len = cohort.history_len
        self.intervals = cohort.intervals.copy()
        self.open_pkts = cohort.open_pkts.copy()
        self.private_loss = cohort.private_loss.copy()
        self.rtt_offset = cohort.rtt_offset.copy()
        self.rtt_jitter = cohort.rtt_jitter.copy()
        self.seeded = False
        self.anchor_events = 0
        self.suppressed = 0

    def advance(self, anchor, dt, send_rate):
        history = anchor.history
        if not self.seeded:
            if not history.has_loss:
                return
            closed = list(history.intervals)
            mean_interval = max(sum(closed) / len(closed), 1.0)
            draws = self.rng.exponential(mean_interval, size=(self.n, self.history_len))
            np.maximum(draws.T, 1.0, out=self.intervals)
            self.open_pkts[:] = self.rng.random(self.n) * max(history.open_interval, 0.0)
            self.anchor_events = anchor.detector.loss_events
            self.seeded = True
            return
        if dt is None or dt <= 0:
            return
        packets = max(send_rate * dt / self.config.packet_size, 0.0)
        shared_events = anchor.detector.loss_events - self.anchor_events
        self.anchor_events = anchor.detector.loss_events
        mean_interval = max(history.average_loss_interval(), 1.0)
        lam = float(shared_events) + packets * self.private_loss
        events = self.rng.poisson(lam) if np.any(lam > 0) else np.zeros(self.n, dtype=int)
        events = np.minimum(events, self.history_len)
        hit = events > 0
        if np.any(hit):
            for count in range(1, self.history_len + 1):
                rows = events == count
                hits = int(np.count_nonzero(rows))
                if not hits:
                    continue
                draws = self.rng.exponential(mean_interval, size=(hits, count))
                np.maximum(draws, 1.0, out=draws)
                self.intervals[count:, rows] = self.intervals[: self.history_len - count, rows]
                self.intervals[:count, rows] = draws.T
            self.open_pkts[hit] = packets * self.rng.random(int(np.count_nonzero(hit)))
        self.open_pkts[~hit] += packets

    def rates(self, anchor_rtt):
        intervals, weights = self.intervals, self.weights
        closed = intervals[0] * weights[0]
        with_open = self.open_pkts * weights[0]
        for slot in range(1, self.history_len):
            closed += intervals[slot] * weights[slot]
            with_open += intervals[slot - 1] * weights[slot]
        avg = np.maximum(closed / self.weight_sum, with_open / self.weight_sum)
        p = np.clip(1.0 / np.maximum(avg, 1.0), MIN_LOSS_RATE, MAX_LOSS_RATE)
        rtt = np.maximum(anchor_rtt * self.rtt_jitter + self.rtt_offset, 1e-3)
        term_fast = rtt * np.sqrt(2.0 * p / 3.0)
        term_timeout = (4.0 * rtt) * (3.0 * np.sqrt(3.0 * p / 8.0)) * p * (1.0 + 32.0 * p * p)
        return self.config.packet_size / (term_fast + term_timeout), p, rtt

    def timers(self, ratio, max_delay):
        u = 1.0 - self.rng.random(self.n)
        method = self.config.bias_method
        estimate = self.config.receiver_estimate
        if method is BiasMethod.MODIFIED_N:
            reduced = (estimate * np.maximum(ratio, 1e-3)).astype(np.int64)
            log_n = np.log(np.maximum(reduced, MIN_RECEIVER_ESTIMATE))
        else:
            log_n = math.log(max(estimate, 2))
        exponential = np.maximum(max_delay * (1.0 + np.log(u) / log_n), 0.0)
        if method is BiasMethod.NONE or method is BiasMethod.MODIFIED_N:
            return exponential
        if method is BiasMethod.MODIFIED_OFFSET:
            low = self.config.rate_truncation_low
            high = self.config.rate_truncation_high
            ratio = (np.clip(ratio, low, high) - low) / (high - low)
        offset = self.config.offset_fraction
        return offset * ratio * max_delay + (1.0 - offset) * exponential

    def feedback(self, anchor_rtt, send_rate, clr_index):
        """``(calc, [(member, calc, p, rtt) injected])`` of one step."""
        calc, p, rtt = self.rates(anchor_rtt)
        eligible = calc < send_rate
        ratio = np.clip(calc / max(send_rate, 1e-9), 0.0, 1.0)
        max_delay = self.config.feedback_delay_for_rate(max(send_rate * 8.0, 1.0))
        timers = self.timers(ratio, max_delay)
        reporters = []
        if np.any(eligible):
            candidates = np.flatnonzero(eligible)
            order = candidates[np.argsort(timers[candidates], kind="stable")]
            size = cap = self.cap
            while True:
                head = order[:size]
                responders = suppression_round(
                    timers[head].tolist(),
                    calc[head].tolist(),
                    rtt[head].tolist(),
                    self.config.cancellation_delta,
                )
                if len(responders) >= cap or size >= len(order):
                    break
                size *= 4
            reporters = head[responders[:cap]].tolist()
            self.suppressed += len(candidates) - len(reporters)
        if clr_index is not None and clr_index not in reporters:
            reporters.insert(0, clr_index)
        return calc, [(i, float(calc[i]), float(p[i]), float(rtt[i])) for i in reporters]


def make_cohort(case, anchor):
    """A cohort of ``case.n`` members with the case's config, outside a simulation."""
    config = TFMCCConfig(
        bias_method=case.method,
        receiver_estimate=case.estimate,
        cancellation_delta=case.delta,
    )
    sender = SimpleNamespace(current_rate=1.0, clr_id=None)
    session = SimpleNamespace(sender=sender, config=config, receivers={"anchor": anchor})
    spec = SimpleNamespace(
        engine=EngineSpec(kind="cohort", max_reports_per_step=case.cap),
        flows=[SimpleNamespace(receivers=None)],
        topology=None,
    )
    plan = _CohortPlan(0, "tfmcc0", range(2, case.n + 2))
    cohort = _FlowCohort(SimpleNamespace(sim=None), session, plan, spec, case.seed)
    # Private loss on some members spreads their event counts apart.
    loss = np.random.default_rng(case.seed)
    cohort.private_loss[:] = loss.choice([0.0, case.private], case.n) * loss.random(case.n)
    cohort.injected = []

    def inject(index, calc, p, rtt, now):
        cohort._reported[f"m{index}"] = index
        cohort.injected.append((index, calc, p, rtt))

    cohort._inject_report = inject
    return cohort


def run_both(case, block):
    """Step the block-wise cohort and the oracle alike; assert equal after each step."""
    anchor_history = LossIntervalHistory(TFMCCConfig().loss_interval_weights)
    anchor_history.record_loss_event()
    for interval in case.history:
        anchor_history.record_packet(interval)
        anchor_history.record_loss_event()
    anchor_history.record_packet(case.open_interval)
    anchor = SimpleNamespace(
        history=anchor_history,
        detector=SimpleNamespace(loss_events=0),
        rtt=SimpleNamespace(rtt=0.1),
    )
    with mock.patch.object(cohort_module, "_BLOCK", block):
        cohort = make_cohort(case, anchor)
        oracle = WholeCohortStep(cohort)
        for dt, new_events, send_rate, anchor_rtt, share, clr in case.steps:
            anchor.detector.loss_events += new_events
            anchor.rtt.rtt = anchor_rtt
            reported = sorted(cohort._reported.values())
            clr_index = reported[clr % len(reported)] if clr is not None and reported else None
            cohort.sender.clr_id = None if clr_index is None else f"m{clr_index}"
            cohort.sender.current_rate = send_rate
            cohort.injected.clear()

            cohort._advance_state(np, anchor, dt)
            oracle.advance(anchor, dt, send_rate)
            assert cohort.seeded == oracle.seeded
            if oracle.seeded:
                # The rate the members compare against: the given share of
                # them lie strictly below it (ties aside).
                ranked = np.sort(oracle.rates(anchor_rtt)[0])
                send_rate = ranked[round(min(share, 1.0) * (case.n - 1))] * max(share, 1.0)
                cohort.sender.current_rate = float(send_rate)
                cohort._emit_feedback(np, 0.0)
                calc, injected = oracle.feedback(anchor_rtt, float(send_rate), clr_index)
                assert np.array_equal(cohort._rates(np, anchor)[0], calc)
                assert [i for i, *_ in cohort.injected] == [i for i, *_ in injected]
                assert cohort.injected == injected
                assert cohort.suppressed == oracle.suppressed
            assert np.array_equal(cohort.intervals, oracle.intervals)
            assert np.array_equal(cohort.open_pkts, oracle.open_pkts)
            assert cohort.rng.bit_generator.state == oracle.rng.bit_generator.state


_STEP = st.tuples(
    st.sampled_from([0.0, 0.5, 2.0]),  # dt
    st.integers(0, 3),  # shared loss events the anchor saw
    st.sampled_from([1e3, 3e4, 1e5, 3e5, 1e7]),  # send rate, bytes/s
    st.sampled_from([0.02, 0.1, 0.5]),  # anchor RTT
    st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, 2.0]),  # share of members eligible (2: all)
    st.one_of(st.none(), st.integers(0, 3)),  # CLR: one of the reported members
)


@st.composite
def cohort_cases(draw):
    return SimpleNamespace(
        n=draw(st.integers(1, 150)),
        seed=draw(st.integers(0, 2**32 - 1)),
        cap=draw(st.integers(1, 5)),
        method=draw(st.sampled_from(list(BiasMethod))),
        estimate=draw(st.sampled_from([3, 100, 10000])),
        delta=draw(st.sampled_from([0.0, 0.1, 1.0])),
        private=draw(st.sampled_from([0.0, 1e-3, 0.05])),
        history=draw(st.lists(st.floats(1.0, 1000.0), min_size=0, max_size=9)),
        open_interval=draw(st.floats(0.0, 500.0)),
        steps=[(None,) + draw(_STEP)[1:]] + draw(st.lists(_STEP, max_size=4)),
    )


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=40, deadline=None)
@given(case=cohort_cases())
def test_block_step_matches_the_whole_cohort_step(block, case):
    run_both(case, block)


def mutant(function, *edits):
    """``function`` recompiled with each ``(old, new)`` source edit applied."""
    source = inspect.getsource(function)
    for old, new in edits:
        assert old in source, old
        source = source.replace(old, new)
    source = textwrap.dedent(source)
    namespace = {}
    exec(compile(source, f"<mutant {function.__name__}>", "exec"), vars(cohort_module), namespace)
    return namespace[function.__name__]


_MUTANTS = {
    # Only eligible members draw a uniform.
    "uniforms_for_eligible_only": (
        _FlowCohort,
        "_timer_order",
        [
            ("uniform = rng.random(stop - start)\n            ", ""),
            ("uniform[eligible]", "rng.random(len(eligible))"),
        ],
    ),
    # Each block draws its fresh intervals for every count before the next
    # block does, instead of every member with one count before the next count.
    "per_block_per_count_draws": (
        _FlowCohort,
        "_advance_state",
        [
            (
                "for count in range(1, depth + 1):\n"
                "            for (start, stop), tally in zip(blocks, tallies):",
                "for (start, stop), tally in zip(blocks, tallies):\n"
                "            for count in range(1, depth + 1):",
            )
        ],
    ),
    # The members after the last whole block are never stepped.
    "final_partial_block_dropped": (
        cohort_module,
        "_blocks",
        [("range(0, n, _BLOCK)", "range(0, n - n % _BLOCK, _BLOCK)")],
    ),
}

#: A case on which every mutant leaves the oracle: 20 members in blocks of
#: 7, some with private loss, and steps that make part of them eligible.
_WITNESS = SimpleNamespace(
    n=20,
    seed=3,
    cap=2,
    method=BiasMethod.MODIFIED_OFFSET,
    estimate=10000,
    delta=0.1,
    private=0.05,
    history=[40.0, 60.0, 25.0],
    open_interval=10.0,
    steps=[(None, 0, 1e5, 0.1, 0.5, None), (2.0, 1, 1e5, 0.1, 0.5, None), (2.0, 2, 3e5, 0.1, 0.9, 0)],
)


def test_the_witness_passes_unmutated():
    run_both(_WITNESS, 7)


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_the_comparison_catches_mutant(name):
    owner, attribute, edits = _MUTANTS[name]
    with mock.patch.object(owner, attribute, mutant(getattr(owner, attribute), *edits)):
        with pytest.raises(AssertionError):
            run_both(_WITNESS, 7)
