"""Tests for TFMCCConfig validation and derived quantities."""

import pytest

from repro.core.config import POSITIVE_FIELDS, TFMCCConfig, loss_interval_weights
from repro.core.feedback import BiasMethod


def test_defaults_match_paper():
    cfg = TFMCCConfig()
    assert cfg.packet_size == 1000
    assert cfg.initial_rtt == pytest.approx(0.5)
    assert cfg.feedback_rtts == pytest.approx(4.0)
    assert cfg.receiver_estimate == 10000
    assert cfg.cancellation_delta == pytest.approx(0.1)
    assert cfg.bias_method is BiasMethod.MODIFIED_OFFSET
    assert cfg.loss_interval_weights == [5.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0]


def test_feedback_delay_is_multiple_of_max_rtt():
    cfg = TFMCCConfig(max_rtt=0.1, feedback_rtts=4.0)
    assert cfg.feedback_delay == pytest.approx(0.4)


def test_low_rate_feedback_delay_extension():
    cfg = TFMCCConfig(max_rtt=0.1, feedback_rtts=4.0, low_rate_spacing_packets=3)
    # At a high rate the normal delay applies.
    assert cfg.feedback_delay_for_rate(10e6) == pytest.approx(0.4)
    # At 8 kbit/s one packet takes a second: the delay grows to (g+1) packets.
    assert cfg.feedback_delay_for_rate(8000.0) == pytest.approx(4.0)
    # Degenerate rate falls back to the normal delay.
    assert cfg.feedback_delay_for_rate(0.0) == pytest.approx(0.4)


def test_custom_history_length_regenerates_weights():
    cfg = TFMCCConfig(num_loss_intervals=16)
    assert len(cfg.loss_interval_weights) == 16


def test_explicit_weights_must_match_length():
    with pytest.raises(ValueError):
        TFMCCConfig(num_loss_intervals=4, loss_interval_weights=[1.0, 1.0, 1.0])
    cfg = TFMCCConfig(num_loss_intervals=3, loss_interval_weights=[3.0, 2.0, 1.0])
    assert cfg.loss_interval_weights == [3.0, 2.0, 1.0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"packet_size": 0},
        {"initial_rtt": 0.0},
        {"max_rtt": -1.0},
        {"cancellation_delta": 1.5},
        {"offset_fraction": 0.0},
        {"num_loss_intervals": 1},
        {"receiver_estimate": 0},
        {"rate_truncation_low": 0.9, "rate_truncation_high": 0.5},
    ],
)
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ValueError):
        TFMCCConfig(**kwargs)


def test_weight_generator_consistency_with_config():
    cfg = TFMCCConfig(num_loss_intervals=32)
    assert cfg.loss_interval_weights == loss_interval_weights(32)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True], ids=repr)
@pytest.mark.parametrize("name", POSITIVE_FIELDS)
def test_positive_fields_refuse_non_finite_values_and_bools_by_name(name, value):
    """``initial_rtt=inf`` used to run to a near-zero record, ``max_rtt=nan``
    and ``feedback_rtts=nan`` to fail mid-run with ``cannot schedule event in
    the past (delay=nan)``, and ``slowstart_overshoot=inf`` to hang a 3 s run."""
    from repro.scenarios import get_scenario

    with pytest.raises(ValueError, match=f"{name} must be a positive finite number"):
        TFMCCConfig(**{name: value})
    spec = get_scenario("fairness").spec(duration=3.0)
    with pytest.raises(ValueError, match=f"{name} must be a positive finite number"):
        spec.with_overrides(**{f"flows.0.params.{name}": value})
