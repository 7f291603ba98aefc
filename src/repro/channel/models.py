"""Channel-model implementations: the loss processes a :class:`~repro.simulator.link.Link` consults.

Every model implements one seam — ``should_drop(rng, now, packet)`` — and the
link counts a drop against the model's ``cause``.  Models are constructed from
JSON-serialisable parameter mappings through the registry in
:mod:`repro.channel.registry`, which makes them expressible in scenario specs
(``ImpairmentSpec.channel``) and mutable through ``channel_update`` dynamics
events.

The four built-in models:

``bernoulli``
    Independent per-packet loss with a fixed ``loss_rate`` — what a link's
    ``loss_rate`` shorthand installs.
``gilbert_elliott``
    Two-state Markov bursty loss.
``snr_per``
    Wireless link: an SNR (either given directly or derived from a
    log-distance path-loss model) is mapped through a modulation-keyed
    BER curve to a packet-size-dependent packet error rate.
``contention``
    Slotted shared-medium (TDMA/CSMA-like) collision loss across all links
    tagged with the same ``medium``.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulator.link import Link
    from repro.simulator.packet import Packet

#: Packet size (bytes) assumed when a loss-rate estimate is needed without a
#: concrete packet (cohort engine, analytic checks, __repr__).
DEFAULT_PACKET_SIZE = 1000


class ChannelModel:
    """Base class for per-link loss processes.

    Subclasses override :meth:`should_drop`; the remaining hooks have safe
    defaults so trivial models stay trivial.  Each link direction must own
    its *own* instance: channel state (Markov state, SNR, slot bookkeeping)
    is per-channel.
    """

    #: Registry kind string (matches the factory the model was built from).
    kind = "base"
    #: Drop-cause label used for telemetry and the per-link drop breakdown.
    cause = "random"
    #: True when :meth:`state` exposes time-varying observables worth
    #: sampling into the trace (SNR/PER series, collision counts).
    observable = False

    def should_drop(self, rng: random.Random, now: float = 0.0, packet: Optional["Packet"] = None) -> bool:
        """Advance the channel by one offered packet and decide its fate."""
        raise NotImplementedError

    def bind(self, link: "Link") -> None:
        """Attach the model to its link (e.g. join a shared medium)."""

    def expected_loss_rate(self, packet_size: int = DEFAULT_PACKET_SIZE) -> float:
        """Long-run average loss rate, for analytic models (0 otherwise)."""
        return 0.0

    def state(self) -> Dict[str, Any]:
        """Current observables for the channel trace probe."""
        return {}


class BernoulliChannel(ChannelModel):
    """Independent (i.i.d.) packet loss with a fixed drop probability."""

    kind = "bernoulli"
    cause = "random"

    __slots__ = ("loss_rate",)

    def __init__(self, loss_rate: float):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate

    def should_drop(self, rng: random.Random, now: float = 0.0, packet: Optional["Packet"] = None) -> bool:
        loss = self.loss_rate
        return loss > 0.0 and rng.random() < loss

    def expected_loss_rate(self, packet_size: int = DEFAULT_PACKET_SIZE) -> float:
        return self.loss_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BernoulliChannel(loss_rate={self.loss_rate})"


class GilbertElliottLoss(ChannelModel):
    """Two-state Markov (Gilbert-Elliott) packet-loss process.

    The channel alternates between a GOOD and a BAD state.  On every offered
    packet the state first transitions (GOOD->BAD with probability
    ``p_good_bad``, BAD->GOOD with probability ``p_bad_good``), then the
    packet is dropped with the loss probability of the resulting state.

    The classic Gilbert model is ``loss_good=0, loss_bad=1``; the expected
    burst length is then ``1 / p_bad_good`` packets and the stationary loss
    rate ``p_good_bad / (p_good_bad + p_bad_good)``.
    """

    kind = "gilbert_elliott"
    cause = "burst"

    __slots__ = ("p_good_bad", "p_bad_good", "loss_good", "loss_bad", "bad")

    def __init__(
        self,
        p_good_bad: float,
        p_bad_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        start_bad: bool = False,
    ):
        for name, p in (
            ("p_good_bad", p_good_bad),
            ("p_bad_good", p_bad_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = start_bad

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average loss rate of the process."""
        total = self.p_good_bad + self.p_bad_good
        if total <= 0.0:
            return self.loss_bad if self.bad else self.loss_good
        pi_bad = self.p_good_bad / total
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def should_drop(self, rng: random.Random, now: float = 0.0, packet: Optional["Packet"] = None) -> bool:
        """Advance the channel state by one packet and decide its fate."""
        if self.bad:
            if rng.random() < self.p_bad_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_bad:
                self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        return loss > 0.0 and rng.random() < loss

    def expected_loss_rate(self, packet_size: int = DEFAULT_PACKET_SIZE) -> float:
        return self.stationary_loss_rate


# --------------------------------------------------------------- SNR -> PER

#: modulation -> (bits per symbol, BER coefficient a, SNR scale b) where
#: ber = a * Q(sqrt(b * snr)) with snr the linear per-symbol SNR (Es/N0).
#: BPSK/QPSK are exact AWGN expressions; square M-QAM uses the standard
#: nearest-neighbour Gray-coding approximation a = (4/k)(1 - 1/sqrt(M)),
#: b = 3/(M-1).
MODULATIONS: Dict[str, tuple] = {
    "bpsk": (1, 1.0, 2.0),
    "qpsk": (2, 1.0, 1.0),
    "qam16": (4, 0.75, 3.0 / 15.0),
    "qam64": (6, 7.0 / 12.0, 3.0 / 63.0),
}


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P[N(0,1) > x]."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def bit_error_rate(snr_db: float, modulation: str = "qpsk") -> float:
    """AWGN bit-error rate at ``snr_db`` (per-symbol SNR) for ``modulation``."""
    try:
        _, a, b = MODULATIONS[modulation]
    except KeyError:
        raise ValueError(
            f"unknown modulation {modulation!r}; known: {sorted(MODULATIONS)}"
        ) from None
    snr = 10.0 ** (snr_db / 10.0)
    return min(0.5, a * _q_function(math.sqrt(b * snr)))


def packet_error_rate(snr_db: float, modulation: str = "qpsk", packet_size: int = DEFAULT_PACKET_SIZE) -> float:
    """PER for a ``packet_size``-byte packet: 1 - (1 - ber)^bits."""
    ber = bit_error_rate(snr_db, modulation)
    if ber <= 0.0:
        return 0.0
    per = 1.0 - (1.0 - ber) ** (packet_size * 8)
    return min(1.0, max(0.0, per))


def snr_from_distance(
    distance: float,
    tx_power_dbm: float = 20.0,
    noise_dbm: float = -90.0,
    ref_loss_db: float = 70.0,
    path_loss_exponent: float = 3.0,
) -> float:
    """Log-distance path loss: SNR(d) = tx - (L0 + 10 n log10(d)) - noise.

    ``ref_loss_db`` is the path loss at the 1 m reference distance; distances
    below 1 cm are clamped to keep log10 finite.
    """
    d = max(distance, 0.01)
    path_loss = ref_loss_db + 10.0 * path_loss_exponent * math.log10(d)
    return tx_power_dbm - path_loss - noise_dbm


def vector_packet_error_rate(np, snr_db, modulation: str = "qpsk", packet_size: int = DEFAULT_PACKET_SIZE):
    """Vectorised :func:`packet_error_rate` over an array of SNRs (dB).

    Takes the numpy module as an argument so this module stays stdlib-only.
    erfc uses the Abramowitz & Stegun 7.1.26 rational approximation
    (|error| < 1.5e-7), which is plenty for the statistical cohort engine.
    """
    _, a, b = MODULATIONS[modulation]
    snr = 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0)
    x = np.sqrt(b * snr) / np.sqrt(2.0)
    # A&S 7.1.26: erfc(x) = (a1 t + ... + a5 t^5) exp(-x^2), t = 1/(1 + p x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    erfc = poly * np.exp(-x * x)
    ber = np.minimum(0.5, a * 0.5 * erfc)
    per = 1.0 - (1.0 - ber) ** (packet_size * 8)
    return np.clip(per, 0.0, 1.0)


class SnrPerChannel(ChannelModel):
    """Wireless channel: SNR mapped through a modulation BER curve to a PER.

    The SNR comes from one of three places, in priority order:

    * an explicit ``per`` override (fixed PER, SNR ignored),
    * a direct ``snr_db`` parameter, or
    * a log-distance path-loss model (``distance`` plus ``tx_power_dbm``,
      ``noise_dbm``, ``ref_loss_db``, ``path_loss_exponent``) — the form the
      mobility driver updates as nodes move.

    ``set_snr``/``set_distance`` retarget the channel mid-run (dynamics
    ``channel_update`` events and ``MobilitySpec`` both use them).
    """

    kind = "snr_per"
    cause = "per"
    observable = True

    def __init__(
        self,
        snr_db: Optional[float] = None,
        modulation: str = "qpsk",
        per: Optional[float] = None,
        distance: Optional[float] = None,
        tx_power_dbm: float = 20.0,
        noise_dbm: float = -90.0,
        ref_loss_db: float = 70.0,
        path_loss_exponent: float = 3.0,
    ):
        if modulation not in MODULATIONS:
            raise ValueError(
                f"unknown modulation {modulation!r}; known: {sorted(MODULATIONS)}"
            )
        if per is not None and not 0.0 <= per <= 1.0:
            raise ValueError("per must be in [0, 1]")
        if per is None and snr_db is None and distance is None:
            raise ValueError("snr_per channel needs one of per, snr_db or distance")
        self.modulation = modulation
        self.tx_power_dbm = tx_power_dbm
        self.noise_dbm = noise_dbm
        self.ref_loss_db = ref_loss_db
        self.path_loss_exponent = path_loss_exponent
        self.distance = distance
        self._fixed_per = per
        if snr_db is None and distance is not None:
            snr_db = snr_from_distance(
                distance, tx_power_dbm, noise_dbm, ref_loss_db, path_loss_exponent
            )
        self.snr_db = snr_db
        # PER cache keyed by packet bit count; invalidated on SNR changes.
        self._per_bits = -1
        self._per = 0.0

    def per_for(self, packet_size: int = DEFAULT_PACKET_SIZE) -> float:
        """Current PER for a ``packet_size``-byte packet."""
        if self._fixed_per is not None:
            return self._fixed_per
        bits = packet_size * 8
        if bits != self._per_bits:
            self._per_bits = bits
            self._per = packet_error_rate(self.snr_db, self.modulation, packet_size)
        return self._per

    def set_snr(self, snr_db: float) -> None:
        """Retarget the channel at a new SNR (clears any fixed-PER override)."""
        self.snr_db = snr_db
        self._fixed_per = None
        self._per_bits = -1

    def set_distance(self, distance: float) -> None:
        """Move the receiver: re-derive SNR from the path-loss model."""
        self.distance = distance
        self.set_snr(
            snr_from_distance(
                distance,
                self.tx_power_dbm,
                self.noise_dbm,
                self.ref_loss_db,
                self.path_loss_exponent,
            )
        )

    def should_drop(self, rng: random.Random, now: float = 0.0, packet: Optional["Packet"] = None) -> bool:
        size = packet.size if packet is not None else DEFAULT_PACKET_SIZE
        per = self.per_for(size)
        return per > 0.0 and rng.random() < per

    def expected_loss_rate(self, packet_size: int = DEFAULT_PACKET_SIZE) -> float:
        return self.per_for(packet_size)

    def state(self) -> Dict[str, Any]:
        return {
            "per": self.per_for(DEFAULT_PACKET_SIZE),
            "snr_db": self.snr_db if self._fixed_per is None else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._fixed_per is not None:
            return f"SnrPerChannel(per={self._fixed_per})"
        return (
            f"SnrPerChannel(snr_db={self.snr_db:.2f}, {self.modulation}, "
            f"per~{self.per_for(DEFAULT_PACKET_SIZE):.4f})"
        )


class ContentionChannel(ChannelModel):
    """Slotted shared-medium contention across links tagged with one ``medium``.

    Time is divided into ``slot_time`` slots.  The first packet offered to the
    medium in a slot captures it and transmits cleanly (slotted-ALOHA-style
    capture); packets offered by *other* links in the same slot collide and
    are dropped with probability ``collision_loss``.  Back-to-back packets
    from the same link in one slot do not collide with themselves — a
    transmitter serialises its own queue.

    All channels sharing a medium within one simulator share slot state; the
    registry of media lives on the simulator so independent runs never
    interact.  When ``collision_loss`` is 1.0 (the default, TDMA-style hard
    collisions) no RNG draw is consumed, keeping the loss process
    deterministic given packet timing.
    """

    kind = "contention"
    cause = "collision"
    observable = True

    def __init__(self, medium: str = "air", slot_time: float = 0.001, collision_loss: float = 1.0):
        if slot_time <= 0.0:
            raise ValueError("slot_time must be positive")
        if not 0.0 <= collision_loss <= 1.0:
            raise ValueError("collision_loss must be in [0, 1]")
        self.medium = medium
        self.slot_time = slot_time
        self.collision_loss = collision_loss
        self.collisions = 0
        # Shared [slot_index, occupant] pair, installed by bind().
        self._slot_state = [-1, None]

    def bind(self, link: "Link") -> None:
        media = link.sim.__dict__.setdefault("_channel_media", {})
        self._slot_state = media.setdefault(self.medium, [-1, None])

    def should_drop(self, rng: random.Random, now: float = 0.0, packet: Optional["Packet"] = None) -> bool:
        slot = int(now / self.slot_time)
        state = self._slot_state
        if state[0] != slot:
            state[0] = slot
            state[1] = self
            return False
        if state[1] is self:
            return False
        self.collisions += 1
        if self.collision_loss >= 1.0:
            return True
        return rng.random() < self.collision_loss

    def state(self) -> Dict[str, Any]:
        return {"collisions": self.collisions}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContentionChannel(medium={self.medium!r}, slot={self.slot_time})"
