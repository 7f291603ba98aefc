"""Declarative, JSON-serialisable scenario descriptions.

A :class:`ScenarioSpec` fully describes one simulation run: the topology
(dumbbell / star / chain / custom link list), per-link impairments (Bernoulli
or Gilbert-Elliott bursty loss, jitter), the traffic mix (TFMCC sessions with
membership schedules, greedy TCP flows, CBR / on-off background sources) and
what metrics to collect.  Specs are plain frozen dataclasses with a stable
dict/JSON form, so they can be stored in result files, shipped to worker
processes, and diffed between runs.

The split between *spec* and *builder* mirrors ns-2's OTcl-script /
simulation-core split: everything in this module is inert data; the
:mod:`repro.scenarios.build` module turns it into live simulator objects.
"""

from __future__ import annotations

import collections.abc
import copy
import json
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

T = TypeVar("T")

_ATOMIC_TYPES = frozenset((str, int, float, bool, type(None)))


def _finite_positive(value: Any) -> bool:
    """A real number (not a bool) with ``0 < value < inf``: what an event
    delay or a run length must be, since a NaN or infinite one never fires."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and 0 < value < math.inf


def _finite_nonnegative(value: Any) -> bool:
    """A real number (not a bool) with ``0 <= value < inf``: a link delay."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and 0 <= value < math.inf


def _check_link(owner: str, link: Any) -> None:
    """Refuse a link spec whose bandwidth, delay or queue limit no link can have.

    A NaN or zero bandwidth would otherwise fail mid-run (an event scheduled
    at NaN, a division by zero) and a negative delay or an empty queue at
    build, none of them with a message naming the field.
    """
    if not _finite_positive(link.bandwidth):
        raise ValueError(
            f"{owner}: bandwidth must be a positive finite number, got {link.bandwidth!r}"
        )
    if not _finite_nonnegative(link.delay):
        raise ValueError(f"{owner}: delay must be a finite number >= 0, got {link.delay!r}")
    if type(link.queue_limit) is not int or link.queue_limit < 1:
        raise ValueError(f"{owner}: queue_limit must be an int >= 1, got {link.queue_limit!r}")


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain(obj: Any) -> Any:
    """Plain-data form of a spec value: dataclasses become dicts, field by field.

    What ``dataclasses.asdict`` returns, without its deep copies: containers
    are rebuilt (callers mutate the result, which must not reach the frozen
    spec), tuples stay tuples, atoms are shared.  An explicit receiver tuple
    may be thousands long, so :class:`ReceiverSpec` is spelt out as one dict
    literal; a value that is neither spec nor plain JSON data is copied as
    it is.
    """
    cls = type(obj)
    if cls in _ATOMIC_TYPES:
        return obj
    if cls is ReceiverSpec:
        return {
            "node": obj.node,
            "receiver_id": obj.receiver_id,
            "join_at": obj.join_at,
            "leave_at": obj.leave_at,
        }
    if cls is tuple or cls is list:
        return cls([_plain(item) for item in obj])
    if cls is dict:
        return {key: _plain(value) for key, value in obj.items()}
    if is_dataclass(obj):
        return {name: _plain(getattr(obj, name)) for name in _field_names(cls)}
    return copy.deepcopy(obj)


def _from_mapping(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Build a flat dataclass from a mapping, rejecting unknown keys."""
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**data)


def _replace_nested(obj: Any, full_key: str, parts: Sequence[str], value: Any) -> Any:
    """Immutably set a dotted path inside nested spec dataclasses/tuples.

    Each level is rebuilt with ``dataclasses.replace`` (re-running its
    validation); integer path segments index into tuples, string segments
    key into plain mappings (``FlowSpec.params``) — a *leaf* mapping key may
    be new, so overrides can set protocol parameters the spec left at their
    defaults.  An integer segment into a run (:class:`ReceiverRun`,
    :class:`LeafRun`) expands the run to the tuple it stands for (one item
    of a run cannot differ from the others); a field segment
    (``receivers.count``, ``leaves.edge``) replaces the run's own field.
    Raises a clear ``ValueError`` naming the full dotted key on any bad
    segment.
    """
    head, rest = parts[0], parts[1:]
    if isinstance(obj, _Run) and head.isdecimal():
        obj = tuple(obj)
    if isinstance(obj, tuple):
        try:
            index = int(head)
        except ValueError:
            raise ValueError(
                f"override {full_key!r}: segment {head!r} must be an integer "
                f"index into a {len(obj)}-element tuple"
            ) from None
        if not 0 <= index < len(obj):
            raise ValueError(
                f"override {full_key!r}: index {index} out of range "
                f"(tuple has {len(obj)} elements)"
            )
        new_item = value if not rest else _replace_nested(obj[index], full_key, rest, value)
        return obj[:index] + (new_item,) + obj[index + 1 :]
    if isinstance(obj, Mapping):
        if rest:
            if head not in obj:
                raise ValueError(
                    f"override {full_key!r}: mapping has no key {head!r} "
                    f"(keys: {', '.join(sorted(map(str, obj))) or 'none'})"
                )
            new_item = _replace_nested(obj[head], full_key, rest, value)
        else:
            new_item = value
        new_map = dict(obj)
        new_map[head] = new_item
        return new_map
    if not is_dataclass(obj):
        raise ValueError(
            f"override {full_key!r}: cannot descend into {type(obj).__name__} "
            f"at segment {head!r}"
        )
    if head not in {f.name for f in fields(obj)}:
        raise ValueError(
            f"override {full_key!r}: {type(obj).__name__} has no field {head!r} "
            f"(fields: {', '.join(sorted(f.name for f in fields(obj)))})"
        )
    new_value = value if not rest else _replace_nested(getattr(obj, head), full_key, rest, value)
    return replace(obj, **{head: new_value})


class _Run:
    """A run-length spelling of a tuple: ``count`` items made from a few fields.

    Behaves as the tuple it stands for (length, indexing, slicing, iteration)
    without holding it; a subclass is a frozen dataclass with a ``count``
    field and says how to make item ``index``.  A run is a spelling of its
    own: a run and its expansion build the same simulation, but they are
    different specs with different canonical encodings (a mapping here, a
    list there) and hence different fingerprints.  Nothing converts one
    into the other, because recognising a run inside a list is the per-item
    pass a run exists to avoid.

    A virtual :class:`collections.abc.Sequence`: the ABC's ``count`` mixin
    method would collide with the field.
    """

    __slots__ = ()
    count: int

    def _item(self, index: int) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: Any) -> Any:
        positions = range(self.count)[index]  # tuple semantics, IndexError included
        if isinstance(positions, range):
            return tuple(map(self._item, positions))
        return self._item(positions)

    def __iter__(self) -> Iterator[Any]:
        return map(self._item, range(self.count))


collections.abc.Sequence.register(_Run)


def _check_count(owner: str, count: Any) -> None:
    if type(count) is not int or count < 1:
        raise ValueError(f"{owner}.count must be an int >= 1, got {count!r}")


# --------------------------------------------------------------- impairments


@dataclass(frozen=True)
class GilbertElliottSpec:
    """Parameters of a two-state bursty-loss process (see ``repro.channel``)."""

    p_good_bad: float
    p_bad_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in _field_names(GilbertElliottSpec):
            p = getattr(self, name)
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
                raise ValueError(
                    f"gilbert_elliott.{name} must be a probability in [0, 1], got {p!r}"
                )

    def build(self):
        """Construct a fresh Gilbert-Elliott channel model in the GOOD state."""
        from repro.channel import GilbertElliottLoss

        return GilbertElliottLoss(self.p_good_bad, self.p_bad_good, self.loss_good, self.loss_bad)


@dataclass(frozen=True)
class ChannelSpec:
    """A registered channel model plus its JSON parameters.

    ``kind`` names a factory in :mod:`repro.channel` (built-ins:
    ``bernoulli``, ``gilbert_elliott``, ``snr_per``, ``contention``);
    ``params`` is passed verbatim to the factory, so anything the model's
    constructor accepts is sweepable through dotted override paths
    (``topology.leaves.0.impairment.channel.params.snr_db``).  Each link
    direction gets a *fresh* model instance — channel state is never shared
    through a spec.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        # Late import mirroring EngineSpec: the registry is only needed once
        # a spec actually names a channel kind.
        from repro.channel import get_channel

        factory = get_channel(self.kind)
        factory.validate(self.params)

    def __hash__(self) -> int:
        # Specs stay hashable like every frozen dataclass; the params dict
        # hashes by its canonical JSON form.
        return hash((self.kind, json.dumps(self.params, sort_keys=True)))

    def build(self):
        """Construct a fresh channel-model instance from this spec."""
        from repro.channel import get_channel

        return get_channel(self.kind)(self.params)

    def expected_loss_rate(self, packet_size: int = 1000) -> float:
        """Analytic long-run loss rate of a fresh instance (0 if load-driven)."""
        return self.build().expected_loss_rate(packet_size)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ChannelSpec":
        data = dict(data)
        params = dict(data.pop("params", None) or {})
        return _from_mapping(ChannelSpec, {**data, "params": params})


@dataclass(frozen=True)
class ImpairmentSpec:
    """Random loss and processing jitter applied to one link direction.

    ``jitter=None`` means "unset": builders may substitute a topology-level
    default (the phase-effect mitigation).  An explicit ``0.0`` forces a
    jitter-free link even when such a default is active.

    At most one loss process may be given: ``loss_rate`` (independent
    Bernoulli loss), ``gilbert_elliott`` (two-state bursty loss) or
    ``channel`` (any registered channel model).  This class is the one place
    that resolves the three spellings: :meth:`channel_factory` for engines
    that simulate the link, :meth:`expected_loss_rate` for those that model it.
    """

    loss_rate: float = 0.0
    jitter: Optional[float] = None
    gilbert_elliott: Optional[GilbertElliottSpec] = None
    channel: Optional[ChannelSpec] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"impairment: loss_rate must be in [0, 1), got {self.loss_rate}")
        # Unset is 0.0 or None; the spec classes define no falsy instances.
        given = [n for n in ("loss_rate", "gilbert_elliott", "channel") if getattr(self, n)]
        if len(given) > 1:
            raise ValueError(
                f"impairment: at most one loss process per link, got {' and '.join(given)}"
            )

    def channel_factory(self) -> Optional[Callable[[], Any]]:
        """Builder of a fresh channel model per link direction (None: lossless)."""
        if self.channel is not None:
            return self.channel.build
        if self.gilbert_elliott is not None:
            return self.gilbert_elliott.build
        if self.loss_rate > 0.0:
            from repro.channel import BernoulliChannel

            return partial(BernoulliChannel, self.loss_rate)
        return None

    def expected_loss_rate(self, packet_size: int = 1000) -> float:
        """Analytic long-run loss rate of the link (0 if lossless or load-driven)."""
        factory = self.channel_factory()
        return factory().expected_loss_rate(packet_size) if factory is not None else 0.0

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ImpairmentSpec":
        data = dict(data)
        ge = data.pop("gilbert_elliott", None)
        if ge is not None:
            ge = _from_mapping(GilbertElliottSpec, ge)
        channel = data.pop("channel", None)
        if channel is not None:
            channel = ChannelSpec.from_dict(channel)
        return _from_mapping(
            ImpairmentSpec, {**data, "gilbert_elliott": ge, "channel": channel}
        )


NO_IMPAIRMENT = ImpairmentSpec()


# ------------------------------------------------------------------ topology


@dataclass(frozen=True)
class EdgeSpec:
    """One duplex edge of a star or chain topology."""

    bandwidth: float
    delay: float
    queue_limit: int = 50
    impairment: ImpairmentSpec = NO_IMPAIRMENT

    def __post_init__(self) -> None:
        _check_link("edge", self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "EdgeSpec":
        data = dict(data)
        imp = data.pop("impairment", None)
        impairment = ImpairmentSpec.from_dict(imp) if imp is not None else NO_IMPAIRMENT
        return _from_mapping(EdgeSpec, {**data, "impairment": impairment})


@dataclass(frozen=True)
class DuplexLinkSpec:
    """A named duplex link, used for extra links and custom topologies."""

    a: str
    b: str
    bandwidth: float
    delay: float
    queue_limit: int = 50
    impairment: ImpairmentSpec = NO_IMPAIRMENT

    def __post_init__(self) -> None:
        _check_link(f"link {self.a}-{self.b}", self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "DuplexLinkSpec":
        data = dict(data)
        imp = data.pop("impairment", None)
        impairment = ImpairmentSpec.from_dict(imp) if imp is not None else NO_IMPAIRMENT
        return _from_mapping(DuplexLinkSpec, {**data, "impairment": impairment})


@dataclass(frozen=True)
class LeafRun(_Run):
    """``count`` identical star leaves, as one object: ``(edge,) * count``.

    A uniform star of 10^5 leaves resolves, encodes and hashes as one
    :class:`EdgeSpec` and a count, and builders take the edge once for the
    whole run.  Encodes as a mapping (``{"count": N, "edge": {...}}``).
    """

    edge: EdgeSpec
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.edge, EdgeSpec):
            raise ValueError(f"leaves.edge must be an EdgeSpec, got {self.edge!r}")
        _check_count("leaves", self.count)

    def _item(self, index: int) -> EdgeSpec:
        return self.edge

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "LeafRun":
        missing = {"edge", "count"} - set(data)
        if missing:
            raise ValueError(f"leaves run lacks {sorted(missing)}")
        edge = data["edge"]
        if isinstance(edge, Mapping):
            edge = EdgeSpec.from_dict(edge)
        return _from_mapping(LeafRun, {**data, "edge": edge})


def edge_runs(edges: Union[Tuple[EdgeSpec, ...], LeafRun]) -> List[Tuple[EdgeSpec, int]]:
    """``(edge, count)`` per stretch of a leaf sequence: one pair for a run,
    one per edge for an explicit tuple (whose edges are never compared)."""
    if isinstance(edges, LeafRun):
        return [(edges.edge, edges.count)]
    return [(edge, 1) for edge in edges]


@dataclass(frozen=True)
class TopologySpec:
    """Base class for topology descriptions.

    ``extra_links`` lets any topology be extended with additional duplex
    links (e.g. the slow tail of the late-join experiment); routes are
    rebuilt after they are added.
    """

    extra_links: Tuple[DuplexLinkSpec, ...] = ()

    kind = "abstract"

    def to_dict(self) -> Dict[str, Any]:
        data = _plain(self)
        data["kind"] = self.kind
        return data

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        """The node names the built network will have, without building it.

        Returns the individually named nodes and, as ``prefix -> count``, the
        numbered families ``prefix0 .. prefix<count-1>`` — a dumbbell's 10^5
        ``dst`` nodes are one entry, not 10^5 strings.
        """
        return frozenset(n for link in self.extra_links for n in (link.a, link.b)), {}


@dataclass(frozen=True)
class DumbbellSpec(TopologySpec):
    """Single shared bottleneck: ``src*`` and ``dst*`` behind two routers."""

    num_left: int = 1
    num_right: int = 1
    bottleneck_bps: float = 1e6
    bottleneck_delay: float = 0.02
    access_bps: float = 12.5e6
    access_delay: float = 0.001
    queue_limit: int = 50
    access_queue_limit: Optional[int] = None
    access_jitter: Optional[float] = None

    kind = "dumbbell"

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        named, _ = super().node_families()
        return named | {"router_left", "router_right"}, {
            "src": self.num_left,
            "dst": self.num_right,
        }


@dataclass(frozen=True)
class StarSpec(TopologySpec):
    """A ``source`` behind a hub with per-leaf duplex links ``leaf0..N-1``.

    ``leaves`` is an explicit tuple of :class:`EdgeSpec` or one
    :class:`LeafRun`, which is kept as it is.
    """

    leaves: Union[Tuple[EdgeSpec, ...], LeafRun] = ()
    hub_bps: float = 100e6
    hub_delay: float = 0.001
    jitter: Optional[float] = None

    kind = "star"

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        named, _ = super().node_families()
        return named | {"source", "hub"}, {"leaf": len(self.leaves)}


@dataclass(frozen=True)
class ChainSpec(TopologySpec):
    """Linear multi-hop path ``n0 - n1 - ... - nK`` (one EdgeSpec per hop)."""

    hops: Tuple[EdgeSpec, ...] = ()
    jitter: Optional[float] = None

    kind = "chain"

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        named, _ = super().node_families()
        return named, {"n": len(self.hops) + 1 if self.hops else 0}


@dataclass(frozen=True)
class CustomSpec(TopologySpec):
    """Arbitrary topology given purely as a list of duplex links."""

    kind = "custom"


_TOPOLOGY_KINDS: Dict[str, Type[TopologySpec]] = {
    "dumbbell": DumbbellSpec,
    "star": StarSpec,
    "chain": ChainSpec,
    "custom": CustomSpec,
}


def topology_from_dict(data: Mapping[str, Any]) -> TopologySpec:
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _TOPOLOGY_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown topology kind {kind!r}")
    extra = tuple(DuplexLinkSpec.from_dict(e) for e in data.pop("extra_links", ()))
    if cls in (StarSpec,):
        leaves = data.pop("leaves", ())
        if isinstance(leaves, Mapping):
            data["leaves"] = LeafRun.from_dict(leaves)
        else:
            data["leaves"] = tuple(EdgeSpec.from_dict(e) for e in leaves)
    if cls in (ChainSpec,):
        data["hops"] = tuple(EdgeSpec.from_dict(e) for e in data.pop("hops", ()))
    return _from_mapping(cls, {**data, "extra_links": extra})


# ------------------------------------------------------------------- traffic


@dataclass(frozen=True, init=False, slots=True)
class ReceiverSpec:
    """One TFMCC receiver: where it sits and when it is a member.

    The one spec class a spec may hold thousands of, so its constructor is
    written out: the generated frozen ``__init__`` pays one
    ``object.__setattr__`` per field plus a ``__post_init__`` call.
    """

    node: str
    receiver_id: Optional[str] = None
    join_at: float = 0.0
    leave_at: Optional[float] = None

    def __init__(
        self,
        node: str,
        receiver_id: Optional[str] = None,
        join_at: float = 0.0,
        leave_at: Optional[float] = None,
    ) -> None:
        if leave_at is not None and leave_at <= join_at:
            raise ValueError(
                f"receiver at {node!r}: leave_at ({leave_at}) must be "
                f"after join_at ({join_at})"
            )
        # The slot descriptors write past the frozen __setattr__.
        _set_node(self, node)
        _set_receiver_id(self, receiver_id)
        _set_join_at(self, join_at)
        _set_leave_at(self, leave_at)


_set_node = ReceiverSpec.node.__set__
_set_receiver_id = ReceiverSpec.receiver_id.__set__
_set_join_at = ReceiverSpec.join_at.__set__
_set_leave_at = ReceiverSpec.leave_at.__set__

_RUN_NODE = re.compile(r"[^{}]*\{\}[^{}]*")


@dataclass(frozen=True)
class ReceiverRun(_Run):
    """``count`` static receivers on consecutively numbered nodes, as one object.

    Stands for ``tuple(ReceiverSpec(node.format(i)) for i in range(first,
    first + count))`` — members from t=0 to the end, ids assigned by the
    session — so a 10^5-receiver flow resolves, encodes and hashes as three
    fields (see :class:`_Run` for what a run is and is not).
    """

    node: str
    count: int
    first: int = 0

    def __post_init__(self) -> None:
        # One bare index field: ``str.format`` would otherwise evaluate
        # attribute access and format specs taken from a request body.
        if not (isinstance(self.node, str) and _RUN_NODE.fullmatch(self.node)):
            raise ValueError(
                "receivers.node must be a node name with one '{}' index field, "
                f"got {self.node!r}"
            )
        _check_count("receivers", self.count)
        if type(self.first) is not int or self.first < 0:
            raise ValueError(f"receivers.first must be an int >= 0, got {self.first!r}")

    def node_at(self, index: int) -> str:
        """Node of receiver ``index`` (0-based, unchecked), building no spec."""
        return self.node.format(self.first + index)

    def _item(self, index: int) -> ReceiverSpec:
        return ReceiverSpec(self.node_at(index))

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ReceiverRun":
        missing = {"node", "count"} - set(data)
        if missing:
            raise ValueError(f"receivers run lacks {sorted(missing)}")
        return _from_mapping(ReceiverRun, data)


@dataclass(frozen=True)
class FlowSpec:
    """One transport flow of any registered protocol kind.

    The traffic unit of the scenario layer: ``kind`` names a
    protocol registered in :mod:`repro.protocols` (built-ins: ``tfmcc``,
    ``tfrc``, ``tcp-reno``, ``cbr``, ``onoff``), ``src`` is the sending
    node, and the far end is either a unicast ``dst`` node or multicast
    ``receivers`` — the registered protocol dictates which.  ``receivers``
    is an explicit tuple of :class:`ReceiverSpec` (any iterable is made
    one), or a single :class:`ReceiverRun`, which is kept as it is.

    ``params`` carries per-flow protocol parameters as plain JSON data
    (TFMCCConfig fields for tfmcc/tfrc, TCP knobs for tcp-reno, source
    shape for cbr/onoff), so protocol ablations are expressible in specs,
    sweep grids and dotted override paths (``flows.0.params.max_rtt``)
    without any side-channel.

    ``name`` defaults to ``<kind><per-kind-index>`` (assigned by the owning
    :class:`ScenarioSpec`), which is also the flow id in result records.
    """

    kind: str
    src: str
    dst: Optional[str] = None
    receivers: Union[Tuple[ReceiverSpec, ...], ReceiverRun] = ()
    name: Optional[str] = None
    start: float = 0.0
    stop: Optional[float] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.receivers, ReceiverRun):
            object.__setattr__(self, "receivers", tuple(self.receivers))
        object.__setattr__(self, "params", dict(self.params))
        # ``not >=`` rather than ``<``: NaN fails every comparison, and an
        # event scheduled at NaN fires at an arbitrary point with ``now = nan``.
        if not self.start >= 0:
            raise ValueError(f"flow start must be >= 0, got {self.start}")
        if self.stop is not None and not self.stop > self.start:
            raise ValueError(
                f"flow stop ({self.stop}) must be after start ({self.start})"
            )
        # Late import: the protocol factories import simulator/session code,
        # none of which is needed to merely define specs.
        from repro.protocols import get_protocol

        get_protocol(self.kind).validate(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FlowSpec":
        data = dict(data)
        receivers = data.pop("receivers", ())
        if isinstance(receivers, Mapping):
            receivers = ReceiverRun.from_dict(receivers)
        else:
            receivers = tuple(_from_mapping(ReceiverSpec, r) for r in receivers)
        params = dict(data.pop("params", None) or {})
        return _from_mapping(FlowSpec, {**data, "receivers": receivers, "params": params})


def _canonicalise_flow_names(flows: Sequence[FlowSpec]) -> Tuple[FlowSpec, ...]:
    """Fill in default flow names (``<kind><per-kind-index>``), reject dupes.

    The per-kind index counts *all* flows of the kind (named or not), so a
    default name says where the flow sits among its kind.
    """
    per_kind: Dict[str, int] = {}
    named: List[FlowSpec] = []
    seen: Dict[str, int] = {}
    for position, flow in enumerate(flows):
        index = per_kind.get(flow.kind, 0)
        per_kind[flow.kind] = index + 1
        if flow.name is None:
            flow = replace(flow, name=f"{flow.kind}{index}")
        if flow.name in seen:
            raise ValueError(
                f"duplicate flow name {flow.name!r} (flows {seen[flow.name]} "
                f"and {position})"
            )
        seen[flow.name] = position
        named.append(flow)
    return tuple(named)


# ------------------------------------------------------------------ dynamics


#: Event kinds understood by the scenario builder's dynamics scheduler.
EVENT_KINDS = (
    "link_down",
    "link_up",
    "link_update",
    "channel_update",
    "receiver_join",
    "receiver_leave",
)

#: Link-update directions: ``a->b``, ``b->a`` or both.
EVENT_DIRECTIONS = ("both", "forward", "reverse")


@dataclass(frozen=True)
class NetworkEventSpec:
    """One scheduled network or membership event.

    ``kind`` selects the event family; the remaining fields are
    kind-specific (unused ones stay ``None``):

    ``link_down`` / ``link_up``
        Fail / restore the duplex link ``a <-> b``: queues flush, unicast
        routes rebuild and multicast trees re-graft.
    ``link_update``
        Step link parameters at ``at``: any of ``bandwidth`` (bits/s),
        ``delay`` (seconds; triggers a route rebuild, delay is the routing
        weight), ``loss_rate`` (Bernoulli) or ``gilbert_elliott`` (bursty
        loss process, freshly seeded per direction).  ``direction`` limits
        the change to one direction of the duplex link.
    ``channel_update``
        Re-channel the duplex link ``a <-> b`` at ``at``: ``channel``
        installs a fresh model per direction from a :class:`ChannelSpec`;
        ``snr_db`` instead retargets the SNR of an already-installed
        ``snr_per`` channel in place (keeping its modulation and path-loss
        parameters).  ``direction`` limits the change as for link_update.
    ``receiver_join`` / ``receiver_leave``
        Membership churn: join a new receiver at ``node`` (with optional
        explicit ``receiver_id``) or remove the receiver ``receiver_id``.
        ``flow`` names the TFMCC flow (default: the scenario's first).
    """

    at: float
    kind: str
    # Link events.
    a: Optional[str] = None
    b: Optional[str] = None
    bandwidth: Optional[float] = None
    delay: Optional[float] = None
    loss_rate: Optional[float] = None
    gilbert_elliott: Optional[GilbertElliottSpec] = None
    direction: str = "both"
    # Channel events.
    channel: Optional[ChannelSpec] = None
    snr_db: Optional[float] = None
    # Membership events.
    flow: Optional[str] = None
    node: Optional[str] = None
    receiver_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.at >= 0:  # also refuses NaN, which no heap can order
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r} (known: {', '.join(EVENT_KINDS)})"
            )
        if self.direction not in EVENT_DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r} (known: {', '.join(EVENT_DIRECTIONS)})"
            )
        if self.kind in ("link_down", "link_up", "link_update", "channel_update"):
            if self.a is None or self.b is None:
                raise ValueError(f"{self.kind} event requires link endpoints a and b")
            if self.kind == "link_update" and not self.has_link_changes:
                raise ValueError(
                    "link_update event changes nothing: set bandwidth, delay, "
                    "loss_rate or gilbert_elliott"
                )
            if self.kind == "channel_update" and self.channel is None and self.snr_db is None:
                raise ValueError(
                    "channel_update event changes nothing: set channel or snr_db"
                )
            if self.kind in ("link_down", "link_up") and self.direction != "both":
                raise ValueError(
                    f"{self.kind} takes the whole duplex link down/up (routing "
                    "is undirected); drop the direction override"
                )
        elif self.kind == "receiver_join":
            if self.node is None:
                raise ValueError("receiver_join event requires a node")
        elif self.kind == "receiver_leave":
            if self.receiver_id is None:
                raise ValueError("receiver_leave event requires a receiver_id")
        if self.kind != "channel_update" and (
            self.channel is not None or self.snr_db is not None
        ):
            raise ValueError(
                f"{self.kind} event does not take channel/snr_db "
                "(use a channel_update event)"
            )
        if self.loss_rate is not None and not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.delay is not None:
            if self.delay < 0:
                raise ValueError("delay cannot be negative")
            if self.direction != "both":
                raise ValueError(
                    "delay changes apply to both directions (delay is the "
                    "undirected routing weight); drop the direction override"
                )

    @property
    def has_link_changes(self) -> bool:
        return any(
            v is not None
            for v in (self.bandwidth, self.delay, self.loss_rate, self.gilbert_elliott)
        )

    @property
    def target(self) -> str:
        """Human-readable event target (for traces and summaries)."""
        if self.kind in ("link_down", "link_up", "link_update", "channel_update"):
            return f"{self.a}<->{self.b}"
        if self.kind == "receiver_join":
            return f"{self.node}"
        return f"{self.receiver_id}"

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "NetworkEventSpec":
        data = dict(data)
        ge = data.pop("gilbert_elliott", None)
        if ge is not None:
            ge = _from_mapping(GilbertElliottSpec, ge)
        channel = data.pop("channel", None)
        if channel is not None:
            channel = ChannelSpec.from_dict(channel)
        return _from_mapping(
            NetworkEventSpec, {**data, "gilbert_elliott": ge, "channel": channel}
        )


@dataclass(frozen=True)
class WaypointSpec:
    """One mobility waypoint: ``node`` reaches ``(x, y)`` metres at time ``at``.

    Motion towards a waypoint is linear from the node's previous location
    (the preceding waypoint, or its static start position at the time of the
    preceding waypoint / t=0).  After its last waypoint a node stays put.
    """

    node: str
    at: float
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"waypoint time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class MobilitySpec:
    """Waypoint mobility driving distance-derived wireless channels.

    ``positions`` gives static (x, y) coordinates in metres per node;
    ``waypoints`` script the movers.  Every ``update_interval`` simulated
    seconds (starting at t=0) the builder re-evaluates node positions and,
    for every link whose channel is an ``snr_per`` model and whose *both*
    endpoints have known positions, re-derives the channel SNR from the
    euclidean endpoint distance through the model's path-loss parameters.
    Links of other channel kinds — and nodes without positions — are left
    untouched.
    """

    positions: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    waypoints: Tuple[WaypointSpec, ...] = ()
    update_interval: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "positions",
            {node: (float(xy[0]), float(xy[1])) for node, xy in dict(self.positions).items()},
        )
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if self.update_interval <= 0:
            raise ValueError("mobility update_interval must be positive")
        last_at: Dict[str, float] = {}
        for wp in self.waypoints:
            if wp.at < last_at.get(wp.node, 0.0):
                raise ValueError(
                    f"waypoints for {wp.node!r} must be in non-decreasing time order"
                )
            last_at[wp.node] = wp.at

    def position_at(self, node: str, t: float) -> Optional[Tuple[float, float]]:
        """Interpolated (x, y) of ``node`` at time ``t`` (None if unknown)."""
        start = self.positions.get(node)
        moves = [w for w in self.waypoints if w.node == node]
        if not moves:
            return start
        prev_t = 0.0
        prev_xy = start if start is not None else (moves[0].x, moves[0].y)
        for wp in moves:
            if t <= wp.at:
                if wp.at <= prev_t:
                    return (wp.x, wp.y)
                frac = (t - prev_t) / (wp.at - prev_t)
                return (
                    prev_xy[0] + frac * (wp.x - prev_xy[0]),
                    prev_xy[1] + frac * (wp.y - prev_xy[1]),
                )
            prev_t, prev_xy = wp.at, (wp.x, wp.y)
        return prev_xy

    def moving_nodes(self) -> Tuple[str, ...]:
        """Nodes with at least one waypoint, in first-appearance order."""
        seen: Dict[str, None] = {}
        for wp in self.waypoints:
            seen.setdefault(wp.node, None)
        return tuple(seen)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "MobilitySpec":
        data = dict(data)
        waypoints = tuple(
            _from_mapping(WaypointSpec, w) for w in data.pop("waypoints", ())
        )
        positions = dict(data.pop("positions", None) or {})
        return _from_mapping(
            MobilitySpec, {**data, "positions": positions, "waypoints": waypoints}
        )


@dataclass(frozen=True)
class DynamicsSpec:
    """Time-scripted network dynamics: an ordered schedule of events.

    Events fire at their absolute simulation time ``at``; events with equal
    times fire in schedule order.  ``mobility`` adds continuous waypoint
    motion on top of the discrete schedule.  The empty spec (the default on
    every :class:`ScenarioSpec`) is inert — static scenarios are unaffected.
    """

    events: Tuple[NetworkEventSpec, ...] = ()
    mobility: Optional[MobilitySpec] = None

    def __bool__(self) -> bool:
        return bool(self.events) or self.mobility is not None

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "DynamicsSpec":
        data = dict(data)
        events = tuple(NetworkEventSpec.from_dict(e) for e in data.pop("events", ()))
        mobility = data.pop("mobility", None)
        if mobility is not None:
            mobility = MobilitySpec.from_dict(mobility)
        return _from_mapping(
            DynamicsSpec, {**data, "events": events, "mobility": mobility}
        )


NO_DYNAMICS = DynamicsSpec()


# ------------------------------------------------------------------- metrics


@dataclass(frozen=True)
class MetricsSpec:
    """What to measure and how to summarise it.

    ``with_trace`` attaches the structured trace probes
    (:mod:`repro.metrics.trace`) to the run — feedback rounds, CLR changes,
    loss events, suppression and sampled queue occupancy — and embeds their
    deterministic summary under the record's ``"trace"`` key.
    ``trace_queue_interval`` is the queue-occupancy sampling period.
    """

    interval: float = 1.0
    warmup_fraction: float = 0.25
    with_series: bool = False
    link_stats: bool = True
    with_trace: bool = False
    trace_queue_interval: float = 0.5

    def __post_init__(self) -> None:
        # Both periods are event delays (monitor bins, queue samples), so a
        # NaN one used to fail deep inside the run without naming the field.
        for name in ("interval", "trace_queue_interval"):
            value = getattr(self, name)
            if not _finite_positive(value):
                raise ValueError(f"metrics.{name} must be a finite number > 0, got {value!r}")
        fraction = self.warmup_fraction
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0 <= fraction < 1:
            raise ValueError(f"metrics.warmup_fraction must be in [0, 1), got {fraction!r}")


# -------------------------------------------------------------------- engine


@dataclass(frozen=True)
class EngineSpec:
    """Which simulation engine executes the scenario, and how.

    ``kind`` names an engine registered in :mod:`repro.engines` (built-ins:
    ``"exact"``, the reference per-packet engine, and ``"cohort"``, which
    models the non-CLR TFMCC receiver population as vectorised numpy state
    stepped once per feedback round).  The remaining fields only apply to
    the cohort engine:

    ``tracer_receivers``
        How many of each TFMCC flow's receivers stay exact per-packet
        agents (wired into the normal monitor/trace probes); the rest are
        aggregated into the cohort.  Receivers with membership schedules
        always stay exact.  An integer >= 1 (not a bool).
    ``step_interval``
        Cohort update period in simulated seconds, a finite number > 0;
        ``None`` steps once per sender feedback round (the paper's natural
        feedback granularity).
    ``max_reports_per_step``
        Safety cap on the cohort's reports per step: the first this many
        responders left after suppression (in timer order) are injected
        into the sender.  It is not part of the protocol.  An integer >= 1
        (not a bool).
    """

    kind: str = "exact"
    tracer_receivers: int = 2
    step_interval: Optional[float] = None
    max_reports_per_step: int = 4

    def __post_init__(self) -> None:
        # Validate the kind against the engine registry.  Imported lazily:
        # the registry imports this module for type references, and spec
        # construction is the first moment a kind can actually be wrong.
        from repro.engines import engine_kinds

        if self.kind not in engine_kinds():
            raise ValueError(
                f"unknown engine kind {self.kind!r}; "
                f"registered: {', '.join(engine_kinds())}"
            )
        for name in ("tracer_receivers", "max_reports_per_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"engine.{name} must be an integer >= 1, got {value!r}")
        # The step is scheduled at now + step_interval: a NaN time would sit
        # in the event heap out of order.
        interval = self.step_interval
        if interval is not None and not _finite_positive(interval):
            raise ValueError(
                f"engine.step_interval must be a finite number > 0 or None, got {interval!r}"
            )


# -------------------------------------------------------------------- scenario

#: ``<prefix><index>`` with a canonical (no leading zero) decimal index.
_NUMBERED_NODE = re.compile(r"(.*?)(0|[1-9][0-9]*)")
_NODE_OF = attrgetter("node")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, self-contained description of one simulation run.

    Traffic is a single ordered tuple of :class:`FlowSpec` in ``flows``;
    flows are built in that order.
    """

    name: str
    duration: float
    topology: TopologySpec
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    dynamics: DynamicsSpec = NO_DYNAMICS
    description: str = ""
    flows: Tuple[FlowSpec, ...] = ()
    engine: EngineSpec = field(default_factory=EngineSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", _canonicalise_flow_names(self.flows))
        # One check for every way in (constructor, from_dict, overrides, --set,
        # the service): the run loop ends on ``time >= duration``, which a NaN
        # or infinite duration never satisfies.
        duration = self.duration
        if not _finite_positive(duration):
            raise ValueError(f"duration must be a positive finite number, got {duration!r}")
        if not self.flows:
            raise ValueError(f"scenario {self.name!r} defines no traffic")
        for event in self.dynamics.events:
            if event.at >= self.duration:
                raise ValueError(
                    f"scenario {self.name!r}: dynamics event at t={event.at} "
                    f"never fires (duration is {self.duration})"
                )
            if event.kind in ("receiver_join", "receiver_leave") and not any(
                flow.kind == "tfmcc" for flow in self.flows
            ):
                raise ValueError(
                    f"scenario {self.name!r}: {event.kind} event but no TFMCC flow"
                )

    def check_endpoints(self) -> None:
        """Raise ``ValueError`` if traffic is placed on a node the topology lacks.

        Run by every engine before it builds: attaching an agent to an
        unknown name would create an isolated node, and the flow would report
        0 bit/s (or, in the cohort engine, model receivers that are nowhere)
        without complaint.  Explicit receiver tuples are checked with set
        algebra and one C-level regex pass, not a Python call per receiver.
        """
        named, numbered = self.topology.node_families()

        def check(owner: str, nodes: set) -> None:
            nodes = nodes - named
            matches = filter(None, map(_NUMBERED_NODE.fullmatch, nodes))
            missing = nodes - {
                m[0] for m in matches if m[1] in numbered and int(m[2]) < numbered[m[1]]
            }
            if missing:
                raise ValueError(
                    f"scenario {self.name!r}: {owner} is on node {min(missing)!r}, "
                    f"which the {self.topology.kind} topology does not define"
                )

        for flow in self.flows:
            owner, receivers = f"flow {flow.name!r}", flow.receivers
            if not isinstance(receivers, ReceiverRun):
                nodes = set(map(_NODE_OF, receivers))
            elif receivers.node.endswith("{}") and (
                receivers.first + receivers.count <= numbered.get(receivers.node[:-2], 0)
            ):
                nodes = set()  # the whole run lies inside one numbered family
            else:
                # Its ends first: a mistyped run fails before it is spelt out.
                last = receivers.count - 1
                check(owner, {receivers.node_at(0), receivers.node_at(last)})
                nodes = {receivers.node_at(i) for i in range(1, last)}
            nodes.add(flow.src)
            if flow.dst is not None:
                nodes.add(flow.dst)
            check(owner, nodes)
        for event in self.dynamics.events:
            if event.kind == "receiver_join":
                check(f"the receiver_join event at t={event.at}", {event.node})

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form, one key per field."""
        data: Dict[str, Any] = {}
        for name in _field_names(ScenarioSpec):
            if name == "topology":
                data[name] = self.topology.to_dict()
            else:
                data[name] = _plain(getattr(self, name))
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @staticmethod
    def _flows_from_stored_families(data: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Pop a stored dict's per-family traffic lists, as ``flows`` dicts.

        Specs stored before ``flows`` existed list traffic under ``tfmcc``,
        ``tcp`` and ``background``.  Flows were built in that order, which
        fixes every RNG draw downstream, so it is the order of the result;
        background entries always carried ``packet_size`` (and on-off ones
        their three shape fields), so those defaults are written out for the
        fingerprint of a stored spec to stay what it was.
        """
        flows: List[Dict[str, Any]] = []
        for family, kind, id_key, id_field in (
            ("tfmcc", "tfmcc", "sender_node", "src"),
            ("tcp", "tcp-reno", "flow_id", "name"),
            ("background", "cbr", "flow_id", "name"),
        ):
            for entry in data.pop(family, ()):
                entry = dict(entry)
                try:
                    flow = {"kind": kind, id_field: entry.pop(id_key)}
                    if family == "background":
                        flow["kind"] = entry.pop("kind", kind)
                        if flow["kind"] not in ("cbr", "onoff"):
                            raise ValueError(f"unknown background flow kind {flow['kind']!r}")
                        flow["params"] = {
                            "rate_bps": entry.pop("rate_bps"),
                            "packet_size": entry.pop("packet_size", 1000),
                        }
                        shape = {
                            "on_time": entry.pop("on_time", 1.0),
                            "off_time": entry.pop("off_time", 1.0),
                            "exponential": entry.pop("exponential", True),
                        }
                        if flow["kind"] == "onoff":
                            flow["params"].update(shape)
                except KeyError as exc:
                    raise ValueError(f"{family!r} entry lacks {exc.args[0]!r}") from None
                clash = sorted(set(entry) & set(flow))
                if clash:
                    raise ValueError(f"{family!r} entry cannot set {clash}")
                flows.append({**flow, **entry})
        return flows

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        families = [key for key in ("tfmcc", "tcp", "background") if key in data]
        if families:
            if "flows" in data:
                raise ValueError(
                    f"scenario dict spells its traffic twice: 'flows' and {families}"
                )
            data["flows"] = ScenarioSpec._flows_from_stored_families(data)
        topology = topology_from_dict(data.pop("topology"))
        flows = tuple(FlowSpec.from_dict(f) for f in data.pop("flows", ()))
        metrics = data.pop("metrics", None)
        metrics = _from_mapping(MetricsSpec, metrics) if metrics is not None else MetricsSpec()
        dynamics = data.pop("dynamics", None)
        dynamics = DynamicsSpec.from_dict(dynamics) if dynamics is not None else NO_DYNAMICS
        # Dicts serialised before the engine registry existed carry no
        # "engine" key; they resolve to the default exact engine.
        engine = data.pop("engine", None)
        engine = _from_mapping(EngineSpec, engine) if engine is not None else EngineSpec()
        return _from_mapping(
            ScenarioSpec,
            {
                **data,
                "topology": topology,
                "flows": flows,
                "metrics": metrics,
                "dynamics": dynamics,
                "engine": engine,
            },
        )

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        return ScenarioSpec.from_dict(json.loads(text))

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with fields replaced; dotted keys reach nested specs.

        Plain keys replace top-level fields as before.  A dotted key
        traverses nested spec dataclasses — and tuples, via integer
        segments — rebuilding every level immutably, so sweeps can vary
        nested parameters without hand-rebuilding specs::

            spec.with_overrides(**{"topology.bottleneck_bps": 2e6})
            spec.with_overrides(**{"topology.leaves.0.bandwidth": 1e6})
            spec.with_overrides(**{"metrics.with_trace": True})
            spec.with_overrides(**{"flows.0.params.max_rtt": 0.3})

        Protocol parameters live in each flow's ``params`` mapping, so the
        last form makes protocol ablations sweepable; a leaf params key may
        be new (the spec left it at the protocol default).
        """
        spec = self
        flat = {k: v for k, v in changes.items() if "." not in k}
        if flat:
            spec = replace(spec, **flat)
        for key, value in changes.items():
            if "." in key:
                spec = _replace_nested(spec, key, key.split("."), value)
        return spec

    def with_tfmcc_config(self, config: Any) -> "ScenarioSpec":
        """Copy with ``config`` (a TFMCCConfig) applied to every TFMCC flow.

        The config is serialised into each tfmcc flow's ``params`` (replacing
        whatever was there), so the returned spec is self-contained: it
        JSON-round-trips and sweeps with the protocol parameters intact.
        """
        from repro.protocols import config_to_params

        params = config_to_params(config)
        flows = tuple(
            replace(f, params=dict(params)) if f.kind == "tfmcc" else f
            for f in self.flows
        )
        return replace(self, flows=flows)
