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

Each numeric field declares its :class:`Domain` and each nested spec its
decoder in ``field(metadata=...)``; one walk checks the domains on every
construction and one decoder reads every dict form.
"""

from __future__ import annotations

import collections.abc
import copy
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

T = TypeVar("T")

_ATOMIC_TYPES = frozenset((str, int, float, bool, type(None)))


# ------------------------------------------------------------------- domains


class Domain(NamedTuple):
    """The values one numeric spec field may take, and how an error says so."""

    text: str
    ok: Callable[[Any], bool]


def _real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INF = math.inf
# Times, rates and periods are event delays: a NaN one never fires (the heap
# cannot order it) and an infinite one never ends the run.  Each test takes a
# float, the common case, without a call.
POSITIVE = Domain(
    "a positive finite number", lambda v: (type(v) is float or _real(v)) and 0 < v < _INF
)
NONNEGATIVE = Domain(
    "a finite number >= 0", lambda v: (type(v) is float or _real(v)) and 0 <= v < _INF
)
FINITE = Domain(
    "a finite number", lambda v: (type(v) is float or _real(v)) and -_INF < v < _INF
)
PROBABILITY = Domain(
    "a probability in [0, 1]", lambda v: (type(v) is float or _real(v)) and 0 <= v <= 1
)
FRACTION = Domain("in [0, 1)", lambda v: (type(v) is float or _real(v)) and 0 <= v < 1)
COUNT = Domain("an int >= 1", lambda v: type(v) is int and v >= 1)
INDEX = Domain("an int >= 0", lambda v: type(v) is int and v >= 0)


def optional(domain: Domain) -> Domain:
    return Domain(f"{domain.text} or None", lambda v, ok=domain.ok: v is None or ok(v))


def _field(
    domain: Optional[Domain] = None, default: Any = MISSING, decode: Any = None, **kw: Any
) -> Any:
    """A spec field with its ``domain`` and, for a nested spec, its ``decode``:
    a spec class, ``(Item,)`` for a tuple of them, or ``(Run, Item)`` for a
    run (a mapping) or a tuple; any other keyword goes to ``field``."""
    return field(default=default, metadata={"domain": domain, "decode": decode}, **kw)


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class _Declared(NamedTuple):
    names: FrozenSet[str]
    required: FrozenSet[str]
    checks: Tuple[Tuple[str, Domain], ...]
    decoders: Tuple[Tuple[str, Any, bool], ...]


@lru_cache(maxsize=None)
def _declared(cls: type) -> _Declared:
    """What the fields of ``cls`` declare, resolved once per class.

    A single nested spec is checked to be an instance of its class (None
    too, where that is the default).
    """
    checks, decoders = [], []
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING is f.default_factory)
    for f in fields(cls):
        domain, decode = f.metadata.get("domain"), f.metadata.get("decode")
        if decode is not None:
            decoders.append((f.name, decode, f.default is not None and f.name not in required))
            if isinstance(decode, type):
                text = f"an instance of {decode.__name__}"
                domain = Domain(text, lambda v, c=decode: isinstance(v, c))
                domain = optional(domain) if f.default is None else domain
        if domain is not None:
            checks.append((f.name, domain))
    return _Declared(frozenset(_field_names(cls)), required, tuple(checks), tuple(decoders))


def _refused(owner: str, name: str, domain: Domain, value: Any) -> ValueError:
    return ValueError(f"{owner}.{name} must be {domain.text}, got {value!r}")


def _decode(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Build spec ``cls`` from its dict form, nested specs by their declared
    decoders; a topology's ``kind`` picks its class.  A None for a nested spec
    that is not optional means its default (older dicts wrote it so)."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a {cls.__name__} must be a mapping, got {data!r}")
    data = dict(data)
    if issubclass(cls, TopologySpec):
        kind = data.pop("kind", None)
        cls = _TOPOLOGY_KINDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown topology kind {kind!r}")
    declared = _declared(cls)
    unknown = data.keys() - declared.names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    for name, decode, none_is_default in declared.decoders:
        value = data.get(name)
        if value is None:
            if none_is_default:
                data.pop(name, None)
        elif isinstance(decode, type):
            if isinstance(value, Mapping):
                data[name] = _decode(decode, value)
        elif len(decode) == 2 and isinstance(value, Mapping):
            data[name] = _decode(decode[0], value)
        elif isinstance(value, (list, tuple)):
            data[name] = tuple(_decode(decode[-1], item) for item in value)
        else:
            raise ValueError(f"{cls.__name__}.{name} must be a list, got {value!r}")
    missing = declared.required - data.keys()
    if missing:
        raise ValueError(f"missing {cls.__name__} fields: {sorted(missing)}")
    return cls(**data)


def _spec(owner: str) -> Callable[[Type[T]], Type[T]]:
    """Make ``cls`` a frozen spec dataclass, checked on every construction.

    ``owner`` names it in errors (a format field reads the instance).  The
    walk refuses any field outside its declared domain, naming
    ``<owner>.<field>``; the class's own ``__post_init__`` (or the nearest
    inherited one) then keeps only the rules that span fields.
    ``from_dict`` is :func:`_decode` unless the class brings its own.
    """

    def make(cls: Type[T]) -> Type[T]:
        rules = cls.__dict__.get("__post_init__", getattr(cls, "_rules", None))
        checks: Tuple[Tuple[str, Domain], ...] = ()

        def __post_init__(self: Any) -> None:
            for name, domain in checks:
                value = getattr(self, name)
                if not domain.ok(value):
                    raise _refused(owner.format(self), name, domain, value)
            if rules is not None:
                rules(self)

        cls.__post_init__, cls._rules = __post_init__, rules
        if "from_dict" not in cls.__dict__:
            cls.from_dict = classmethod(_decode)
        cls = dataclass(frozen=True)(cls)
        checks = _declared(cls).checks
        return cls

    return make


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
    names = _field_names(type(obj))
    if head not in names:
        raise ValueError(
            f"override {full_key!r}: {type(obj).__name__} has no field {head!r} "
            f"(fields: {', '.join(sorted(names))})"
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


# --------------------------------------------------------------- impairments


@_spec("gilbert_elliott")
class GilbertElliottSpec:
    """Parameters of a two-state bursty-loss process (see ``repro.channel``)."""

    p_good_bad: float = _field(PROBABILITY)
    p_bad_good: float = _field(PROBABILITY)
    loss_good: float = _field(PROBABILITY, 0.0)
    loss_bad: float = _field(PROBABILITY, 1.0)

    def build(self):
        """Construct a fresh Gilbert-Elliott channel model in the GOOD state."""
        from repro.channel import GilbertElliottLoss

        return GilbertElliottLoss(self.p_good_bad, self.p_bad_good, self.loss_good, self.loss_bad)


@_spec("channel")
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
        object.__setattr__(self, "params", dict(self.params or {}))
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


@_spec("impairment")
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

    loss_rate: float = _field(FRACTION, 0.0)
    jitter: Optional[float] = _field(optional(NONNEGATIVE), None)
    gilbert_elliott: Optional[GilbertElliottSpec] = _field(default=None, decode=GilbertElliottSpec)
    channel: Optional[ChannelSpec] = _field(default=None, decode=ChannelSpec)

    def __post_init__(self) -> None:
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


NO_IMPAIRMENT = ImpairmentSpec()


# ------------------------------------------------------------------ topology


@_spec("edge")
class EdgeSpec:
    """One duplex edge of a star or chain topology."""

    bandwidth: float = _field(POSITIVE)
    delay: float = _field(NONNEGATIVE)
    queue_limit: int = _field(COUNT, 50)
    impairment: ImpairmentSpec = _field(default=NO_IMPAIRMENT, decode=ImpairmentSpec)


@_spec("link {0.a}-{0.b}")
class DuplexLinkSpec:
    """A named duplex link, used for extra links and custom topologies."""

    a: str
    b: str
    bandwidth: float = _field(POSITIVE)
    delay: float = _field(NONNEGATIVE)
    queue_limit: int = _field(COUNT, 50)
    impairment: ImpairmentSpec = _field(default=NO_IMPAIRMENT, decode=ImpairmentSpec)


@_spec("leaves")
class LeafRun(_Run):
    """``count`` identical star leaves, as one object: ``(edge,) * count``.

    A uniform star of 10^5 leaves resolves, encodes and hashes as one
    :class:`EdgeSpec` and a count, and builders take the edge once for the
    whole run.  Encodes as a mapping (``{"count": N, "edge": {...}}``).
    """

    edge: EdgeSpec = _field(decode=EdgeSpec)
    count: int = _field(COUNT)

    def _item(self, index: int) -> EdgeSpec:
        return self.edge


def edge_runs(edges: Union[Tuple[EdgeSpec, ...], LeafRun]) -> List[Tuple[EdgeSpec, int]]:
    """``(edge, count)`` per stretch of a leaf sequence: one pair for a run,
    one per edge for an explicit tuple (whose edges are never compared)."""
    if isinstance(edges, LeafRun):
        return [(edges.edge, edges.count)]
    return [(edge, 1) for edge in edges]


@_spec("topology")
class TopologySpec:
    """Base class for topology descriptions.

    ``extra_links`` lets any topology be extended with additional duplex
    links (e.g. the slow tail of the late-join experiment); routes are
    rebuilt after they are added.
    """

    extra_links: Tuple[DuplexLinkSpec, ...] = _field(default=(), decode=(DuplexLinkSpec,))

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


@_spec("topology")
class DumbbellSpec(TopologySpec):
    """Single shared bottleneck: ``src*`` and ``dst*`` behind two routers."""

    num_left: int = _field(COUNT, 1)
    num_right: int = _field(COUNT, 1)
    bottleneck_bps: float = _field(POSITIVE, 1e6)
    bottleneck_delay: float = _field(NONNEGATIVE, 0.02)
    access_bps: float = _field(POSITIVE, 12.5e6)
    access_delay: float = _field(NONNEGATIVE, 0.001)
    queue_limit: int = _field(COUNT, 50)
    access_queue_limit: Optional[int] = _field(optional(COUNT), None)
    access_jitter: Optional[float] = _field(optional(NONNEGATIVE), None)

    kind = "dumbbell"

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        named, _ = super().node_families()
        return named | {"router_left", "router_right"}, {
            "src": self.num_left,
            "dst": self.num_right,
        }


@_spec("topology")
class StarSpec(TopologySpec):
    """A ``source`` behind a hub with per-leaf duplex links ``leaf0..N-1``.

    ``leaves`` is an explicit tuple of :class:`EdgeSpec` or one
    :class:`LeafRun`, which is kept as it is.
    """

    leaves: Union[Tuple[EdgeSpec, ...], LeafRun] = _field(default=(), decode=(LeafRun, EdgeSpec))
    hub_bps: float = _field(POSITIVE, 100e6)
    hub_delay: float = _field(NONNEGATIVE, 0.001)
    jitter: Optional[float] = _field(optional(NONNEGATIVE), None)

    kind = "star"

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        named, _ = super().node_families()
        return named | {"source", "hub"}, {"leaf": len(self.leaves)}


@_spec("topology")
class ChainSpec(TopologySpec):
    """Linear multi-hop path ``n0 - n1 - ... - nK`` (one EdgeSpec per hop)."""

    hops: Tuple[EdgeSpec, ...] = _field(default=(), decode=(EdgeSpec,))
    jitter: Optional[float] = _field(optional(NONNEGATIVE), None)

    kind = "chain"

    def node_families(self) -> Tuple[FrozenSet[str], Dict[str, int]]:
        named, _ = super().node_families()
        return named, {"n": len(self.hops) + 1 if self.hops else 0}


@_spec("topology")
class CustomSpec(TopologySpec):
    """Arbitrary topology given purely as a list of duplex links."""

    kind = "custom"


_TOPOLOGY_KINDS: Dict[str, Type[TopologySpec]] = {
    "dumbbell": DumbbellSpec,
    "star": StarSpec,
    "chain": ChainSpec,
    "custom": CustomSpec,
}
topology_from_dict = TopologySpec.from_dict


# ------------------------------------------------------------------- traffic

_OPTIONAL_POSITIVE = optional(POSITIVE)


@dataclass(frozen=True, init=False, slots=True)
class ReceiverSpec:
    """One TFMCC receiver: where it sits and when it is a member.

    The one spec class a spec may hold thousands of, so its constructor is
    written out (the generated frozen ``__init__`` pays one
    ``object.__setattr__`` per field plus a ``__post_init__`` call) and
    checks its two declared domains inline.
    """

    node: str
    receiver_id: Optional[str] = None
    join_at: float = _field(NONNEGATIVE, 0.0)
    leave_at: Optional[float] = _field(_OPTIONAL_POSITIVE, None)

    def __init__(
        self,
        node: str,
        receiver_id: Optional[str] = None,
        join_at: float = 0.0,
        leave_at: Optional[float] = None,
    ) -> None:
        if not NONNEGATIVE.ok(join_at):
            raise _refused("receiver", "join_at", NONNEGATIVE, join_at)
        if not _OPTIONAL_POSITIVE.ok(leave_at):
            raise _refused("receiver", "leave_at", _OPTIONAL_POSITIVE, leave_at)
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


@_spec("receivers")
class ReceiverRun(_Run):
    """``count`` static receivers on consecutively numbered nodes, as one object.

    Stands for ``tuple(ReceiverSpec(node.format(i)) for i in range(first,
    first + count))`` — members from t=0 to the end, ids assigned by the
    session — so a 10^5-receiver flow resolves, encodes and hashes as three
    fields (see :class:`_Run` for what a run is and is not).
    """

    node: str
    count: int = _field(COUNT)
    first: int = _field(INDEX, 0)

    def __post_init__(self) -> None:
        # One bare index field: ``str.format`` would otherwise evaluate
        # attribute access and format specs taken from a request body.
        if not (isinstance(self.node, str) and _RUN_NODE.fullmatch(self.node)):
            raise ValueError(
                "receivers.node must be a node name with one '{}' index field, "
                f"got {self.node!r}"
            )

    def node_at(self, index: int) -> str:
        """Node of receiver ``index`` (0-based, unchecked), building no spec."""
        return self.node.format(self.first + index)

    def _item(self, index: int) -> ReceiverSpec:
        return ReceiverSpec(self.node_at(index))


@_spec("flow")
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
    receivers: Union[Tuple[ReceiverSpec, ...], ReceiverRun] = _field(
        default=(), decode=(ReceiverRun, ReceiverSpec)
    )
    name: Optional[str] = None
    start: float = _field(NONNEGATIVE, 0.0)
    stop: Optional[float] = _field(optional(POSITIVE), None)
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.receivers, ReceiverRun):
            object.__setattr__(self, "receivers", tuple(self.receivers))
        object.__setattr__(self, "params", dict(self.params or {}))
        if self.stop is not None and not self.stop > self.start:
            raise ValueError(
                f"flow stop ({self.stop}) must be after start ({self.start})"
            )
        # Late import: the protocol factories import simulator/session code,
        # none of which is needed to merely define specs.
        from repro.protocols import get_protocol

        get_protocol(self.kind).validate(self)


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


@_spec("event")
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

    at: float = _field(NONNEGATIVE)
    kind: str
    # Link events.
    a: Optional[str] = None
    b: Optional[str] = None
    bandwidth: Optional[float] = _field(optional(POSITIVE), None)
    delay: Optional[float] = _field(optional(NONNEGATIVE), None)
    loss_rate: Optional[float] = _field(optional(FRACTION), None)
    gilbert_elliott: Optional[GilbertElliottSpec] = _field(default=None, decode=GilbertElliottSpec)
    direction: str = "both"
    # Channel events.
    channel: Optional[ChannelSpec] = _field(default=None, decode=ChannelSpec)
    snr_db: Optional[float] = _field(optional(FINITE), None)
    # Membership events.
    flow: Optional[str] = None
    node: Optional[str] = None
    receiver_id: Optional[str] = None

    def __post_init__(self) -> None:
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
        if self.delay is not None and self.direction != "both":
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


@_spec("waypoint")
class WaypointSpec:
    """One mobility waypoint: ``node`` reaches ``(x, y)`` metres at time ``at``.

    Motion towards a waypoint is linear from the node's previous location
    (the preceding waypoint, or its static start position at the time of the
    preceding waypoint / t=0).  After its last waypoint a node stays put.
    """

    node: str
    at: float = _field(NONNEGATIVE)
    x: float = _field(FINITE)
    y: float = _field(FINITE)


@_spec("mobility")
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
    waypoints: Tuple[WaypointSpec, ...] = _field(default=(), decode=(WaypointSpec,))
    update_interval: float = _field(POSITIVE, 1.0)

    def __post_init__(self) -> None:
        positions = {n: (float(x), float(y)) for n, (x, y) in dict(self.positions or {}).items()}
        for node, xy in positions.items():
            if not all(map(FINITE.ok, xy)):
                raise ValueError(f"mobility.positions[{node!r}] must be finite, got {xy!r}")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
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


@_spec("dynamics")
class DynamicsSpec:
    """Time-scripted network dynamics: an ordered schedule of events.

    Events fire at their absolute simulation time ``at``; events with equal
    times fire in schedule order.  ``mobility`` adds continuous waypoint
    motion on top of the discrete schedule.  The empty spec (the default on
    every :class:`ScenarioSpec`) is inert — static scenarios are unaffected.
    """

    events: Tuple[NetworkEventSpec, ...] = _field(default=(), decode=(NetworkEventSpec,))
    mobility: Optional[MobilitySpec] = _field(default=None, decode=MobilitySpec)

    def __bool__(self) -> bool:
        return bool(self.events) or self.mobility is not None


NO_DYNAMICS = DynamicsSpec()


# ------------------------------------------------------------------- metrics


@_spec("metrics")
class MetricsSpec:
    """What to measure and how to summarise it.

    ``with_trace`` attaches the structured trace probes
    (:mod:`repro.metrics.trace`) to the run — feedback rounds, CLR changes,
    loss events, suppression and sampled queue occupancy — and embeds their
    deterministic summary under the record's ``"trace"`` key.
    ``trace_queue_interval`` is the queue-occupancy sampling period.
    """

    interval: float = _field(POSITIVE, 1.0)
    warmup_fraction: float = _field(FRACTION, 0.25)
    with_series: bool = False
    link_stats: bool = True
    with_trace: bool = False
    trace_queue_interval: float = _field(POSITIVE, 0.5)


# -------------------------------------------------------------------- engine


@_spec("engine")
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
        always stay exact.
    ``step_interval``
        Cohort update period in simulated seconds; ``None`` steps once per
        sender feedback round (the paper's natural feedback granularity).
    ``max_reports_per_step``
        Safety cap on the cohort's reports per step: the first this many
        responders left after suppression (in timer order) are injected
        into the sender.  It is not part of the protocol.
    """

    kind: str = "exact"
    tracer_receivers: int = _field(COUNT, 2)
    step_interval: Optional[float] = _field(optional(POSITIVE), None)
    max_reports_per_step: int = _field(COUNT, 4)

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


# -------------------------------------------------------------------- scenario

#: ``<prefix><index>`` with a canonical (no leading zero) decimal index.
_NUMBERED_NODE = re.compile(r"(.*?)(0|[1-9][0-9]*)")
_NODE_OF = attrgetter("node")


@_spec("scenario")
class ScenarioSpec:
    """A complete, self-contained description of one simulation run.

    Traffic is a single ordered tuple of :class:`FlowSpec` in ``flows``;
    flows are built in that order.
    """

    name: str
    duration: float = _field(POSITIVE)
    topology: TopologySpec = _field(decode=TopologySpec)
    metrics: MetricsSpec = _field(default_factory=MetricsSpec, decode=MetricsSpec)
    dynamics: DynamicsSpec = _field(default=NO_DYNAMICS, decode=DynamicsSpec)
    description: str = ""
    flows: Tuple[FlowSpec, ...] = _field(default=(), decode=(FlowSpec,))
    engine: EngineSpec = _field(default_factory=EngineSpec, decode=EngineSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", _canonicalise_flow_names(self.flows))
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
        # Dicts stored before dynamics or the engine registry existed lack
        # those keys and resolve to the defaults.
        return _decode(ScenarioSpec, data)

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
