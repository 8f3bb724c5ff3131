"""The automaton contract: what every locking protocol implements.

A protocol is one small automaton per (node, lock).  This module holds
everything about such an automaton that is *not* protocol logic, so the
hierarchical protocol and the Naimi/Raymond baselines (and any later
one) share a single definition of it:

* a JSON codec vocabulary (:class:`Codec`, :func:`field`) in which a
  protocol declares its wire messages (:func:`register_message`), its
  state (``STATE``) and the arguments of its recorded operations
  (:func:`recorded`) — one table each, read by both directions — and in
  which the observability records (:mod:`repro.obs`) declare theirs
  (:func:`record`);
* :class:`LockAutomaton` — hook slots, journalling, flight recording,
  observation (span reports, grants, gauges sampled between inputs),
  lease fencing, the ``handle()`` preamble, the state encoder/decoder
  and durable adoption;
* :class:`AutomatonSpace` — the per-node multiplexer (lazy creation,
  hook propagation, birth recording, routing, checkpoints).

The flight recorder, the durability journal and the recovery layer only
ever talk to these surfaces; DESIGN.md "The automaton contract" lists
what a new protocol must supply.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
)

from ..errors import ProtocolError
from .clock import LamportClock
from .messages import Envelope, LockId, NodeId, fresh_attachment_seq
from .modes import LockMode
from ..obs.sink import GRANTED, ISSUED, PHASE_ORDER

# ---------------------------------------------------------------------------
# Codec vocabulary.
# ---------------------------------------------------------------------------


class Codec(NamedTuple):
    """How one kind of value crosses into JSON and back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


#: An already JSON-safe value (a lock id, a persisted state payload).
RAW = Codec(_same, _same)


def optional(codec: Codec) -> Codec:
    """*codec*, with ``None`` passing through both ways."""

    return Codec(
        lambda value: None if value is None else codec.encode(value),
        lambda value: None if value is None else codec.decode(value),
    )


def listing(codec: Codec, build: Callable[[Iterable], Any] = list) -> Codec:
    """An ordered collection of *codec* values, rebuilt with *build*."""

    return Codec(
        lambda values: [codec.encode(value) for value in values],
        lambda values: build(codec.decode(value) for value in values),
    )


def mapping(key: Codec, value: Codec) -> Codec:
    """A dict, stored as key-sorted ``[key, value]`` pairs."""

    return Codec(
        lambda entries: sorted(
            [key.encode(k), value.encode(v)] for k, v in entries.items()
        ),
        lambda pairs: {key.decode(k): value.decode(v) for k, v in pairs},
    )


def tupled(*codecs: Codec) -> Codec:
    """A fixed-width tuple with one codec per position, stored as a list."""

    return Codec(
        lambda values: [
            codec.encode(value)
            for codec, value in zip(codecs, values, strict=True)
        ],
        lambda values: tuple(
            codec.decode(value)
            for codec, value in zip(codecs, values, strict=True)
        ),
    )


INT = Codec(int, int)
FLOAT = Codec(float, float)
STR = Codec(str, str)
BOOL = Codec(bool, bool)
OPT_NODE = optional(INT)
MODE = Codec(str, lambda name: LockMode(str(name)))
MODES = Codec(
    lambda modes: sorted(str(mode) for mode in modes),
    lambda names: frozenset(LockMode(str(name)) for name in names),
)
NODE_SET = Codec(sorted, lambda nodes: {int(node) for node in nodes})


#: One row of a message or state table: (JSON key, attribute, codec,
#: durable).  A :func:`record` row whose key a payload may lack carries
#: two more: (..., default, omitted).
Field = Tuple

#: "This row has no default": the key must be present.
_REQUIRED = object()


def field(
    key: str,
    codec: Codec,
    attr: Optional[str] = None,
    durable: bool = True,
    default: object = _REQUIRED,
    omit: object = _REQUIRED,
) -> Field:
    """Declare that JSON *key* carries attribute *attr* (default: *key*).

    ``durable=False`` marks a state field as replay-only: checkpoints
    carry it, write-ahead-log records do not.

    In a :func:`record` table only (messages and state have no optional
    keys), ``default=value`` makes a payload without *key* decode as if
    it carried the JSON *value*; ``omit=value`` does the same and also
    leaves *key* out of the encoding whenever it would carry *value*.
    """

    row = (key, key if attr is None else attr, codec, durable)
    if omit is not _REQUIRED:
        return row + (omit, True)
    if default is not _REQUIRED:
        return row + (default, False)
    return row


def _encode_fields(obj: object, fields: Iterable[Field]) -> Dict[str, object]:
    return {key: codec.encode(getattr(obj, attr)) for key, attr, codec, _ in fields}


def _decode_fields(
    payload: Mapping[str, object], fields: Iterable[Field], what: str
) -> Dict[str, object]:
    try:
        return {attr: codec.decode(payload[key]) for key, attr, codec, _ in fields}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{what}: absent or malformed key: {exc!r}") from None


# ---------------------------------------------------------------------------
# Records: dataclasses that cross into JSON whole (cluster snapshots,
# audit findings, spans, causal chains).  Unlike messages and state they
# are read back from files and HTTP bodies other versions wrote, so a
# row may have a default.
# ---------------------------------------------------------------------------


def record(*fields: Field) -> Callable[[type], type]:
    """Class decorator: one table gives a dataclass both directions.

    The class gains ``to_payload()``, the classmethod ``from_payload()``
    and ``CODEC`` (for nesting it in another table).  Keys are emitted in
    table order.  A row naming a property instead of a constructor field
    is derived: encoded, never read back.  Registration fails if a
    dataclass field is left out, so a field added to a record later
    cannot be dropped silently by an exporter.
    """

    def register(cls: type) -> type:
        declared = {f.name for f in dataclasses.fields(cls)}
        named = {row[1] for row in fields}
        derived = {attr for attr in named - declared if hasattr(cls, attr)}
        if named - derived != declared:
            raise TypeError(
                f"{cls.__name__}: record fields must cover exactly "
                f"{sorted(declared)}"
            )
        rows = tuple(
            (key, attr, codec, *(extra or (_REQUIRED, False)))
            for key, attr, codec, _durable, *extra in fields
        )
        cls._ENCODED = rows
        cls._DECODED = tuple(row[:4] for row in rows if row[1] in declared)
        cls.to_payload = to_payload
        cls.from_payload = classmethod(from_payload)
        cls.CODEC = Codec(cls.to_payload, cls.from_payload)
        return cls

    return register


def to_payload(self) -> Dict[str, object]:
    """Encode one :func:`record` instance as a JSON-safe dict."""

    payload = {}
    for key, attr, codec, default, omitted in self._ENCODED:
        value = codec.encode(getattr(self, attr))
        if not (omitted and value == default):
            payload[key] = value
    return payload


def from_payload(cls, payload: Mapping[str, object]):
    """Rebuild a :func:`record` instance from :func:`to_payload` output."""

    decoded = {}
    try:
        for key, attr, codec, default in cls._DECODED:
            raw = payload.get(key, default)
            if raw is _REQUIRED:
                raise KeyError(key)
            decoded[attr] = codec.decode(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{cls.__name__}: absent or malformed key: {exc!r}"
        ) from None
    return cls(**decoded)


# ---------------------------------------------------------------------------
# Wire messages.
# ---------------------------------------------------------------------------

_MESSAGES: Dict[str, Tuple[type, Tuple[Field, ...]]] = {}
#: Common to every message, hence implied by :func:`register_message`.
_HEADER = (field("lock", RAW, "lock_id"), field("sender", INT))


def register_message(cls: type, *fields: Field) -> None:
    """Teach the codec the dataclass *cls*: one :func:`field` per attribute.

    ``lock_id`` and ``sender`` are common to every message and implied.
    Registration fails if a dataclass field is left out, so a field added
    to a message later cannot be dropped silently by the recorder or the
    journal.
    """

    declared = {f.name for f in dataclasses.fields(cls)}
    declared -= {"lock_id", "sender"}
    if declared != {attr for _key, attr, _codec, _durable in fields}:
        raise TypeError(
            f"{cls.__name__}: codec fields must cover exactly {sorted(declared)}"
        )
    _MESSAGES[cls.__name__] = (cls, _HEADER + fields)


def message_to_payload(message: object) -> Dict[str, object]:
    """Encode one registered protocol message."""

    entry = _MESSAGES.get(type(message).__name__)
    if entry is None or entry[0] is not type(message):
        raise ValueError(f"cannot encode message type {type(message).__name__}")
    payload = _encode_fields(message, entry[1])
    payload["type"] = type(message).__name__
    return payload


def message_from_payload(payload: Mapping[str, object]) -> object:
    """Decode one :func:`message_to_payload` payload."""

    entry = _MESSAGES.get(str(payload.get("type")))
    if entry is None:
        raise ValueError(f"cannot decode message type {payload.get('type')!r}")
    cls, fields = entry
    return cls(**_decode_fields(payload, fields, cls.__name__))


#: A nested protocol message (queued requests inside state and tokens).
MESSAGE = Codec(message_to_payload, message_from_payload)

# ---------------------------------------------------------------------------
# The automaton base.
# ---------------------------------------------------------------------------

_PROTOCOLS: Dict[str, Type["LockAutomaton"]] = {}


def noop_listener(lock_id: LockId, granted=None, ctx=None) -> None:
    """Default grant listener, for callers that need no callback."""


def automaton_class(protocol: str) -> Type["LockAutomaton"]:
    """The automaton class registered under *protocol*."""

    try:
        return _PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None


def recorded(**codecs: Codec) -> Callable:
    """Make a method a recorded operation with these keyword arguments.

    While a flight recorder is attached, each call records the method's
    name and these arguments (bound from position, keyword or default;
    encoded, in table order) before the body runs; replay calls
    ``getattr(automaton, name)(**decoded_args)``.  While a journal is
    attached, each call that returns journals the durable state under
    the method's name, and an attached observer samples the gauges (see
    :meth:`LockAutomaton.handle`).  Argument names are the method's own
    parameter names (the grant context, which does not survive a
    recording, is never one of them); any other name is a
    :class:`TypeError` as the class is created, so no dump can hold a
    call the replayer could not re-apply.
    """

    def wrap(method: Callable) -> Callable:
        parameters = list(inspect.signature(method).parameters.values())[1:]
        slots = {
            p.name: (index, p.default)
            for index, p in enumerate(parameters)
            if p.kind is p.POSITIONAL_OR_KEYWORD
        }
        unknown = sorted(set(codecs) - set(slots))
        if unknown:
            raise TypeError(
                f"{method.__qualname__}: recorded arguments {unknown} "
                "are not parameters of the method"
            )
        plan = tuple((key, *slots[key], codec) for key, codec in codecs.items())
        op = method.__name__

        @functools.wraps(method)
        def operation(self, *args, **kwargs):
            if self.flightrec is not None:
                encoded = {}
                for key, index, default, codec in plan:
                    value = kwargs.get(key, default)
                    if index < len(args):
                        value = args[index]
                    encoded[key] = codec.encode(value)
                self.flightrec.record_op(self._lock_id, op, encoded)
            result = method(self, *args, **kwargs)
            if self.persist is not None:
                self.persist.record(self, op)
            if self.obs is not None:
                self._sample_gauges()
            return result

        operation.recorded_args = codecs
        return operation

    return wrap


def handles(message_type: type) -> Callable:
    """Mark a method as the handler of *message_type* deliveries."""

    def mark(method: Callable) -> Callable:
        method.handled_type = message_type
        return method

    return mark


def _collect_tables(cls: Type["LockAutomaton"]) -> None:
    """Build *cls*'s handler, operation and durable-field tables, and
    its gauges' baseline."""

    cls.HANDLERS = dict(cls.HANDLERS)
    cls.OPS = dict(cls.OPS)
    for name, member in vars(cls).items():
        if hasattr(member, "handled_type"):
            cls.HANDLERS[member.handled_type] = member
        if hasattr(member, "recorded_args"):
            cls.OPS[name] = member.recorded_args
    cls._DURABLE = tuple(row for row in cls.STATE if row[-1])
    # Every gauge of a newborn automaton reads 0 (see ``_sample_gauges``).
    cls._gauged = (0,) * len(cls.GAUGES)
    if vars(cls).get("PROTOCOL"):  # only a class that names itself
        _PROTOCOLS[cls.PROTOCOL] = cls


class LockAutomaton:
    """Per-(node, lock) protocol state machine: the shared half.

    A protocol subclasses this, names itself (``PROTOCOL``), declares its
    ``STATE`` table, decorates its message handlers (:func:`handles`)
    and recorded operations (:func:`recorded`), and implements
    :meth:`birth` / :meth:`from_birth` and :meth:`snapshot`.
    """

    #: Registry name (dump headers, cluster ``PROTOCOL``); "" = abstract.
    PROTOCOL = ""
    #: Every field of the automaton's state, in one table.
    STATE: Tuple[Field, ...] = ()
    #: What an attached observer samples between inputs: rows of (sink
    #: gauge method, attribute); each gauge reads ``len()`` of its
    #: attribute (see :meth:`_sample_gauges`).
    GAUGES: Tuple[Tuple[str, str], ...] = ()
    #: A legal :meth:`birth` for an automaton about to be restored over.
    BLANK: Mapping[str, object] = {}
    #: Durable keys :meth:`_rejoin_policy` resets (round-trip exceptions).
    REJOIN_RESETS: Tuple[str, ...] = ()
    #: Message type → handler, and operation name → argument codecs;
    #: collected from the decorators by ``__init_subclass__``.
    HANDLERS: Dict[type, Callable] = {}
    OPS: Dict[str, Dict[str, Codec]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _collect_tables(cls)

    def __init__(
        self, node_id: NodeId, lock_id: LockId, listener: Callable
    ) -> None:
        # Subclasses call this as ``LockAutomaton.__init__(self, ...)``:
        # construction is the first-touch path, and ``super()`` would
        # cost a measurable share of it.
        self._node_id = node_id
        self._lock_id = lock_id
        self._listener = listener
        #: Application context of this node's one outstanding request;
        #: not protocol state (a restored automaton has none).
        self._ctx: object = None
        #: Optional observability sink (see :mod:`repro.obs`), durability
        #: journal (:mod:`repro.persist`) and flight recorder
        #: (:mod:`repro.obs.flightrec`; during replay, the feed supplying
        #: recorded serials).  ``None`` keeps every hook site a single
        #: attribute test and the run bit-identical to an unhooked one.
        self.obs = None
        self.persist = None
        self.flightrec = None
        # Lease fencing (see repro.leases): the highest revoked fencing
        # token observed for this lock.
        self._fence_floor = 0

    # -- identity -------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        """Identity of the hosting node."""

        return self._node_id

    @property
    def lock_id(self) -> LockId:
        """Name of the lock this automaton manages."""

        return self._lock_id

    # -- hooks ----------------------------------------------------------

    def _mint_serial(self) -> int:
        """Draw a request serial / attachment epoch.

        Routed through the flight recorder when one is attached: the
        global counter's values depend on cross-node interleaving, so the
        recorder logs each drawn value (and replay feeds them back).
        """

        if self.flightrec is not None:
            return self.flightrec.mint_serial()
        return fresh_attachment_seq()

    def _require_recovery(self) -> None:
        """Guard of the fault-tolerance hooks (always on by default)."""

    # -- observation ----------------------------------------------------

    #: Names the spans of zero-message local grants.  Observer state,
    #: not protocol state: no ``STATE`` row, and a class default, so an
    #: unobserved automaton never stores it.
    _local_spans = 0

    def _report(
        self,
        event: str,
        key: object = None,
        mode: Optional[LockMode] = None,
        node: Optional[NodeId] = None,
    ) -> None:
        """Tell an attached observer that span *key* reached *event*.

        *event* is a span phase (:data:`repro.obs.sink.PHASES`) of the
        request *key* at *node* (default: this node), or else the kind of
        a fault event at this node.  ``GRANTED`` without a *key* is a
        zero-message local grant, whose span is minted and issued here.
        """

        obs = self.obs
        if obs is None:
            return
        if event not in PHASE_ORDER:
            obs.fault(event, self._node_id)
            return
        if key is None and event == GRANTED:
            self._local_spans += 1
            key = ("L", self._node_id, self._local_spans)
            obs.phase(self._node_id, self._lock_id, key, ISSUED, mode)
        if node is None:
            node = self._node_id
        obs.phase(node, self._lock_id, key, event, mode)

    def _sample_gauges(self) -> None:
        """Report each ``GAUGES`` value that changed since the last sample.

        Called once an input returns, so a gauge reads the state between
        inputs, as checkpoints and journal records do.  The last values
        reported are observer state, not protocol state: the class
        default (all 0) until an observed input first moves one.
        """

        gauges, before = self.GAUGES, self._gauged
        values = tuple(len(getattr(self, attr)) for _sink, attr in gauges)
        if values == before:
            return
        for (sink, _attr), old, new in zip(gauges, before, values):
            if new != old:
                getattr(self.obs, sink)(self._node_id, self._lock_id, new)
        self._gauged = values

    def _grant(
        self, ctx: object, key: object = None, mode: Optional[LockMode] = None
    ) -> None:
        """Mark span *key* granted (see :meth:`_report`), then hand the
        request's *ctx* to the listener — with the granted *mode* first,
        for a protocol that grants modes."""

        if self.obs is not None:
            self._report(GRANTED, key, mode)
        if mode is None:
            self._listener(self._lock_id, ctx)
        else:
            self._listener(self._lock_id, mode, ctx)

    # -- lease fencing --------------------------------------------------

    @property
    def fence_floor(self) -> int:
        """Highest revoked fencing token observed (lease extension)."""

        return self._fence_floor

    @recorded(token=INT)
    def raise_fence_floor(self, token: int) -> None:
        """Reject future messages fenced at or below *token*.

        Called when a holder's lease on this lock is revoked: any later
        message presenting the revoked (or an older) fencing token is
        dropped by :meth:`handle`.
        """

        self._require_recovery()
        if token > self._fence_floor:
            self._fence_floor = int(token)

    # -- transport API --------------------------------------------------

    def handle(self, message) -> List[Envelope]:
        """Process one incoming protocol message, returning replies.

        Once the handler returns, an attached journal records the durable
        state under the message's type name, before the caller sends the
        replies (write-ahead), and an attached observer samples the
        protocol's gauges.  A stale-fenced drop records nothing.
        """

        if message.lock_id != self._lock_id:
            raise ProtocolError(
                f"message for lock {message.lock_id!r} delivered to "
                f"automaton of {self._lock_id!r}"
            )
        if self.flightrec is not None:
            self.flightrec.record_msg(self._lock_id, message)
        # Stale fencing token: traffic from a holder whose lease was
        # revoked — acting on it could resurrect a hold the revocation
        # already released.  0 means unfenced; only a positive token at
        # or below the floor is stale.
        if (
            self._fence_floor
            and 0 < getattr(message, "fencing_token", 0) <= self._fence_floor
        ):
            return []
        handler = self.HANDLERS.get(type(message))
        if handler is None:
            raise ProtocolError(f"unknown message type {type(message).__name__}")
        out = handler(self, message)
        if self.persist is not None:
            self.persist.record(self, type(message).__name__)
        if self.obs is not None:
            self._sample_gauges()
        return out

    # -- birth ----------------------------------------------------------

    def birth(self) -> Dict[str, object]:
        """JSON-safe construction inputs (see :meth:`from_birth`)."""

        raise NotImplementedError

    @classmethod
    def from_birth(
        cls,
        node_id: NodeId,
        lock_id: LockId,
        init: Mapping[str, object],
        listener: Callable,
        clock: LamportClock,
        options: Optional[Mapping[str, object]] = None,
    ) -> "LockAutomaton":
        """Rebuild the automaton :meth:`birth` described.

        *clock* is the hosting node's Lamport clock and *options* the
        recorded option switches of its lockspace; protocols without
        either ignore them.
        """

        raise NotImplementedError

    # -- the state codec ------------------------------------------------

    def flight_state(self) -> Dict[str, object]:
        """Exact JSON-safe state (flight-recorder checkpoints).  Pure read."""

        return _encode_fields(self, self.STATE)

    def persisted_state(self) -> Dict[str, object]:
        """The durable subset of :meth:`flight_state` (one WAL record)."""

        return _encode_fields(self, self._DURABLE)

    def restore_flight_state(self, state: Mapping[str, object]) -> None:
        """Exact inverse of :meth:`flight_state`; all or nothing.

        Durable keys are mandatory — defaulting one would silently turn a
        damaged record into a different automaton — and raise
        :class:`ValueError` naming the lock.  Replay-only keys absent
        from a WAL record leave their attribute untouched.
        """

        present = [f for f in self.STATE if f in self._DURABLE or f[0] in state]
        decoded = _decode_fields(state, present, f"lock {self._lock_id!r} state")
        for attr, value in decoded.items():
            setattr(self, attr, value)
        self._ctx = None

    @recorded(state=RAW)
    def adopt_persisted(self, state: Mapping[str, object]) -> None:
        """Become the automaton a WAL record describes, under a new boot.

        Called on a freshly booted automaton before any message flows:
        decode *state*, then apply the protocol's rejoin policy.
        """

        self._require_recovery()
        self.restore_flight_state(state)
        self._rejoin_policy()

    def _rejoin_policy(self) -> None:
        """What a restored state may not be trusted on after a restart."""


_collect_tables(LockAutomaton)


# ---------------------------------------------------------------------------
# The per-node multiplexer.
# ---------------------------------------------------------------------------


class AutomatonSpace:
    """All automata of one protocol hosted by one node, keyed by lock id.

    Subclasses add construction (:meth:`_new_automaton`) and may spell
    out their protocol's ``request`` / ``release`` signatures.
    """

    def __init__(self, node_id: NodeId, listener: Callable) -> None:
        self._node_id = node_id
        self._listener = listener
        self._clock = LamportClock()
        self._automata: Dict[LockId, LockAutomaton] = {}
        #: Optional observability sink, durability journal and flight
        #: recorder, propagated to every automaton this space creates
        #: (None = zero-cost no-op).
        self.obs = None
        self.persist = None
        self.flightrec = None
        #: Called with each automaton this space creates, once it is
        #: registered (None = nothing to do).
        self.on_birth: Optional[Callable[[LockAutomaton], None]] = None

    @property
    def node_id(self) -> NodeId:
        """This node's identity."""

        return self._node_id

    @property
    def clock(self) -> LamportClock:
        """The node's Lamport clock, shared by all its automata."""

        return self._clock

    @property
    def lock_ids(self) -> List[LockId]:
        """Ids of every lock this node has touched so far.  Reads such
        as :meth:`existing` and the quiescent audit register none."""

        return list(self._automata)

    def _new_automaton(self, lock_id: LockId) -> LockAutomaton:
        raise NotImplementedError

    def existing(self, lock_id: LockId) -> Optional[LockAutomaton]:
        """The automaton for *lock_id*, or ``None`` if this node never
        touched the lock (a pure read: nothing is created)."""

        return self._automata.get(lock_id)

    def automaton(self, lock_id: LockId) -> LockAutomaton:
        """Return (creating on first use) the automaton for *lock_id*."""

        existing = self._automata.get(lock_id)
        if existing is not None:
            return existing
        automaton = self._new_automaton(lock_id)
        automaton.obs = self.obs
        automaton.persist = self.persist
        automaton.flightrec = self.flightrec
        if self.flightrec is not None:
            # Birth precedes insertion: a checkpoint due on the next
            # event must not include the not-yet-born lock.
            self.flightrec.record_birth(lock_id, automaton.birth())
        self._automata[lock_id] = automaton
        if self.on_birth is not None:
            self.on_birth(automaton)
        return automaton

    def request(self, lock_id: LockId, *args, **kwargs) -> List[Envelope]:
        """Request *lock_id* (arguments as the automaton's ``request``)."""

        return self.automaton(lock_id).request(*args, **kwargs)

    def release(self, lock_id: LockId, *args, **kwargs) -> List[Envelope]:
        """Release *lock_id* (arguments as the automaton's ``release``)."""

        return self.automaton(lock_id).release(*args, **kwargs)

    def handle(self, message) -> List[Envelope]:
        """Route an incoming message to the automaton it concerns."""

        return self.automaton(message.lock_id).handle(message)

    def flight_state(self) -> Dict[str, object]:
        """Whole-node state for flight-recorder checkpoints (pure read)."""

        return {
            "clock": self._clock.time,
            "locks": [
                [lock_id, self._automata[lock_id].flight_state()]
                for lock_id in sorted(self._automata, key=str)
            ],
        }

    def _reset(self, clock: int = 0) -> None:
        self._automata = {}
        self._clock = LamportClock(clock)

    def restore(self, state: Mapping[str, object]) -> None:
        """Exact inverse of :meth:`flight_state`: forget every automaton,
        then rebuild each recorded one from its birth and restore it."""

        self._reset(int(state.get("clock", 0)))
        for lock_id, lock_state in state.get("locks", ()):
            self.automaton(lock_id).restore_flight_state(lock_state)

    def automata(self) -> Iterable[LockAutomaton]:
        """Iterate over every instantiated automaton (for monitors)."""

        return self._automata.values()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} node={self._node_id} "
            f"locks={len(self._automata)}>"
        )
