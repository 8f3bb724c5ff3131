"""Flight recorder + deterministic time-travel replay debugger.

The three protocols are deterministic state machines: every transition is
caused by a delivered message, a local application call (acquire /
release / upgrade), or an explicit recovery hook — never by wall time or
randomness inside the automaton.  A complete per-node input log is
therefore a complete *explanation* of any state the node ever reached.
This module records that log and replays it:

* :class:`FlightRecorder` — a per-node black-box ring buffer.  Every
  automaton input is appended in delivery order with a monotonic
  per-node ``seq``; periodic state checkpoints (the node's full
  ``flight_state()``) bound replay cost and double as a determinism
  oracle.  Eviction is segment-granular — a segment always starts with a
  checkpoint — so the retained head of the ring is always replayable.
* Dump files — all ring buffers of a run serialized with the exact
  CRC framing of the durability WAL (:mod:`repro.persist.wal`), so torn
  tails and corrupt records are survivable here too.
* :class:`NodeReplayer` — reconstructs any node's state at any ``seq``
  by restoring the nearest checkpoint at or before it and re-applying
  the recorded inputs into fresh automata.  ``verify()`` replays the
  whole retained history and compares every recorded checkpoint
  bit-for-bit against the replayed state: any mismatch is a
  *nondeterminism finding* against the protocol stack itself.
* :func:`bisect_timeline` — merges every node's events into one global
  timeline and binary-searches for the first event after which a given
  :func:`repro.obs.live.audit_view` rule fires, turning a failed chaos
  verdict into a pinpointed first-bad-event.

Recording is ``None``-gated exactly like ``obs`` / ``persist``: an
automaton with ``flightrec = None`` pays one attribute test per public
entry point and the run stays bit-identical to an unrecorded one (no
extra messages, no RNG draws, no timestamps consumed).

The one non-local input the protocols have is the process-global request
serial counter (:mod:`repro.core.messages`): its values depend on the
interleaving of *all* nodes in the process, so they are not reproducible
from one node's log alone.  The recorder therefore captures every serial
the node draws (``serials`` on the causing event), and replay feeds the
recorded values back via :class:`_ReplayFeed` instead of the live
counter.

See docs/DEBUGGING.md for the workflow and ``python -m repro replay``
for the CLI.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.contract import (
    AutomatonSpace,
    automaton_class,
    message_from_payload,
    message_to_payload,
)
from ..core.messages import LockId, Message, NodeId, fresh_attachment_seq
from ..core.modes import LockMode
from ..errors import LockUsageError, ProtocolError
from ..persist.wal import encode_frame, scan_frames
from .live import (
    AuditFinding,
    ClusterView,
    NodeSnapshot,
    audit_view,
    snapshot_node,
)

#: Dump format identity (first record of every dump file).  Version 2:
#: ``op`` events carry their arguments under the methods' own parameter
#: names, as the recorded-operation tables decode them.
DUMP_FORMAT = "flightrec"
DUMP_VERSION = 2

#: Default ring capacity (events retained per node).
DEFAULT_CAPACITY = 4096

#: Default events between two state checkpoints.
DEFAULT_CHECKPOINT_EVERY = 64

#: Serial values minted during replay when the recorded event carries
#: fewer serials than the replayed transition draws (a nondeterminism
#: symptom in itself; see :class:`_ReplayFeed`).  Far above any recorded
#: value so the drift is visible, never colliding.
_FALLBACK_SERIAL_BASE = 1 << 40


def _canonical(payload: object) -> str:
    """Canonical JSON used for bit-for-bit state comparison."""

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The recorder.
# ---------------------------------------------------------------------------


class FlightRecorder:
    """Per-node black box: ring buffer of automaton inputs + checkpoints.

    Event kinds (each event carries ``seq`` — monotonic per node — and
    ``t``, the recorder clock's reading when it was appended):

    * ``birth`` — a lock automaton was created lazily (``init`` holds the
      deterministic construction inputs).
    * ``op`` — a local application / recovery call (``op`` + ``args``).
    * ``msg`` — a delivered protocol message (``msg`` payload), recorded
      at the automaton boundary, post-dedup, so recorded history is
      transport-independent.
    * ``ckpt`` — a full node state checkpoint (``state``), taken *before*
      the event that triggered it, i.e. it reflects all events with a
      lower ``seq``.
    * ``crash`` / ``restart`` — node lifecycle markers from the fault
      harness; a restart wipes the node's volatile state in replay just
      as it does live.

    Serial draws made while serving an event are appended to that event's
    ``serials`` list (see the module docstring).
    """

    def __init__(
        self,
        node_id: NodeId,
        protocol: str = "hierarchical",
        capacity: int = DEFAULT_CAPACITY,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        clock: Optional[Callable[[], float]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if capacity < checkpoint_every + 1:
            raise ValueError(
                "capacity must exceed checkpoint_every (a ring that "
                "cannot hold one full segment retains nothing replayable)"
            )
        self.node_id = node_id
        self.protocol = protocol
        self.capacity = int(capacity)
        self.checkpoint_every = int(checkpoint_every)
        self._clock = clock
        self.meta: Dict[str, object] = dict(meta or {})
        #: Source of checkpoint state; bound by :meth:`attach`.
        self.state_source: Optional[Callable[[], Dict[str, object]]] = None
        # Segments: each inner list starts with its base checkpoint, so
        # evicting whole segments keeps the ring head replayable.
        self._segments: Deque[List[Dict[str, object]]] = deque([[]])
        self._retained = 0
        self._seq = 0
        # Force a checkpoint before the very first event: every segment
        # (including the first) is checkpoint-headed.
        self._since_ckpt = self.checkpoint_every
        self._open: Optional[Dict[str, object]] = None
        #: Events evicted from the ring so far.
        self.dropped = 0
        #: Checkpoints taken so far.
        self.checkpoints_taken = 0

    # -- wiring ---------------------------------------------------------

    def attach(self, lockspace) -> None:
        """Start recording *lockspace* (and every automaton it creates).

        Re-invoked after a restart with the node's fresh lockspace; the
        ring buffer carries across restarts so pre-crash history stays
        inspectable.
        """

        lockspace.flightrec = self
        for automaton in lockspace.automata():
            automaton.flightrec = self
        self.state_source = lockspace.flight_state
        options = getattr(lockspace, "_options", None)
        if options is not None and "options" not in self.meta:
            self.meta["options"] = {
                field.name: getattr(options, field.name)
                for field in dataclasses.fields(options)
            }

    # -- introspection --------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest recorded event (0 = none yet)."""

        return self._seq

    @property
    def depth(self) -> int:
        """Events currently retained in the ring."""

        return self._retained

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters for the monitor endpoint."""

        return {
            "node": self.node_id,
            "last_seq": self.last_seq,
            "depth": self.depth,
            "dropped": self.dropped,
            "checkpoints": self.checkpoints_taken,
            "capacity": self.capacity,
        }

    # -- recording ------------------------------------------------------

    def _now(self) -> float:
        return float(self._clock()) if self._clock is not None else 0.0

    def _append(self, event: Dict[str, object]) -> None:
        if (
            self._since_ckpt >= self.checkpoint_every
            and self.state_source is not None
        ):
            ckpt = {
                "seq": self._seq + 1,
                "t": self._now(),
                "kind": "ckpt",
                "state": self.state_source(),
            }
            self._seq += 1
            self._since_ckpt = 0
            self.checkpoints_taken += 1
            self._segments.append([ckpt])
            self._retained += 1
        self._seq += 1
        self._since_ckpt += 1
        event["seq"] = self._seq
        event["t"] = self._now()
        self._segments[-1].append(event)
        self._retained += 1
        self._open = event
        # Evict whole oldest segments (never the newest) past capacity.
        while self._retained > self.capacity and len(self._segments) > 1:
            evicted = self._segments.popleft()
            self._retained -= len(evicted)
            self.dropped += len(evicted)

    def record_birth(self, lock_id: LockId, init: Dict[str, object]) -> None:
        """A lock automaton was created (deterministic *init* inputs)."""

        self._append({"kind": "birth", "lock": lock_id, "init": dict(init)})

    def record_op(
        self, lock_id: LockId, op: str, args: Dict[str, object]
    ) -> None:
        """A local application or recovery call entered the automaton."""

        self._append({"kind": "op", "lock": lock_id, "op": op, "args": args})

    def record_msg(self, lock_id: LockId, message: Message) -> None:
        """A protocol message reached the automaton (post-dedup).

        The live (immutable) message object is stored; encoding to JSON
        happens lazily at dump time, keeping the hot path allocation-only.
        """

        self._append({"kind": "msg", "lock": lock_id, "msg": message})

    def record_crash(self) -> None:
        """The node crashed (volatile state gone)."""

        self._append({"kind": "crash"})
        self._open = None
        self.state_source = None

    def record_restart(self) -> None:
        """The node restarted (fresh volatile state; rejoin follows)."""

        self._append({"kind": "restart"})
        self._open = None

    def mint_serial(self) -> int:
        """Draw one value from the global serial counter, recording it.

        The drawn value lands on the event currently being served, which
        is what lets replay reproduce serial-derived state (request ids,
        attachment epochs) without the process-global counter.
        """

        serial = fresh_attachment_seq()
        if self._open is not None:
            self._open.setdefault("serials", []).append(serial)
        return serial

    # -- export ---------------------------------------------------------

    def export_events(self) -> List[Dict[str, object]]:
        """The retained ring as JSON-safe event dicts, oldest first."""

        out: List[Dict[str, object]] = []
        for segment in self._segments:
            for event in segment:
                if event.get("kind") == "msg":
                    encoded = dict(event)
                    encoded["msg"] = message_to_payload(event["msg"])
                    out.append(encoded)
                else:
                    out.append(event)
        return out


def attach_recorders(
    cluster,
    capacity: int = DEFAULT_CAPACITY,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> Dict[NodeId, FlightRecorder]:
    """Attach one :class:`FlightRecorder` per node of a sim cluster.

    Works on any cluster exposing ``lockspaces`` and (optionally)
    ``PROTOCOL`` / ``sim`` — i.e. every flavour in :mod:`repro.sim`.
    The fault-tolerant clusters take recorders at construction instead
    (they must re-attach across restarts); see :mod:`repro.faults`.
    """

    protocol = getattr(cluster, "PROTOCOL", "hierarchical")
    sim = getattr(cluster, "sim", None)
    clock = (lambda: sim.now) if sim is not None else None
    recorders: Dict[NodeId, FlightRecorder] = {}
    for node_id, lockspace in cluster.lockspaces.items():
        recorder = FlightRecorder(
            node_id,
            protocol=protocol,
            capacity=capacity,
            checkpoint_every=checkpoint_every,
            clock=clock,
        )
        recorder.attach(lockspace)
        recorders[node_id] = recorder
    return recorders


# ---------------------------------------------------------------------------
# Dump files (WAL CRC framing).
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FlightDump:
    """One loaded dump: every node's retained events plus run metadata."""

    protocol: str
    meta: Dict[str, object]
    node_meta: Dict[NodeId, Dict[str, object]]
    events: Dict[NodeId, List[Dict[str, object]]]
    corrupt_skipped: int = 0
    torn_bytes: int = 0

    def nodes(self) -> List[NodeId]:
        return sorted(self.events)


def write_dump(
    path: str,
    recorders: Mapping[NodeId, FlightRecorder],
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Serialize every recorder's ring buffer into one framed dump file."""

    protocol = "hierarchical"
    for recorder in recorders.values():
        protocol = recorder.protocol
        break
    with open(path, "wb") as handle:
        handle.write(
            encode_frame(
                {
                    "cat": "flightmeta",
                    "format": DUMP_FORMAT,
                    "version": DUMP_VERSION,
                    "protocol": protocol,
                    "nodes": sorted(recorders),
                    "meta": meta or {},
                }
            )
        )
        for node_id in sorted(recorders):
            recorder = recorders[node_id]
            handle.write(
                encode_frame(
                    {
                        "cat": "flightnode",
                        "node": node_id,
                        "meta": dict(
                            recorder.meta,
                            dropped=recorder.dropped,
                            checkpoints=recorder.checkpoints_taken,
                            capacity=recorder.capacity,
                        ),
                    }
                )
            )
            for event in recorder.export_events():
                handle.write(
                    encode_frame(
                        {"cat": "flightevent", "node": node_id, "event": event}
                    )
                )


def load_dump(path: str) -> FlightDump:
    """Load a dump written by :func:`write_dump`.

    Torn tails and corrupt records are tolerated exactly as in the WAL:
    damage is counted, intact history is kept.
    """

    with open(path, "rb") as handle:
        blob = handle.read()
    records, _good_end, report = scan_frames(blob)
    if not records or records[0].get("cat") != "flightmeta":
        raise ValueError(f"{path} is not a flight-recorder dump")
    head = records[0]
    if head.get("format") != DUMP_FORMAT:
        raise ValueError(f"{path}: unknown dump format {head.get('format')!r}")
    if head.get("version") != DUMP_VERSION:
        raise ValueError(
            f"{path}: dump version {head.get('version')!r} is not the "
            f"version {DUMP_VERSION} this replayer reads"
        )
    automaton_class(str(head.get("protocol")))  # unknown protocol: ValueError
    dump = FlightDump(
        protocol=str(head["protocol"]),
        meta=dict(head.get("meta", {})),
        node_meta={},
        events={int(n): [] for n in head.get("nodes", ())},
        corrupt_skipped=report.corrupt_skipped,
        torn_bytes=report.torn_bytes,
    )
    for record in records[1:]:
        cat = record.get("cat")
        node = int(record.get("node", -1))
        if cat == "flightnode":
            dump.node_meta[node] = dict(record.get("meta", {}))
            dump.events.setdefault(node, [])
        elif cat == "flightevent":
            dump.events.setdefault(node, []).append(dict(record["event"]))
    for events in dump.events.values():
        events.sort(key=lambda event: int(event.get("seq", 0)))
    return dump


def looks_like_flight_dump(path: str) -> bool:
    """Cheap sniff: does *path* start with a framed ``flightmeta`` record?

    Used by ``python -m repro report`` to point users at ``repro replay``
    instead of failing on an unreadable "trace".
    """

    try:
        with open(path, "rb") as handle:
            blob = handle.read(65536)
    except OSError:
        return False
    records, _end, _report = scan_frames(blob)
    return bool(records) and records[0].get("cat") == "flightmeta"


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------


class _ReplayFeed:
    """Recorder stand-in wired into replayed automata.

    Feeds each event's recorded serial draws back to ``_mint_serial`` and
    counts any drift (an automaton drawing more or fewer serials than the
    recording did is nondeterminism even if the states happen to match).
    """

    def __init__(self) -> None:
        self._serials: List[int] = []
        self.underflows = 0
        self.leftovers = 0
        self._fallback = itertools.count(_FALLBACK_SERIAL_BASE)

    def load(self, event: Mapping[str, object]) -> None:
        if self._serials:
            self.leftovers += len(self._serials)
        self._serials = list(event.get("serials", ()))

    def mint_serial(self) -> int:
        if self._serials:
            return int(self._serials.pop(0))
        self.underflows += 1
        return next(self._fallback)

    # The recording surface, as no-ops (replayed automata must not
    # re-record their own replay).
    def record_op(self, lock_id, op, args) -> None:  # pragma: no cover
        pass

    def record_msg(self, lock_id, message) -> None:  # pragma: no cover
        pass

    def record_birth(self, lock_id, init) -> None:  # pragma: no cover
        pass


class ReplaySession(AutomatonSpace):
    """One node's reconstructed lockspace, advanced event by event.

    Its automata are born from recorded ``birth`` events or restored from
    checkpoints, never placed: first touch of an unborn lock (a ring head
    clipped mid-segment; should not happen with segment eviction) yields
    the protocol's blank automaton.
    """

    def __init__(
        self,
        node_id: NodeId,
        protocol: str,
        node_meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        super().__init__(node_id, self._record_grant)
        self.protocol = protocol
        self.node_meta = dict(node_meta or {})
        self._automaton_cls = automaton_class(protocol)
        self.flightrec = self.feed = _ReplayFeed()
        self.alive = True
        self.seq = 0
        #: Grants delivered to the (absent) application during replay.
        self.grants: List[Tuple[LockId, object]] = []
        #: Deterministic errors re-raised during apply (also raised live).
        self.errors: List[Dict[str, object]] = []
        #: ``replay-error`` findings: events the protocol's tables could
        #: not decode (never raised live).
        self.undecodable: List[Dict[str, object]] = []

    def _record_grant(self, lock_id, *grant_args) -> None:
        self.grants.append((lock_id, grant_args))

    def _new_automaton(self, lock_id: LockId, init=None):
        automaton = self._automaton_cls.from_birth(
            self._node_id,
            lock_id,
            self._automaton_cls.BLANK if init is None else init,
            self._listener,
            self._clock,
            self.node_meta.get("options"),
        )
        automaton.flightrec = self.feed
        return automaton

    # -- state ----------------------------------------------------------

    def node_snapshot(self) -> NodeSnapshot:
        """A :class:`NodeSnapshot` of this session (for the audit)."""

        if not self.alive:
            return NodeSnapshot(node=self.node_id, alive=False)
        return snapshot_node(self.node_id, self)

    # -- applying events ------------------------------------------------

    def _decode(self, automaton, event: Mapping[str, object]) -> Callable:
        """The call *event* recorded, through the protocol's own tables."""

        if event.get("kind") == "msg":
            message = message_from_payload(event["msg"])
            return lambda: automaton.handle(message)
        if event.get("kind") != "op":
            raise ValueError(f"unknown event kind {event.get('kind')!r}")
        op = str(event.get("op"))
        codecs = automaton.OPS.get(op)
        if codecs is None:
            raise ValueError(f"unknown {self.protocol} op {op!r}")
        args = event.get("args", {})
        kwargs = {
            name: codec.decode(args[name]) for name, codec in codecs.items()
        }
        return lambda: getattr(automaton, op)(**kwargs)

    def apply(self, event: Mapping[str, object]) -> None:
        """Apply one recorded *event* to the session."""

        kind = event.get("kind")
        self.seq = int(event.get("seq", self.seq))
        if kind == "ckpt":
            return
        if kind == "crash":
            self.alive = False
            return
        if kind == "restart":
            # A restarted process boots a fresh lockspace: volatile state
            # and the Lamport clock are gone; recorded rejoin operations
            # (adopt_persisted, reassert_owned, ...) rebuild from here.
            self.alive = True
            self._reset()
            return
        self.feed.load(event)
        try:
            if kind == "birth":
                self._automata[event["lock"]] = self._new_automaton(
                    event["lock"], event["init"]
                )
                return
            call = self._decode(self.automaton(event["lock"]), event)
        except (KeyError, TypeError, ValueError) as exc:
            self.undecodable.append(
                {
                    "node": self.node_id,
                    "seq": self.seq,
                    "kind": "replay-error",
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        try:
            call()
        except (ProtocolError, LockUsageError, ValueError) as exc:
            # The live run raised (and partially mutated) identically;
            # deterministic errors are part of the recorded history.
            self.errors.append(
                {
                    "seq": self.seq,
                    "error": type(exc).__name__,
                    "detail": str(exc),
                }
            )


class NodeReplayer:
    """Replays one node's recorded events; the time-travel primitive."""

    def __init__(
        self,
        node_id: NodeId,
        events: List[Dict[str, object]],
        protocol: str,
        node_meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.node_id = node_id
        self.protocol = protocol
        self.node_meta = dict(node_meta or {})
        self.events = sorted(events, key=lambda e: int(e.get("seq", 0)))

    @staticmethod
    def from_dump(dump: FlightDump, node_id: NodeId) -> "NodeReplayer":
        return NodeReplayer(
            node_id,
            dump.events.get(node_id, []),
            dump.protocol,
            dump.node_meta.get(node_id),
        )

    # -- positioning ----------------------------------------------------

    def _base_index(self, seq: int) -> int:
        """Index of the newest checkpoint event at or before *seq*."""

        base = 0
        for index, event in enumerate(self.events):
            if int(event.get("seq", 0)) > seq:
                break
            if event.get("kind") == "ckpt":
                base = index
        return base

    def session_at(self, seq: int) -> ReplaySession:
        """The node's state after applying every event with seq ≤ *seq*."""

        session = ReplaySession(self.node_id, self.protocol, self.node_meta)
        base = self._base_index(seq)
        start = 0
        if self.events and self.events[base].get("kind") == "ckpt":
            session.restore(self.events[base]["state"])
            session.seq = int(self.events[base].get("seq", 0))
            # Alive-ness at the checkpoint: a crash marker with no later
            # restart before the checkpoint means the node was down.
            for event in self.events[: base + 1]:
                if event.get("kind") == "crash":
                    session.alive = False
                elif event.get("kind") == "restart":
                    session.alive = True
            start = base + 1
        for event in self.events[start:]:
            if int(event.get("seq", 0)) > seq:
                break
            session.apply(event)
        return session

    def state_at(self, seq: int) -> Dict[str, object]:
        """Full node state after event *seq* (``flight_state`` shape)."""

        return self.session_at(seq).flight_state()

    def diff(self, seq_a: int, seq_b: int) -> Dict[str, object]:
        """Per-lock state delta between two seqs (canonical comparison)."""

        state_a = self.state_at(seq_a)
        state_b = self.state_at(seq_b)
        locks_a = {lock: state for lock, state in state_a.get("locks", ())}
        locks_b = {lock: state for lock, state in state_b.get("locks", ())}
        delta: Dict[str, object] = {}
        if state_a.get("clock") != state_b.get("clock"):
            delta["clock"] = {
                "before": state_a.get("clock"),
                "after": state_b.get("clock"),
            }
        changed: Dict[str, object] = {}
        for lock in sorted(set(locks_a) | set(locks_b), key=str):
            before = locks_a.get(lock)
            after = locks_b.get(lock)
            if _canonical(before) != _canonical(after):
                changed[str(lock)] = {"before": before, "after": after}
        if changed:
            delta["locks"] = changed
        return delta

    # -- the determinism oracle -----------------------------------------

    def verify(self) -> List[Dict[str, object]]:
        """Replay the whole retained history against every checkpoint.

        Returns nondeterminism findings (empty = every recorded
        checkpoint was reproduced bit-for-bit).  After a mismatch the
        session resyncs to the recorded checkpoint so later history is
        still checked.
        """

        findings: List[Dict[str, object]] = []
        session = ReplaySession(self.node_id, self.protocol, self.node_meta)
        seeded = False
        for event in self.events:
            if event.get("kind") == "ckpt":
                recorded = _canonical(event["state"])
                if not seeded:
                    session.restore(event["state"])
                    seeded = True
                    continue
                replayed = _canonical(session.flight_state())
                if replayed != recorded:
                    findings.append(
                        {
                            "node": self.node_id,
                            "seq": int(event.get("seq", 0)),
                            "kind": "checkpoint-mismatch",
                            "detail": "replayed state diverges from the "
                            "recorded checkpoint",
                            "recorded": event["state"],
                            "replayed": session.flight_state(),
                        }
                    )
                    session.restore(event["state"])
                continue
            session.apply(event)
        findings.extend(session.undecodable)
        drift = session.feed.underflows + session.feed.leftovers
        if drift:
            findings.append(
                {
                    "node": self.node_id,
                    "seq": session.seq,
                    "kind": "serial-drift",
                    "detail": f"replay drew {session.feed.underflows} more "
                    f"and left {session.feed.leftovers} unused recorded "
                    "serial(s) — the replayed transitions minted a "
                    "different number of serials than the recording",
                }
            )
        return findings

    # -- filtering ------------------------------------------------------

    def grep(self, criteria: Mapping[str, str]) -> List[Dict[str, object]]:
        """Events matching every ``key=value`` criterion.

        Supported keys: ``kind``, ``lock``, ``op``, ``type`` (message
        payload type, e.g. ``TokenMessage`` — ``TokenMsg`` matches as a
        prefix), ``seq``.
        """

        out = []
        for event in self.events:
            if _event_matches(event, criteria):
                out.append(event)
        return out


def _event_matches(
    event: Mapping[str, object], criteria: Mapping[str, str]
) -> bool:
    for key, wanted in criteria.items():
        if key in ("kind", "lock", "op", "seq"):
            if str(event.get(key)) != wanted:
                return False
        elif key == "type":
            msg = event.get("msg")
            name = str(msg.get("type")) if isinstance(msg, Mapping) else ""
            if not name.startswith(wanted.replace("Msg", "Message")) and (
                not name.startswith(wanted)
            ):
                return False
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Global timeline + bisect.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TimelineEntry:
    """One node event placed on the merged global timeline."""

    t: float
    node: NodeId
    seq: int
    event: Mapping[str, object]

    def describe(self) -> str:
        kind = self.event.get("kind")
        if kind == "msg":
            msg = self.event.get("msg", {})
            detail = (
                f"{msg.get('type')} from node {msg.get('sender')} "
                f"lock={msg.get('lock')!r}"
            )
        elif kind == "op":
            detail = (
                f"{self.event.get('op')} lock={self.event.get('lock')!r} "
                f"args={self.event.get('args')}"
            )
        elif kind == "birth":
            detail = f"lock={self.event.get('lock')!r}"
        else:
            detail = ""
        return f"node {self.node} seq {self.seq} t={self.t:.6f} {kind} {detail}".rstrip()


def build_timeline(dump: FlightDump) -> List[TimelineEntry]:
    """Merge every node's non-checkpoint events, globally ordered.

    Order is ``(t, node, seq)``: the recorder clock first (simulated or
    wall time), then a deterministic tie-break.  With per-node clocks
    this is an approximation of the true causal order — good enough for
    bisection, which only needs *some* deterministic total order
    consistent with each node's local order.
    """

    entries: List[TimelineEntry] = []
    for node_id, events in dump.events.items():
        for event in events:
            if event.get("kind") == "ckpt":
                continue
            entries.append(
                TimelineEntry(
                    t=float(event.get("t", 0.0)),
                    node=int(node_id),
                    seq=int(event.get("seq", 0)),
                    event=event,
                )
            )
    entries.sort(key=lambda entry: (entry.t, entry.node, entry.seq))
    return entries


def _cluster_view_at(
    dump: FlightDump,
    timeline: List[TimelineEntry],
    index: int,
    replayers: Mapping[NodeId, NodeReplayer],
) -> ClusterView:
    """The cluster's replayed state after timeline position *index*."""

    last_seq: Dict[NodeId, int] = {}
    for entry in timeline[: index + 1]:
        last_seq[entry.node] = entry.seq
    snapshots: List[NodeSnapshot] = []
    for node_id in dump.nodes():
        seq = last_seq.get(node_id, 0)
        session = replayers[node_id].session_at(seq)
        snapshots.append(session.node_snapshot())
    captured_at = timeline[index].t if timeline else 0.0
    return ClusterView(
        protocol=dump.protocol,
        captured_at=captured_at,
        nodes=tuple(snapshots),
    )


def _rule_fires(
    findings: Iterable[AuditFinding],
    rule: str,
    lock: Optional[str] = None,
) -> Optional[AuditFinding]:
    for finding in findings:
        if finding.rule != rule:
            continue
        if lock is not None and str(finding.lock) != lock:
            continue
        return finding
    return None


def bisect_timeline(
    dump: FlightDump,
    rule: str,
    lock: Optional[str] = None,
    quiescent: bool = False,
) -> Dict[str, object]:
    """First global event after which audit *rule* fires on replayed state.

    Binary-searches the merged timeline (the predicate "rule fires at or
    before position i" is monotone for structural invariants like
    token-split once the bad event is in history).  Returns a payload
    with the culprit entry, or ``{"fires": False}`` when the rule never
    fires even at the end of history.
    """

    timeline = build_timeline(dump)
    if not timeline:
        return {"fires": False, "detail": "empty timeline"}
    replayers = {
        node_id: NodeReplayer.from_dump(dump, node_id)
        for node_id in dump.nodes()
    }

    def fires(index: int) -> Optional[AuditFinding]:
        view = _cluster_view_at(dump, timeline, index, replayers)
        report = audit_view(view, quiescent=quiescent)
        return _rule_fires(report.findings, rule, lock)

    final = fires(len(timeline) - 1)
    if final is None:
        return {
            "fires": False,
            "events": len(timeline),
            "detail": f"rule {rule!r} never fires on replayed history",
        }
    lo, hi = 0, len(timeline) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if fires(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    culprit = timeline[lo]
    finding = fires(lo)
    return {
        "fires": True,
        "rule": rule,
        "index": lo,
        "events": len(timeline),
        "node": culprit.node,
        "seq": culprit.seq,
        "t": culprit.t,
        "event": culprit.event
        if culprit.event.get("kind") != "msg"
        else dict(culprit.event),
        "describe": culprit.describe(),
        "finding": finding.to_payload() if finding is not None else None,
    }


# ---------------------------------------------------------------------------
# Self-test (CI smoke): record a run, verify determinism, bisect a
# synthetic injected violation.
# ---------------------------------------------------------------------------


def run_self_test(emit: Callable[[str], None] = print) -> int:
    """Record a seeded run, verify checkpoints, bisect a forged split.

    Returns a process exit code (0 = pass).  Used by ``python -m repro
    replay --self-test`` in CI.
    """

    import os
    import tempfile

    from ..core.automaton import ProtocolOptions
    from ..sim.cluster import SimHierarchicalCluster
    from ..sim.engine import Timeout, run_processes

    cluster = SimHierarchicalCluster(
        4, seed=11, options=ProtocolOptions(recovery=True)
    )
    recorders = attach_recorders(cluster, checkpoint_every=8)

    def body(node: int):
        client = cluster.client(node)
        for round_index in range(6):
            yield client.acquire("table", LockMode.IR)
            yield client.acquire(f"row{(node + round_index) % 3}", LockMode.W)
            yield Timeout(cluster.sim, 0.002)
            client.release(f"row{(node + round_index) % 3}", LockMode.W)
            client.release("table", LockMode.IR)
            yield Timeout(cluster.sim, 0.001)

    run_processes(cluster.sim, [body(n) for n in range(4)])
    cluster.assert_quiescent_invariants()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "selftest.flight")
        write_dump(path, recorders, meta={"selftest": True})
        dump = load_dump(path)

        findings: List[Dict[str, object]] = []
        for node_id in dump.nodes():
            findings.extend(NodeReplayer.from_dump(dump, node_id).verify())
        if findings:
            emit("replay self-test: NONDETERMINISM")
            for finding in findings:
                emit(
                    f"  node {finding['node']} seq {finding['seq']}: "
                    f"{finding['kind']} — {finding['detail']}"
                )
            return 1
        emit(
            f"replay self-test: {len(dump.nodes())} nodes, "
            "all checkpoints reproduced bit-for-bit"
        )

        # Forge a violation: a second node regenerates the token for
        # "table" while the real token is alive — a textbook split.  The
        # op is legal in isolation (recovery hook), so only the global
        # audit can see it; bisect must name exactly this event.
        victim = next(
            n for n in dump.nodes() if cluster.lockspaces[n].automaton("table").has_token is False
        )
        events = dump.events[victim]
        last = max(int(e.get("seq", 0)) for e in events)
        forged_seq = last + 1
        forged_t = max(float(e.get("t", 0.0)) for e in events) + 1.0
        events.append(
            {
                "seq": forged_seq,
                "t": forged_t,
                "kind": "op",
                "lock": "table",
                "op": "regenerate_token",
                "args": {"epoch": 999},
                "serials": [1 << 30],
            }
        )
        verdict = bisect_timeline(dump, "token-split", lock="table")
        if not verdict.get("fires"):
            emit("replay self-test: bisect missed the forged token split")
            return 1
        if verdict["node"] != victim or verdict["seq"] != forged_seq:
            emit(
                f"replay self-test: bisect named node {verdict['node']} "
                f"seq {verdict['seq']}, expected node {victim} seq "
                f"{forged_seq}"
            )
            return 1
        emit(
            f"replay self-test: bisect pinpointed the forged violation "
            f"(node {verdict['node']}, seq {verdict['seq']})"
        )
    return 0
