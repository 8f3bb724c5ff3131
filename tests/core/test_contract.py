"""The automaton contract, held to ROADMAP's standard.

ROADMAP's acceptance test for ``repro.core.contract`` is that a fourth
protocol drops in as a single file with no edits to the flight recorder,
the journal, recovery or membership.  This file *is* such a protocol — a
toy central-server exclusive lock, defined below through the same public
hooks the three real ones use — driven through an in-test FIFO pump with
recorders and journals attached.
"""

from __future__ import annotations

import dataclasses
import os
from collections import deque

import pytest

from repro.core.automaton import HierarchicalLockAutomaton
from repro.core.clock import LamportClock
from repro.core.contract import (
    BOOL,
    INT,
    OPT_NODE,
    AutomatonSpace,
    LockAutomaton,
    field,
    handles,
    listing,
    record,
    recorded,
    register_message,
)
from repro.core.messages import Envelope
from repro.naimi.automaton import NaimiAutomaton
from repro.obs.flightrec import (
    FlightRecorder,
    NodeReplayer,
    load_dump,
    write_dump,
)
from repro.persist import MemoryNodeStore, NodeJournal, recover_node_state
from repro.raymond.automaton import RaymondAutomaton

# -- the toy protocol: everything a new protocol has to write -----------

SERVER = 0


@dataclasses.dataclass(frozen=True)
class Ask:
    lock_id: str
    sender: int


@dataclasses.dataclass(frozen=True)
class Give:
    lock_id: str
    sender: int


@dataclasses.dataclass(frozen=True)
class Done:
    lock_id: str
    sender: int


for _message in (Ask, Give, Done):
    register_message(_message)


class ToyAutomaton(LockAutomaton):
    """Clients ``Ask`` the server, which ``Give``s the lock to one asker
    at a time, first come first served, and is told when they are
    ``Done``.  The server's own requests travel the same way."""

    PROTOCOL = "toy-central"
    BLANK = {"server": SERVER}
    STATE = (
        field("owner", OPT_NODE, "_owner"),
        field("waiting", listing(INT), "_waiting"),
        field("asking", BOOL, "_asking"),
        field("holding", BOOL, "_holding"),
        field("fence_floor", INT, "_fence_floor"),
    )

    def __init__(self, node_id, lock_id, server, listener):
        LockAutomaton.__init__(self, node_id, lock_id, listener)
        self._server = server
        self._owner = None  # server only: who holds the lock
        self._waiting = []  # server only: askers, in arrival order
        self._asking = False
        self._holding = False

    def birth(self):
        return {"server": self._server}

    @classmethod
    def from_birth(cls, node_id, lock_id, init, listener, clock, options=None):
        return cls(node_id, lock_id, int(init["server"]), listener)

    @recorded()
    def request(self, ctx=None):
        self._flight_op("request")
        self._asking, self._ctx = True, ctx
        self._persist("request")
        return [Envelope(self._server, Ask(self._lock_id, self._node_id))]

    @recorded()
    def release(self):
        self._flight_op("release")
        self._holding = False
        self._persist("release")
        return [Envelope(self._server, Done(self._lock_id, self._node_id))]

    @handles(Ask)
    def _on_ask(self, msg):
        self._waiting.append(msg.sender)
        return self._serve()

    @handles(Done)
    def _on_done(self, msg):
        self._owner = None
        return self._serve()

    @handles(Give)
    def _on_give(self, msg):
        self._asking, self._holding = False, True
        ctx, self._ctx = self._ctx, None
        self._persist("granted")
        self._listener(self._lock_id, ctx)
        return []

    def _serve(self):
        out = []
        if self._owner is None and self._waiting:
            self._owner = self._waiting.pop(0)
            out.append(Envelope(self._owner, Give(self._lock_id, self._node_id)))
        self._persist("serve")
        return out


class ToySpace(AutomatonSpace):
    def _new_automaton(self, lock_id):
        return ToyAutomaton(self._node_id, lock_id, SERVER, self._listener)


# -- the harness: three nodes, a FIFO pump, recorders and journals ------


def _drive():
    """Four rounds of everyone taking ``L`` and ``M`` in turn; returns
    ``(spaces, recorders, journals)`` with the last round still held."""

    granted = deque()
    spaces, recorders, journals = {}, {}, {}
    for node in (0, 1, 2):
        spaces[node] = ToySpace(
            node, lambda lock, ctx, node=node: granted.append((node, lock))
        )
        recorders[node] = FlightRecorder(
            node, protocol=ToyAutomaton.PROTOCOL, checkpoint_every=4
        )
        recorders[node].attach(spaces[node])
        journals[node] = NodeJournal(MemoryNodeStore(), node)
        journals[node].attach(spaces[node])

    def pump(envelopes):
        queue = deque(envelopes)
        while queue:
            envelope = queue.popleft()
            queue.extend(spaces[envelope.dest].handle(envelope.message))

    for round_index in range(4):
        lock = "LM"[round_index % 2]
        for node in (1, 2, 0):
            pump(spaces[node].request(lock))
        assert list(granted) == [(1, lock)]  # mutual exclusion, FIFO
        for expected in (1, 2, 0)[: 3 if round_index < 3 else 1]:
            holder, held = granted.popleft()
            assert (holder, held) == (expected, lock)
            pump(spaces[holder].release(lock))
    return spaces, recorders, journals


def test_toy_protocol_replays_from_its_flight_dump(tmp_path):
    spaces, recorders, _journals = _drive()
    path = os.path.join(tmp_path, "toy.flight")
    write_dump(path, recorders)
    dump = load_dump(path)
    assert dump.protocol == "toy-central"
    for node in dump.nodes():
        replayer = NodeReplayer.from_dump(dump, node)
        checkpoints = [e for e in replayer.events if e["kind"] == "ckpt"]
        assert len(checkpoints) >= 2
        assert replayer.verify() == []
        # The replayed end state is the live one, exactly.
        assert replayer.state_at(recorders[node].last_seq) == (
            spaces[node].flight_state()
        )


def test_toy_protocol_journal_round_trip_is_a_fixed_point():
    spaces, _recorders, journals = _drive()
    served = spaces[SERVER].automaton("M").persisted_state()
    assert (served["owner"], served["waiting"]) == (2, [0])  # non-trivial
    for node, journal in journals.items():
        state, report = recover_node_state(journal.store)
        assert report["records_malformed"] == 0
        assert sorted(state) == ["L", "M"]
        fresh = ToySpace(node, lambda lock, ctx: None)
        for lock, payload in state.items():
            assert payload == spaces[node].automaton(lock).persisted_state()
            automaton = fresh.automaton(lock)
            automaton.adopt_persisted(payload)
            assert automaton.persisted_state() == payload


# -- what the contract promises every protocol --------------------------

AUTOMATA = (HierarchicalLockAutomaton, NaimiAutomaton, RaymondAutomaton, ToyAutomaton)


def _blank(automaton_cls, lock_id="db/row7"):
    return automaton_cls.from_birth(
        0, lock_id, automaton_cls.BLANK, lambda *grant: None, LamportClock()
    )


@pytest.mark.parametrize("automaton_cls", AUTOMATA)
def test_absent_mandatory_key_names_the_lock_and_changes_nothing(automaton_cls):
    automaton = _blank(automaton_cls)
    before = automaton.flight_state()
    damaged = automaton.persisted_state()
    del damaged[next(reversed(damaged))]  # decoding got as far as possible
    with pytest.raises(ValueError, match="db/row7"):
        automaton.restore_flight_state(damaged)
    with pytest.raises(ValueError, match="db/row7"):
        automaton.restore_flight_state({})
    assert automaton.flight_state() == before


@pytest.mark.parametrize("automaton_cls", AUTOMATA)
def test_state_encoding_round_trips_exactly(automaton_cls):
    automaton = _blank(automaton_cls)
    state = automaton.flight_state()
    assert set(automaton.persisted_state()) <= set(state)
    other = _blank(automaton_cls)
    other.restore_flight_state(state)
    assert other.flight_state() == state


def test_a_message_field_cannot_be_left_out_of_the_codec():
    @dataclasses.dataclass(frozen=True)
    class Nudge:
        lock_id: str
        sender: int
        urgency: int = 0

    with pytest.raises(TypeError, match="urgency"):
        register_message(Nudge)
    register_message(Nudge, field("urgency", INT))


# -- records: one table, both directions --------------------------------


def _toy_record():
    @record(
        field("id", INT, "ident"),
        field("tags", listing(INT, tuple), default=()),
        field("note", INT, omit=0),
        field("big", BOOL),
    )
    @dataclasses.dataclass(frozen=True)
    class Toy:
        ident: int
        tags: tuple = ()
        note: int = 0

        @property
        def big(self) -> bool:
            return self.ident > 9

    return Toy


def test_record_rows_default_omit_and_derive():
    toy = _toy_record()
    # ``default`` keys are always written, ``omit`` keys only off their
    # default, and a property row is written but never read back.
    assert toy(12).to_payload() == {"id": 12, "tags": [], "big": True}
    assert list(toy(3, (1, 2), 5).to_payload()) == ["id", "tags", "note", "big"]
    assert toy.from_payload({"id": 3}) == toy(3)
    assert toy.from_payload({"id": 3, "big": True, "note": 5}) == toy(3, (), 5)
    assert toy.CODEC.decode(toy.CODEC.encode(toy(3, (1,), 2))) == toy(3, (1,), 2)
    with pytest.raises(ValueError, match="Toy.*'id'"):
        toy.from_payload({"tags": [1]})
    with pytest.raises(ValueError, match="Toy"):
        toy.from_payload({"id": 3, "tags": 7})


def test_a_record_field_cannot_be_left_out_of_its_table():
    def declare(*rows):
        @record(field("id", INT, "ident"), *rows)
        @dataclasses.dataclass
        class Heavier:
            ident: int
            weight: int = 0

    with pytest.raises(TypeError, match="weight"):
        declare()
    declare(field("weight", INT, default=0))
    with pytest.raises(TypeError, match="ident"):
        # A row that names neither a field nor a property.
        declare(field("weight", INT), field("ghost", INT))
