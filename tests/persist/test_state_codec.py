"""Durability goes through the one state codec: nothing dropped, nothing
skipped.

Two defects of the parent commit are pinned here: the journal's private
request codec dropped ``RequestMessage.fencing_token`` (so a fenced
request queued at a node that durably restarted came back unfenced), and
the baselines' lockspaces never propagated the ``persist`` hook (so a
journal attached to them recorded only automata that already existed).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.automaton import HierarchicalLockAutomaton, ProtocolOptions
from repro.core.clock import LamportClock
from repro.core.messages import RequestId, RequestMessage
from repro.core.modes import LockMode
from repro.naimi.lockspace import NaimiLockSpace
from repro.persist import MemoryNodeStore, NodeJournal, recover_node_state
from repro.raymond.lockspace import RaymondLockSpace

#: A queued request with every field set away from its default.
QUEUED = RequestMessage(
    lock_id="L",
    sender=7,
    origin=5,
    mode=LockMode.IW,
    request_id=RequestId(timestamp=41, origin=5, serial=1234),
    upgrade=True,
    priority=3,
    fencing_token=99,
)


def _token_node() -> HierarchicalLockAutomaton:
    return HierarchicalLockAutomaton(
        node_id=0, lock_id="L", clock=LamportClock(), parent=None,
        has_token=True, options=ProtocolOptions(recovery=True),
    )


@pytest.mark.parametrize(
    "name",
    [f.name for f in dataclasses.fields(RequestMessage) if f.name != "trace"],
)
def test_every_request_field_survives_a_durable_restart(name):
    """record → recover → adopt keeps *name*; parametrised over the
    dataclass so a field added later cannot be dropped silently."""

    spec = {f.name: f for f in dataclasses.fields(RequestMessage)}[name]
    if spec.default is not dataclasses.MISSING:
        assert getattr(QUEUED, name) != spec.default, (
            f"give QUEUED a non-default {name}"
        )
    before = _token_node()
    before.request(LockMode.W)  # the hold the request queues behind
    assert before.handle(QUEUED) == []
    journal = NodeJournal(MemoryNodeStore(), 0)
    journal.record(before, "queue-change")
    state, _report = recover_node_state(journal.store)
    after = _token_node()
    after.adopt_persisted(state["L"])
    (restored,) = after.queued_requests
    assert getattr(restored, name) == getattr(QUEUED, name)


def _pair(make_space):
    """Two journalled lockspaces after node 0 entered its critical
    section and node 1's request reached it (both states non-trivial)."""

    spaces = {node: make_space(node) for node in (0, 1)}
    journals = {}
    for node, space in spaces.items():
        journals[node] = NodeJournal(MemoryNodeStore(), node)
        journals[node].attach(space)  # before any automaton exists
    assert spaces[0].request("L") == []
    (envelope,) = spaces[1].request("L")
    assert spaces[envelope.dest].handle(envelope.message) == []
    return spaces, journals


@pytest.mark.parametrize(
    "make_space",
    [
        lambda node: NaimiLockSpace(node),
        lambda node: RaymondLockSpace(node, {0: None, 1: 0}),
    ],
    ids=["naimi", "raymond"],
)
class TestBaselinesAreJournalled:
    def test_first_touch_after_attach_is_journalled(self, make_space):
        spaces, journals = _pair(make_space)
        for node in (0, 1):
            assert journals[node].appends > 0
            state, report = recover_node_state(journals[node].store)
            assert report["records_malformed"] == 0
            live = spaces[node].automaton("L")
            assert state == {"L": live.persisted_state()}

    def test_record_recover_adopt_is_a_fixed_point(self, make_space):
        spaces, journals = _pair(make_space)
        for node in (0, 1):
            state, _report = recover_node_state(journals[node].store)
            fresh = make_space(node).automaton("L")
            assert fresh.persisted_state() != state["L"]
            fresh.adopt_persisted(state["L"])
            assert fresh.persisted_state() == state["L"]
            assert fresh.flight_state() == (
                spaces[node].automaton("L").flight_state()
            )
