"""The frozen set from a census of queued modes, against its definition.

``_refresh_frozen`` unions Table 2(b) over the *distinct* modes in the
queue; Rule 6 defines the frozen set as the union over *every* queued
request.  Hypothesis drives both over random owned modes, copysets and
queues.  ``owned_mode()`` is checked the same way against ``max_mode``
over holds-then-children, whose first-met ``U``/``IW`` tie-break decides
which release a node sends upward.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.automaton import HierarchicalLockAutomaton, ProtocolOptions
from repro.core.clock import LamportClock
from repro.core.messages import RequestId, RequestMessage
from repro.core.modes import REAL_MODES, LockMode, freeze_set, max_mode

U, IW = LockMode.U, LockMode.IW

MODES = st.sampled_from(REAL_MODES)
#: Held multisets in insertion order, released-to-zero entries included.
HELD = st.lists(
    st.tuples(MODES, st.integers(0, 2)), max_size=5, unique_by=lambda e: e[0]
).map(dict)
CHILDREN = st.lists(MODES, max_size=8).map(
    lambda modes: dict(enumerate(modes, start=1))
)
#: Queue entries as (mode, upgrade, priority); duplicates welcome.
QUEUE = st.lists(st.tuples(MODES, st.booleans(), st.integers(0, 3)), max_size=12)


def token_node(held, children, queue, **switches) -> HierarchicalLockAutomaton:
    node = HierarchicalLockAutomaton(
        node_id=0,
        lock_id="L",
        clock=LamportClock(),
        parent=None,
        has_token=True,
        options=ProtocolOptions(**switches),
    )
    node._held = dict(held)
    node._children = dict(children)
    node._queue = [
        RequestMessage(
            lock_id="L",
            sender=index + 1,
            origin=index + 1,
            mode=mode,
            request_id=RequestId(index, index + 1, index),
            upgrade=upgrade,
            priority=priority,
        )
        for index, (mode, upgrade, priority) in enumerate(queue)
    ]
    return node


def owned_by_definition(held, children) -> LockMode:
    return max_mode(
        [mode for mode, count in held.items() if count > 0]
        + list(children.values())
    )


@given(held=HELD, children=CHILDREN, queue=QUEUE, priorities=st.booleans())
def test_frozen_is_union_over_every_queued_request(
    held, children, queue, priorities
):
    node = token_node(held, children, queue, priority_scheduling=priorities)
    node._refresh_frozen()
    owned = owned_by_definition(held, children)
    expected = set()
    for mode, _upgrade, _priority in queue:
        expected |= freeze_set(owned, mode)
    assert node.frozen_modes == expected
    assert isinstance(node.frozen_modes, frozenset)


@given(held=HELD, children=CHILDREN, queue=QUEUE)
def test_nothing_freezes_with_freezing_off(held, children, queue):
    node = token_node(held, children, queue, freezing=False)
    node._frozen = frozenset({LockMode.IR})  # a stale set must be cleared
    node._refresh_frozen()
    assert node.frozen_modes == frozenset()


@given(held=HELD, children=CHILDREN)
def test_owned_mode_is_max_over_holds_then_children(held, children):
    node = token_node(held, children, [])
    assert node.owned_mode() is owned_by_definition(held, children)
    assert node.held_mode() is owned_by_definition(held, {})
    assert node.is_idle() == (not any(held.values()) and not children)


@pytest.mark.parametrize(
    "held,children,expected",
    [
        ({U: 1}, {1: IW}, U),
        ({IW: 1}, {1: U}, IW),
        ({}, {1: U, 2: IW}, U),
        ({}, {1: IW, 2: U}, IW),
        ({U: 1, IW: 1}, {}, U),
        ({IW: 1, U: 1}, {}, IW),
        ({U: 0, IW: 1}, {1: U}, IW),
    ],
)
def test_first_met_wins_the_u_iw_tie(held, children, expected):
    assert token_node(held, children, []).owned_mode() is expected
