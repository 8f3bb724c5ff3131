"""Exhaustive interleaving checks of small protocol scenarios.

Each scenario explores *every* reachable delivery/release/issue order
(per-pair FIFO respected) and asserts pairwise-compatible holds, progress
and completion in all of them.  The scenario list targets the protocol's
interesting mechanisms: copy grants, token transfers, queueing, freezing,
re-requests (the stale-release race class) and the ablation variants that
must stay safe (everything except fairness is unaffected by freezing).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automaton import ProtocolOptions
from repro.core.modes import LockMode as M
from repro.verification import explore_scenario

# (name, nodes, [(node, mode), ...]) — per-node requests run sequentially.
SCENARIOS = [
    ("two writers", 2, [(0, M.W), (1, M.W)]),
    ("read vs write", 3, [(1, M.R), (2, M.W)]),
    ("three readers", 3, [(0, M.R), (1, M.R), (2, M.R)]),
    ("intents then write", 3, [(1, M.IR), (2, M.R), (0, M.W)]),
    ("iw pair vs read", 3, [(1, M.IW), (2, M.IW), (0, M.R)]),
    ("upgrade-style u", 3, [(1, M.IW), (2, M.R), (1, M.U)]),
    ("re-request race", 3, [(1, M.IR), (1, M.IR), (2, M.W)]),
    ("reparenting race", 3, [(1, M.IR), (2, M.IR), (1, M.R), (0, M.W)]),
    ("u contention", 3, [(1, M.U), (2, M.U)]),
    ("w after everything", 3, [(0, M.IR), (1, M.R), (2, M.U), (0, M.W)]),
]


@pytest.mark.parametrize(
    "name,nodes,requests", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_full_protocol_scenarios(name, nodes, requests):
    stats = explore_scenario(nodes, requests)
    assert stats.terminal_states >= 1
    assert stats.states_explored >= len(requests)


ABLATIONS = [
    ProtocolOptions(freezing=False),
    ProtocolOptions(local_queues=False),
    ProtocolOptions(child_grants=False),
    ProtocolOptions(local_reentry=False),
    ProtocolOptions(
        freezing=False, local_queues=False, child_grants=False,
        local_reentry=False,
    ),
]


#: What every ablation explores, and the four-node scenario.
ABLATED = (3, [(1, M.IR), (2, M.R), (1, M.R), (0, M.W)])
FOUR_NODE_MIXED = (4, [(1, M.IR), (2, M.IW), (3, M.R)])


@pytest.mark.parametrize("options", ABLATIONS, ids=lambda o: repr(o))
def test_safety_holds_under_every_ablation(options):
    """Safety (not fairness) must survive disabling any optimization."""

    stats = explore_scenario(*ABLATED, options=options)
    assert stats.terminal_states >= 1


def test_four_node_mixed_scenario():
    stats = explore_scenario(*FOUR_NODE_MIXED, max_states=500_000)
    assert stats.terminal_states >= 1


UPGRADE_SCENARIOS = [
    ("upgrade vs reader", 3, [(1, M.U, True), (2, M.R)]),
    ("upgrade vs intents", 3, [(1, M.U, True), (2, M.IR), (0, M.IW)]),
    ("upgrade vs upgrade", 3, [(1, M.U, True), (2, M.U, True)]),
    ("upgrade vs writer", 3, [(1, M.U, True), (2, M.W)]),
]


@pytest.mark.parametrize(
    "name,nodes,requests", UPGRADE_SCENARIOS,
    ids=[s[0] for s in UPGRADE_SCENARIOS],
)
def test_rule7_upgrade_scenarios(name, nodes, requests):
    """Every interleaving of Rule 7 upgrades against contention: the
    U→W conversion is atomic, waits for the copyset to drain, and never
    deadlocks (upgrade-precedes-write ordering, §3.4)."""

    stats = explore_scenario(nodes, requests)
    assert stats.terminal_states >= 1


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sampled_from([M.IR, M.R, M.U, M.IW, M.W]),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_random_small_scenarios(requests):
    """Property: any ≤3-request scenario on 3 nodes is safe and live."""

    stats = explore_scenario(3, requests, max_states=300_000)
    assert stats.terminal_states >= 1
