"""Coverage the one-kernel explorer makes free.

The baselines' first every-interleaving check (any protocol behind the
automaton contract is one :class:`~repro.verification.explorer.Protocol`
adapter away), and two scenarios neither of the old explorer forks could
express: a Rule 7 upgrade inside a multi-lock scenario, and message
duplication across more than one lock.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.automaton import FULL_PROTOCOL
from repro.core.modes import LockMode as M
from repro.errors import InvariantViolation, ProtocolError
from repro.raymond.topology import balanced_binary_tree, chain
from repro.verification.explorer import (
    LOCK,
    NAIMI,
    ProtocolWorld,
    explore,
    explore_hierarchical,
    hierarchical,
    raymond,
)

BASELINES = {
    "naimi": NAIMI,
    "raymond-tree": raymond(balanced_binary_tree(3)),
    "raymond-chain": raymond(chain(3)),
}

T, E0 = "t", "t/0"  # the table lock and one entry lock


def _critical_sections(nodes):
    """One exclusive request per listed node, in that node's order."""

    scripts = {}
    for node in nodes:
        scripts.setdefault(node, []).append(((LOCK, M.W),))
    return scripts


class TestExclusiveBaselines:
    """Three nodes, up to four requests: mutual exclusion in every
    reachable state; in every terminal state all requests were granted,
    every automaton is idle and exactly one holds the token/privilege."""

    @pytest.mark.parametrize("protocol", BASELINES.values(), ids=BASELINES)
    @pytest.mark.parametrize(
        "nodes",
        [[0, 1, 2], [1, 2, 1], [1, 1, 2, 2], [0, 1, 2, 0], [0, 1, 2, 1]],
        ids=lambda nodes: "".join(map(str, nodes)),
    )
    def test_safe_and_live_in_every_interleaving(self, protocol, nodes):
        stats = explore(ProtocolWorld(protocol, 3, _critical_sections(nodes)))
        assert stats.terminal_states >= 1
        assert stats.states_explored > len(nodes)

    @pytest.mark.parametrize("protocol", BASELINES.values(), ids=BASELINES)
    def test_the_checks_bite(self, protocol):
        # A node that leaves its critical section without telling the
        # protocol: the next requester starves, in some interleaving.
        leaky = dataclasses.replace(protocol, release=lambda *_: [])
        with pytest.raises(InvariantViolation, match="starved|not idle"):
            explore(ProtocolWorld(leaky, 3, _critical_sections([1, 2])))


class TestMultiLockRule7:
    def test_table_upgrade_vs_entry_writer(self):
        """A table-level U→W upgrade against an intent writer working
        on an entry: the upgrade waits out the IW, never deadlocks the
        writer's two-step acquisition, and converts atomically."""

        stats = explore_hierarchical(
            3,
            {
                1: [((T, M.U, True),)],
                2: [((T, M.IW), (E0, M.W))],
            },
        )
        assert (stats.states_explored, stats.terminal_states) == (62, 4)

    def test_upgrade_then_descend(self):
        """The upgrader goes on to lock an entry under its upgraded W."""

        stats = explore_hierarchical(
            3,
            {
                1: [((T, M.U, True), (E0, M.W))],
                2: [((T, M.IW), (E0, M.W))],
            },
        )
        assert stats.terminal_states >= 1


class TestMultiLockDuplication:
    RECOVERY = dataclasses.replace(FULL_PROTOCOL, recovery=True)
    SCRIPTS = {
        1: [((T, M.IW), (E0, M.W))],
        2: [((T, M.IR), (E0, M.R))],
    }

    def _explore(self, options, nth):
        world = ProtocolWorld(
            hierarchical(options), 3, self.SCRIPTS, duplicate_nth=nth
        )
        return explore(world)

    @pytest.mark.parametrize("nth", range(11))
    def test_every_duplicated_message_absorbed(self, nth):
        """Any one message of a table+entry scenario delivered twice,
        in every interleaving: the dedup layer keeps Rule 1 on both
        locks and both operations complete."""

        base = self._explore(self.RECOVERY, None)
        stats = self._explore(self.RECOVERY, nth)
        assert stats.terminal_states >= base.terminal_states
        assert stats.states_explored > base.states_explored

    def test_the_base_protocol_needs_exactly_once_here_too(self):
        # ... and whatever breaks first is reported with its trace.
        with pytest.raises((InvariantViolation, ProtocolError), match="trace:"):
            self._explore(FULL_PROTOCOL, 0)
