"""The search kernel on its own, and the acceptance test of the split.

``explore()`` knows no protocol: the first half drives it with a toy
world defined in this file.  The second half is the claim the
kernel/world split makes — a new kind of move is a generator in the
caller's file, with no edit to the kernel or the world: here one that
fires the recorded ``retransmit_pending()`` once per outstanding request,
explored under ``recovery=True`` with the strict terminal check.
"""

from __future__ import annotations

import dataclasses
from operator import methodcaller

import pytest

from repro.core.automaton import FULL_PROTOCOL
from repro.core.modes import LockMode as M
from repro.errors import InvariantViolation
from repro.verification.explorer import (
    LOCK,
    ProtocolWorld,
    explore,
    hierarchical,
)


class Grid:
    """Toy world: two counters stepped independently from 0 to *size*;
    (*bad*) is a cell no path may enter, *sink* a cell nothing leaves."""

    def __init__(self, size, bad=None, sink=None, at=(0, 0)):
        self.size, self.bad, self.sink, self.at = size, bad, sink, at

    def signature(self):
        return self.at

    def clone(self):
        return Grid(self.size, self.bad, self.sink, self.at)

    def moves(self):
        if self.at == self.sink:
            return []
        return [
            (f"step {axis}", methodcaller("step", axis))
            for axis in (0, 1)
            if self.at[axis] < self.size
        ]

    def step(self, axis):
        self.at = tuple(v + (i == axis) for i, v in enumerate(self.at))
        if self.at == self.bad:
            raise InvariantViolation(f"entered {self.at}")

    def check_terminal(self):
        if self.at != (self.size, self.size):
            raise InvariantViolation(f"stuck at {self.at}")


class TestKernel:
    def test_every_state_once_and_one_terminal(self):
        stats = explore(Grid(3))
        # 4 x 4 cells although the paths to them number 20.
        assert (stats.states_explored, stats.terminal_states) == (16, 1)
        assert stats.max_frontier >= 2

    def test_a_violating_move_is_reported_with_its_trace(self):
        with pytest.raises(InvariantViolation) as caught:
            explore(Grid(3, bad=(1, 2)))
        message = str(caught.value)
        assert message.startswith("entered (1, 2)\ntrace:\n")
        steps = message.split("trace:\n")[1].split("\n")
        assert sorted(steps) == ["step 0", "step 1", "step 1"]

    def test_a_failed_terminal_check_is_reported_with_its_trace(self):
        with pytest.raises(InvariantViolation, match=r"stuck at \(2, 0\)") as caught:
            explore(Grid(3, sink=(2, 0)))
        assert str(caught.value).endswith("trace:\nstep 0\nstep 0")

    def test_budget(self):
        with pytest.raises(InvariantViolation, match="budget exceeded"):
            explore(Grid(3), max_states=10)
        assert explore(Grid(3), max_states=16).states_explored == 16


# ---------------------------------------------------------------------------
# Acceptance: a move generator defined here, on the unmodified world.
# ---------------------------------------------------------------------------

RECOVERY = dataclasses.replace(FULL_PROTOCOL, recovery=True)


class RetransmittingWorld(ProtocolWorld):
    """The bare-protocol world plus the recovery kernel's plain retry: a
    node may re-send its outstanding request to its parent, once."""

    #: ``(node, operations done, step)`` of every request re-sent so far.
    retransmitted = frozenset()

    def moves(self):
        moves = super().moves()
        for node, asked in sorted(self.waiting.items()):
            if asked is not None and self._request(node) not in self.retransmitted:
                moves.append(
                    (
                        f"retransmit {node}",
                        methodcaller("retransmit", node, asked[0]),
                    )
                )
        return moves

    def _request(self, node):
        return (node, self.done[node], self.step[node])

    def retransmit(self, node, lock_id):
        self.retransmitted |= {self._request(node)}
        automaton = self.spaces[node].automaton(lock_id)
        self.send(node, automaton.retransmit_pending())

    def signature(self):
        return super().signature() + (self.retransmitted,)


@pytest.mark.parametrize(
    "requests,states",
    [
        ([(1, M.W), (2, M.R)], 384),
        ([(1, M.R), (2, M.R)], 1103),
        ([(1, M.W), (2, M.W)], 325),
    ],
    ids=["W vs R", "R vs R", "W vs W"],
)
def test_a_parent_directed_retransmit_is_absorbed_everywhere(requests, states):
    """In every interleaving, at whatever state of whichever automaton
    the re-sent request lands — forwarded, queued, granted, answered by a
    token — Rule 1 holds, both requests are granted, and nothing is left
    behind: no copyset entry, queue entry or pending request
    (``quiescent_hierarchical``).  So the fault-free wedge of ROADMAP
    item 1 (i) is not reachable by a plain retry over a FIFO channel."""

    scripts = {node: [((LOCK, mode),)] for node, mode in requests}
    plain = explore(ProtocolWorld(hierarchical(RECOVERY), 3, scripts))
    stats = explore(RetransmittingWorld(hierarchical(RECOVERY), 3, scripts))
    assert stats.states_explored == states
    assert stats.states_explored > plain.states_explored
    assert stats.terminal_states >= plain.terminal_states
