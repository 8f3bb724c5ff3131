"""Tests for the priority-scheduling extension (strict priority arbitration).

The paper's introduction claims "request arbitration through strict
priority ordering" building on the authors' prioritized-token prior work
[11, 12].  With ``ProtocolOptions.priority_scheduling`` the local queues
order by (upgrades, priority desc, FIFO) instead of pure FIFO.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import Pump  # noqa: E402

from repro.core.automaton import ProtocolOptions  # noqa: E402
from repro.core.modes import LockMode  # noqa: E402
from repro.verification import explore_scenario  # noqa: E402

A, B, C, D = 0, 1, 2, 3

PRIORITY_ON = ProtocolOptions(priority_scheduling=True)

#: The mixed scenario explored exhaustively with priorities enabled.
EXPLORED = (3, [(1, LockMode.IR), (2, LockMode.R), (0, LockMode.W)])


def _request_with_priority(pump, node, mode, priority):
    out = pump.automata[node].request(mode, priority=priority)
    pump.send(node, out)
    pump.drain()


class TestPriorityQueueOrder:
    def test_higher_priority_served_first(self):
        pump = Pump(4, options=PRIORITY_ON)
        pump.request(A, LockMode.W)  # block everyone
        _request_with_priority(pump, B, LockMode.W, priority=1)
        _request_with_priority(pump, C, LockMode.W, priority=9)
        pump.release(A, LockMode.W)
        # C (priority 9) overtook B (priority 1) despite arriving later.
        assert pump.granted_modes(C) == [LockMode.W]
        assert pump.granted_modes(B) == []
        pump.release(C, LockMode.W)
        assert pump.granted_modes(B) == [LockMode.W]

    def test_fifo_within_equal_priority(self):
        pump = Pump(4, options=PRIORITY_ON)
        pump.request(A, LockMode.W)
        _request_with_priority(pump, B, LockMode.W, priority=5)
        _request_with_priority(pump, C, LockMode.W, priority=5)
        pump.release(A, LockMode.W)
        assert pump.granted_modes(B) == [LockMode.W]
        assert pump.granted_modes(C) == []

    def test_default_protocol_ignores_priority(self):
        pump = Pump(4)  # FIFO protocol as published
        pump.request(A, LockMode.W)
        _request_with_priority(pump, B, LockMode.W, priority=1)
        _request_with_priority(pump, C, LockMode.W, priority=9)
        pump.release(A, LockMode.W)
        assert pump.granted_modes(B) == [LockMode.W]  # FIFO wins

    def test_upgrade_still_precedes_everything(self):
        pump = Pump(4, options=PRIORITY_ON)
        pump.request(B, LockMode.U)          # token moves to B
        _request_with_priority(pump, C, LockMode.W, priority=100)
        pump.upgrade(B)                       # queued upgrade
        # Even a priority-100 W cannot precede the upgrade: the upgrader
        # holds U, so serving W first would deadlock.
        assert pump.automata[B].held_modes == {LockMode.W: 1}
        assert pump.granted_modes(C) == []
        pump.release(B, LockMode.W)
        assert pump.granted_modes(C) == [LockMode.W]

    def test_priority_survives_token_transfer_merge(self):
        pump = Pump(4, options=PRIORITY_ON)
        pump.request(A, LockMode.R)
        _request_with_priority(pump, B, LockMode.U, priority=0)  # transfers
        assert pump.token_holder() == B
        _request_with_priority(pump, C, LockMode.W, priority=1)
        _request_with_priority(pump, D, LockMode.W, priority=8)
        pump.release(A, LockMode.R)
        pump.release(B, LockMode.U)
        # D's higher priority wins the merged queue.
        assert pump.granted_modes(D) == [LockMode.W]
        assert pump.granted_modes(C) == []
        pump.release(D, LockMode.W)
        assert pump.granted_modes(C) == [LockMode.W]


class TestPrioritySafety:
    def test_safety_under_priority_scheduling(self):
        """Every interleaving of a mixed scenario stays safe with
        priorities enabled (priorities reorder, never relax, grants)."""

        stats = explore_scenario(*EXPLORED, options=PRIORITY_ON)
        assert stats.terminal_states >= 1

    def test_compatible_requests_still_concurrent(self):
        pump = Pump(4, options=PRIORITY_ON)
        pump.request(A, LockMode.R)
        _request_with_priority(pump, B, LockMode.R, priority=1)
        _request_with_priority(pump, C, LockMode.IR, priority=2)
        assert pump.granted_modes(B) == [LockMode.R]
        assert pump.granted_modes(C) == [LockMode.IR]
