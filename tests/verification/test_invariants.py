"""Tests for the runtime safety monitors."""

from __future__ import annotations

import pytest

from repro.core.messages import FreezeMessage
from repro.core.modes import LockMode
from repro.errors import InvariantViolation
from repro.naimi.lockspace import NaimiLockSpace
from repro.verification.invariants import (
    CompatibilityMonitor,
    FifoObserver,
    MonitorSet,
    MutualExclusionMonitor,
    quiescent_exclusive,
    quiescent_hierarchical,
)
from tests.helpers import Pump


class TestCompatibilityMonitor:
    def test_compatible_holds_accepted(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "t", LockMode.IR)
        monitor.on_grant(0.1, 1, "t", LockMode.R)
        monitor.on_grant(0.2, 2, "t", LockMode.U)
        assert monitor.grants == 3

    def test_conflicting_grant_raises(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "t", LockMode.R)
        with pytest.raises(InvariantViolation):
            monitor.on_grant(0.1, 1, "t", LockMode.W)

    def test_release_unblocks_conflicts(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "t", LockMode.R)
        monitor.on_release(0.1, 0, "t", LockMode.R)
        monitor.on_grant(0.2, 1, "t", LockMode.W)  # fine now

    def test_unmatched_release_raises(self):
        monitor = CompatibilityMonitor()
        with pytest.raises(InvariantViolation):
            monitor.on_release(0.0, 0, "t", LockMode.R)

    def test_locks_are_independent(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "a", LockMode.W)
        monitor.on_grant(0.1, 1, "b", LockMode.W)  # different lock: fine

    def test_same_node_duplicate_holds_tracked(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "t", LockMode.IR)
        monitor.on_grant(0.1, 0, "t", LockMode.IR)
        monitor.on_release(0.2, 0, "t", LockMode.IR)
        assert monitor.current_holds("t") == [(0, LockMode.IR)]

    def test_assert_all_released(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "t", LockMode.R)
        with pytest.raises(InvariantViolation):
            monitor.assert_all_released()
        monitor.on_release(0.1, 0, "t", LockMode.R)
        monitor.assert_all_released()

    def test_max_concurrency_tracked(self):
        monitor = CompatibilityMonitor()
        monitor.on_grant(0.0, 0, "t", LockMode.IR)
        monitor.on_grant(0.1, 1, "t", LockMode.IR)
        monitor.on_release(0.2, 0, "t", LockMode.IR)
        monitor.on_grant(0.3, 2, "t", LockMode.IR)
        assert monitor.max_concurrency["t"] == 2


class TestMutualExclusionMonitor:
    def test_single_holder_ok(self):
        monitor = MutualExclusionMonitor()
        monitor.on_grant(0.0, 0, "g", LockMode.W)
        monitor.on_release(0.1, 0, "g", LockMode.W)
        monitor.on_grant(0.2, 1, "g", LockMode.W)
        assert monitor.grants == 2

    def test_second_holder_raises(self):
        monitor = MutualExclusionMonitor()
        monitor.on_grant(0.0, 0, "g", LockMode.W)
        with pytest.raises(InvariantViolation):
            monitor.on_grant(0.1, 1, "g", LockMode.W)

    def test_wrong_releaser_raises(self):
        monitor = MutualExclusionMonitor()
        monitor.on_grant(0.0, 0, "g", LockMode.W)
        with pytest.raises(InvariantViolation):
            monitor.on_release(0.1, 1, "g", LockMode.W)

    def test_assert_all_released(self):
        monitor = MutualExclusionMonitor()
        monitor.on_grant(0.0, 0, "g", LockMode.W)
        with pytest.raises(InvariantViolation):
            monitor.assert_all_released()


class TestFifoObserver:
    def test_records_grant_sequence(self):
        observer = FifoObserver()
        observer.on_grant(0.0, 2, "t", LockMode.R)
        observer.on_grant(1.0, 5, "t", LockMode.W)
        events = observer.grants_for("t")
        assert [(e.node, e.mode) for e in events] == [
            (2, LockMode.R),
            (5, LockMode.W),
        ]

    def test_locks_tracked_separately(self):
        observer = FifoObserver()
        observer.on_grant(0.0, 0, "a", LockMode.R)
        observer.on_grant(0.1, 1, "b", LockMode.R)
        assert len(observer.grants_for("a")) == 1
        assert len(observer.grants_for("b")) == 1


class TestMonitorSet:
    def test_fans_out_to_all(self):
        compat = CompatibilityMonitor()
        fifo = FifoObserver()
        monitor_set = MonitorSet([compat, fifo])
        monitor_set.on_grant(0.0, 0, "t", LockMode.R)
        monitor_set.on_release(0.1, 0, "t", LockMode.R)
        assert compat.grants == 1
        assert len(fifo.grants_for("t")) == 1

    def test_violation_from_any_member_propagates(self):
        monitor_set = MonitorSet([CompatibilityMonitor()])
        monitor_set.on_grant(0.0, 0, "t", LockMode.W)
        with pytest.raises(InvariantViolation):
            monitor_set.on_grant(0.1, 1, "t", LockMode.R)


class TestQuiescentInvariants:
    """The per-lock check the simulated clusters and the explorer's
    terminal states share, on hand-made residues."""

    def test_a_settled_tree_passes_with_and_without_holds(self):
        pump = Pump(3)
        pump.request(0, LockMode.R)
        pump.request(1, LockMode.R)
        pump.request(2, LockMode.IR)
        quiescent_hierarchical("L", pump.automata)
        for node, mode in ((0, LockMode.R), (1, LockMode.R), (2, LockMode.IR)):
            pump.release(node, mode)
        quiescent_hierarchical("L", pump.automata)

    def test_a_waiting_request_is_flagged(self):
        pump = Pump(3)
        pump.request(1, LockMode.W)
        pump.request(2, LockMode.W)
        with pytest.raises(InvariantViolation, match="still (pending|queues)"):
            quiescent_hierarchical("L", pump.automata)

    def test_a_lost_release_is_flagged(self):
        pump = Pump(2)
        pump.request(0, LockMode.R)
        pump.request(1, LockMode.R)
        pump.automata[1].release(LockMode.R)  # ... and the message is lost.
        with pytest.raises(InvariantViolation, match="records child 1 as R"):
            quiescent_hierarchical("L", pump.automata)

    def test_a_copyset_cycle_owning_nothing_is_flagged(self):
        # Pairwise the records agree (each "owns" R through the other);
        # only "nothing is held anywhere" exposes the cycle.
        pump = Pump(3, parents={1: 2, 2: 1})
        pump.automata[1].splice_adopt_child(2, LockMode.R, 1)
        pump.automata[2].splice_adopt_child(1, LockMode.R, 1)
        with pytest.raises(InvariantViolation, match="nothing is held"):
            quiescent_hierarchical("L", pump.automata)

    def test_a_token_left_frozen_is_flagged_a_detached_node_is_not(self):
        pump = Pump(2)
        pump.automata[1].handle(
            FreezeMessage(lock_id="L", sender=0, frozen=frozenset({LockMode.R}))
        )
        assert pump.automata[1].frozen_modes  # stale, and harmless
        quiescent_hierarchical("L", pump.automata)
        pump.automata[0].splice_token(frozen=frozenset({LockMode.R}))
        with pytest.raises(InvariantViolation, match="still freezes"):
            quiescent_hierarchical("L", pump.automata)

    def test_exclusive_one_token_and_everyone_idle(self):
        spaces = {node: NaimiLockSpace(node) for node in range(3)}
        automata = {n: space.automaton("g") for n, space in spaces.items()}
        quiescent_exclusive("g", automata)
        automata[0].request()
        with pytest.raises(InvariantViolation, match=r"nodes \[0\] not idle"):
            quiescent_exclusive("g", automata)
        automata[0].release()
        automata[1].splice_take_token()
        with pytest.raises(InvariantViolation, match="2 token holders"):
            quiescent_exclusive("g", automata)
