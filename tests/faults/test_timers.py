"""The keyed timer facility, and the aliasing it removed.

The recovery stack used to guard each ``call_later`` with a generation
counter kept on the entry the timer served.  Entries are deleted and
re-created, their counters restart, and a stale timer's generation then
matches the *next* entry's: the stale deadline closes a fresh probe
early, a stale retry chain runs beside the real one.  The stack-level
tests below reproduce both (they fail on the hand-kept scheme); the
facility tests pin the contract that rules the class out.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.modes import LockMode
from repro.faults.chaos import run_chaos
from repro.faults.messages import (
    OrphanReport,
    ReparentMessage,
    SessionAck,
    SessionMessage,
)
from repro.faults.recovery import RecoveryConfig
from repro.faults.scheduler import Timers, WallScheduler

from .handcrank import HandScheduler, build

LOCK = "L"


# -- the facility --------------------------------------------------------


@pytest.fixture
def rig():
    scheduler = HandScheduler()
    fired = []
    timers = Timers(scheduler, threading.RLock())
    return scheduler, timers, fired


def test_rearmed_key_fires_once_at_the_second_deadline(rig):
    scheduler, timers, fired = rig
    timers.arm("k", 1.0, fired.append, "first")
    scheduler.advance(0.25)
    timers.cancel("k")
    scheduler.advance(0.5)
    timers.arm("k", 1.0, fired.append, "second")
    scheduler.advance(1.25)  # The first arm's deadline (1.0) has passed.
    assert fired == []
    scheduler.advance(1.5)
    assert fired == ["second"]
    scheduler.advance(10.0)
    assert fired == ["second"]


def test_arm_supersedes_whatever_the_key_held(rig):
    scheduler, timers, fired = rig
    timers.arm("k", 1.0, fired.append, "first")
    timers.arm("k", 3.0, fired.append, "second")
    timers.arm("other", 2.0, fired.append, "other")
    scheduler.advance(10.0)
    assert fired == ["other", "second"]


def test_a_fired_key_is_free_again(rig):
    scheduler, timers, fired = rig

    def again(n):
        fired.append(n)
        if n < 3:
            timers.arm("k", 1.0, again, n + 1)

    timers.arm("k", 1.0, again, 1)
    scheduler.advance(10.0)
    assert fired == [1, 2, 3]


def test_clear_disarms_everything(rig):
    scheduler, timers, fired = rig
    timers.arm("a", 1.0, fired.append, "a")
    timers.arm("b", 2.0, fired.append, "b")
    timers.clear()
    scheduler.advance(10.0)
    assert fired == []


def test_callbacks_run_under_the_mutex_and_only_while_running():
    scheduler = HandScheduler()

    class Spy:
        held = 0

        def __enter__(self):
            self.held += 1

        def __exit__(self, *exc):
            self.held -= 1

    mutex, seen = Spy(), []
    timers = Timers(scheduler, mutex, running=False)
    timers.arm("early", 1.0, seen.append, "early")
    scheduler.advance(1.0)
    assert seen == []  # Due while not running: dropped, not deferred.
    timers.running = True
    timers.arm("k", 1.0, lambda: seen.append(mutex.held))
    scheduler.advance(2.0)
    assert seen == [1] and mutex.held == 0
    timers.arm("late", 1.0, seen.append, "late")
    timers.running = False
    scheduler.advance(10.0)
    assert seen == [1]


def test_wall_scheduler_keeps_a_raising_callback_and_keeps_going():
    scheduler = WallScheduler()
    done = threading.Event()
    try:
        scheduler.call_later(0.0, lambda: 1 / 0)
        scheduler.call_later(0.01, done.set)
        assert done.wait(5.0), "the wheel died with the raising callback"
        assert [type(e) for e in scheduler.errors] == [ZeroDivisionError]
        for _ in range(2 * scheduler.MAX_ERRORS):
            scheduler.errors.append(RuntimeError())
        assert len(scheduler.errors) == scheduler.MAX_ERRORS  # Bounded.
    finally:
        scheduler.stop()


# -- the stack -------------------------------------------------------------


def test_a_reopened_probe_keeps_its_own_deadline():
    """Resolve a probe by ``ReparentMessage``, open a new one inside
    ``probe_timeout``: it closes ``probe_timeout`` after the *second*
    opened.  (The first probe's deadline used to close it — 0.4 s after
    it opened here — and go on to claim a regeneration epoch.)"""

    scheduler, fabric = build(5)
    coordinator = fabric.managers[4]  # The highest live id coordinates.
    timeout = coordinator.config.probe_timeout

    coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
    scheduler.advance(0.4)
    coordinator.handle(
        ReparentMessage(lock_id=LOCK, sender=0, parent=0, epoch=0)
    )
    scheduler.advance(0.6)
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
    scheduler.advance(0.6 + timeout - 0.01)
    assert fabric.claims(4) == set()
    scheduler.advance(0.6 + timeout + 0.01)
    assert fabric.claims(4) == {1}


def test_a_reissued_request_runs_one_retry_chain():
    """A request granted, its retry state reaped, then re-issued while a
    backed-off timer of the old chain is outstanding: one chain, not two."""

    grants = []
    scheduler, fabric = build(
        3, RecoveryConfig(suspect_timeout=1e6), grants=grants
    )
    fabric.managers[0].request(LOCK, LockMode.R)  # Pins the token at 0.
    node = fabric.managers[1]
    node.request(LOCK, LockMode.R)
    scheduler.advance(2.5)  # Retries at 0.75 and 2.25; the next is at 5.25.
    # A parent-directed reparent restarts the chain beside that timer.
    node.handle(ReparentMessage(lock_id=LOCK, sender=0, parent=2, epoch=0))
    fabric.deliver(SessionMessage, SessionAck)
    assert grants == [(0, LOCK, LockMode.R), (1, LOCK, LockMode.R)]
    scheduler.advance(3.3)  # The restarted chain saw the grant at 3.25.
    node.release(LOCK, LockMode.R)
    fabric.deliver(SessionMessage, SessionAck)
    node.request(LOCK, LockMode.W)
    assert node.lockspace.automaton(LOCK).pending_mode is LockMode.W
    before = node.app_retransmits
    scheduler.advance(5.5)  # The new chain retries at 4.05; next at 5.55.
    assert node.app_retransmits - before == 1


@pytest.mark.parametrize(
    "plan, seed", [("smoke", 1), ("kill-and-replace", 0)]
)
def test_every_callback_runs_when_its_current_arm_says(
    monkeypatch, plan, seed
):
    """Universal invariant, spied on the facility's fire path: whatever
    callback runs does so exactly ``delay`` after the ``arm`` current for
    its key.  Both runs used to let a stale probe deadline through
    (node 4: ``lock-2`` at t = 14.148, ``lock-0``/``lock-1`` at 8.626)."""

    current, ran = {}, []
    arm = Timers.arm

    def spied_arm(self, key, delay, fn, *args):
        clock = self._scheduler.now
        due = current[id(self), key] = clock() + delay

        def checked(*args):
            ran.append(key)
            assert clock() == due == current[id(self), key], (key, clock())
            fn(*args)

        arm(self, key, delay, checked, *args)

    monkeypatch.setattr(Timers, "arm", spied_arm)
    assert run_chaos(plan, seed=seed).ok
    kinds = {key[0] if isinstance(key, tuple) else key for key in ran}
    assert {"retry", "probe", "heartbeat-tick", "failure-tick"} <= kinds
