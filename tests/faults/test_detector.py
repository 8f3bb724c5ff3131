"""HeartbeatDetector: suspicion, grace, revival and declared gaps."""

from __future__ import annotations

from repro.faults.detector import HeartbeatDetector
from repro.faults.messages import HeartbeatMessage
from repro.faults.recovery import RecoveryConfig

from .handcrank import build


class TestHeartbeatDetector:
    def test_initial_grace_period(self):
        detector = HeartbeatDetector([1, 2], timeout=1.0, now=0.0)
        assert detector.check(0.5) == []
        assert detector.suspected == set()

    def test_silence_beyond_timeout_suspects(self):
        detector = HeartbeatDetector([1, 2], timeout=1.0, now=0.0)
        detector.beat(1, 0.9)
        assert detector.check(1.0) == [2]
        assert detector.is_suspected(2)
        assert not detector.is_suspected(1)
        assert detector.live_peers() == [1]

    def test_suspect_reported_once(self):
        detector = HeartbeatDetector([1], timeout=1.0, now=0.0)
        assert detector.check(2.0) == [1]
        assert detector.check(3.0) == []  # still dead, not news

    def test_beat_revives(self):
        detector = HeartbeatDetector([1], timeout=1.0, now=0.0)
        detector.check(2.0)
        assert detector.is_suspected(1)
        assert detector.beat(1, 2.5) is True  # revival reported
        assert not detector.is_suspected(1)
        assert detector.check(2.9) == []

    def test_beat_from_untracked_peer_ignored(self):
        detector = HeartbeatDetector([1], timeout=1.0, now=0.0)
        assert detector.beat(99, 0.5) is False
        assert detector.live_peers() == [1]

    def test_beat_while_live_returns_false(self):
        detector = HeartbeatDetector([1], timeout=1.0, now=0.0)
        assert detector.beat(1, 0.5) is False

    def test_a_late_beat_does_not_move_last_seen_back(self):
        # A kept heartbeat is folded at its arrival time, which may be
        # before traffic already noted from the same peer.
        detector = HeartbeatDetector([1], timeout=2.5)
        detector.beat(1, 3.0)
        assert detector.beat(1, 2.0) is False
        assert detector.last_seen(1) == 3.0
        assert detector.check(5.4) == []


class TestDeclaredGaps:
    """A beat declares how many intervals until its sender's next one;
    the detector waits that much longer before suspecting."""

    def _detector(self, gap=1):
        return HeartbeatDetector([1, 2], timeout=2.5, interval=0.5, gap=gap)

    def test_a_declared_gap_extends_the_tolerance(self):
        detector = self._detector()
        detector.promise(1, 5)
        assert detector.tolerance(1) == 2.5 + 4 * 0.5
        assert detector.tolerance(2) == 2.5
        assert detector.check(2.5) == [2]
        assert detector.check(4.4) == []
        assert detector.check(4.5) == [1]

    def test_a_gap_of_one_restores_the_suspect_timeout(self):
        detector = self._detector()
        detector.promise(1, 5)
        detector.promise(1, 1)
        assert detector.check(2.5) == [1, 2]

    def test_a_peer_not_yet_heard_from_is_assumed_on_the_sweep(self):
        detector = self._detector(gap=5)
        assert detector.gap(1) == 5
        assert detector.check(4.4) == []
        assert detector.check(4.5) == [1, 2]

    def test_forgetting_a_peer_drops_its_promise(self):
        detector = self._detector()
        detector.promise(1, 5)
        detector.forget(1)
        detector.add_peer(1, 0.0)
        assert detector.gap(1) == 1


def _beat(seq, gap, want=False, boot=0, echo=()):
    return HeartbeatMessage(
        lock_id="", sender=1, boot=boot, seq=seq, gap=gap, want=want,
        echo=echo,
    )


def test_only_the_newest_beats_gap_counts():
    # Heartbeats are datagrams: the one sent first may arrive last.  The
    # receiver depends on node 1 from its beat 2 on, so a per-tick
    # promise counts only if it echoes beat 2 or a later one.
    scheduler, fabric = build(2, RecoveryConfig(suspect_timeout=1e6))
    receiver = fabric.managers[0]
    sweep = receiver.sweep
    receiver.dependencies = lambda: {1}
    scheduler.advance(0.5)
    assert receiver._opened == {1: (0, 2)}
    receiver.handle(_beat(seq=11, gap=1, want=True, echo=(0, 2)))
    receiver.handle(_beat(seq=10, gap=6))       # overtaken on the wire
    assert receiver.detector.gap(1) == 1
    assert 1 in receiver._wanters
    receiver.handle(_beat(seq=12, gap=6))
    assert receiver.detector.gap(1) == 6
    assert 1 not in receiver._wanters
    # A duplicate, late.
    receiver.handle(_beat(seq=11, gap=1, want=True, echo=(0, 2)))
    assert receiver.detector.gap(1) == 6
    # A promise made before node 1 heard beat 2 does not count.
    receiver.handle(_beat(seq=13, gap=1, echo=(0, 1)))
    assert receiver.detector.gap(1) == sweep
    receiver.handle(_beat(seq=14, gap=1, echo=(0, 3)))
    assert receiver.detector.gap(1) == 1
    # A restarted sender numbers its beats afresh: its first is newest.
    receiver.handle(_beat(seq=1, gap=1, boot=1, echo=(0, 3)))
    assert receiver.detector.gap(1) == 1
    # Once the receiver stops depending on node 1, no promise counts.
    receiver.dependencies = lambda: set()
    scheduler.advance(1.0)
    assert receiver.detector.gap(1) == sweep
    receiver.handle(_beat(seq=2, gap=1, boot=1, echo=(0, 3)))
    assert receiver.detector.gap(1) == sweep
