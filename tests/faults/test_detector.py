"""HeartbeatDetector: suspicion, grace, and revival."""

from __future__ import annotations

from repro.faults.detector import HeartbeatDetector


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
