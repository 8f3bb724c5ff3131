"""Application-session lifecycle: holds, journal roundtrip, reclaim.

The reclaim safety argument lives in the advertisement gate: a hold is
reclaimable after a durable restart only if at least one pre-crash
heartbeat advertised its lease (peers then provably defer eviction and
regeneration until expiry).  These tests pin that gate down alongside
the plain lifecycle mechanics (grant/release multisets, expiry, GC, and
the ``"@sessions"`` journal payload).
"""

from __future__ import annotations

from repro.services.sessions import (
    ACTIVE,
    EXPIRED,
    Session,
    SessionManager,
)

TTL = 7.5


class TestSessionHolds:
    def test_grant_release_keeps_multiset_counts(self):
        session = Session(session_id="s0", node=0)
        session.note_grant("L", "R", now=1.0)
        session.note_grant("L", "R", now=2.0)
        session.note_grant("M", "W", now=3.0)
        assert session.holds == {("L", "R"): 2, ("M", "W"): 1}
        assert session.hold_count == 3
        session.note_release("L", "R", now=4.0)
        assert session.holds[("L", "R")] == 1
        session.note_release("L", "R", now=5.0)
        assert ("L", "R") not in session.holds
        assert session.last_active == 5.0

    def test_release_of_unheld_mode_is_harmless(self):
        session = Session(session_id="s0", node=0)
        session.note_release("L", "W", now=1.0)
        assert session.holds == {}

    def test_advertisement_tracks_hold_counts_per_lock(self):
        session = Session(session_id="s0", node=0)
        session.note_grant("L", "R", now=1.0)
        session.note_grant("L", "IW", now=1.0)
        session.note_grant("M", "W", now=1.0)
        assert session.note_advertised("L") is True
        assert session.advertised == {("L", "R"): 1, ("L", "IW"): 1}
        # Re-advertising an unchanged lock is idempotent.
        assert session.note_advertised("L") is False

    def test_release_caps_the_advertised_count(self):
        # Advertised counts must never exceed live holds, or the
        # reclaim budget would resurrect a hold that was released.
        session = Session(session_id="s0", node=0)
        session.note_grant("L", "R", now=1.0)
        session.note_grant("L", "R", now=1.0)
        session.note_advertised("L")
        session.note_release("L", "R", now=2.0)
        assert session.advertised[("L", "R")] == 1
        session.note_release("L", "R", now=3.0)
        assert ("L", "R") not in session.advertised

    def test_expire_clears_holds_and_advertisements(self):
        session = Session(session_id="s0", node=0)
        session.note_grant("L", "W", now=1.0)
        session.note_advertised("L")
        session.expire()
        assert session.state == EXPIRED
        assert session.holds == {} and session.advertised == {}

    def test_payload_roundtrip_preserves_advertised(self):
        session = Session(session_id="s7", node=3, last_active=9.25)
        session.note_grant("L", "R", now=9.25)
        session.note_grant("M", "W", now=9.25)
        session.note_advertised("L")
        clone = Session.from_payload(session.to_payload())
        assert clone.session_id == "s7" and clone.node == 3
        assert clone.holds == session.holds
        assert clone.advertised == session.advertised
        assert clone.last_active == 9.25


class TestSessionManager:
    def test_default_session_is_stable(self):
        manager = SessionManager(2)
        assert manager.default_session() is manager.default_session()
        assert manager.default_session().session_id == "s2"

    def test_note_advertised_skips_expired_sessions(self):
        manager = SessionManager(0)
        manager.note_grant("L", "W", now=1.0)
        manager.default_session().expire()
        assert manager.note_advertised(["L"]) is False

    def test_expire_all_counts(self):
        manager = SessionManager(0)
        manager.open("a", now=1.0)
        manager.open("b", now=1.0)
        assert manager.expire_all() == 2
        assert manager.expired_count == 2
        assert manager.expire_all() == 0

    def test_gc_ages_out_silent_empty_sessions(self):
        manager = SessionManager(0)
        manager.open("idle", now=1.0)
        busy = manager.open("busy", now=1.0)
        busy.note_grant("L", "W", now=1.0)
        assert manager.gc(now=1.0 + TTL, ttl=TTL) == 0  # Exactly at TTL.
        assert manager.gc(now=2.0 + TTL, ttl=TTL) == 1
        assert manager.get("idle") is None
        # A session still owning holds is never collected, even expired.
        busy.state = EXPIRED
        busy.holds = {("L", "W"): 1}
        assert manager.gc(now=100.0, ttl=TTL) == 0
        assert manager.get("busy") is not None

    def test_export_restore_roundtrip(self):
        manager = SessionManager(1)
        manager.note_grant("L", "R", now=2.0)
        manager.note_advertised(["L"])
        manager.open("extra", now=3.0)
        restored = SessionManager(1)
        restored.restore(manager.export())
        assert len(restored) == 2
        session = restored.get("s1")
        assert session is not None
        assert session.holds == {("L", "R"): 1}
        assert session.advertised == {("L", "R"): 1}

    def test_advert_fanout_covers_only_the_current_hold(self):
        # A quorum-wide advertisement of an earlier hold must not vouch
        # for a later hold whose beats reached one peer: that reclaim
        # must still be flagged as a partial fan-out.
        manager = SessionManager(0)
        manager.note_grant("L", "W", now=1.0)
        manager.note_grant("M", "R", now=1.0)
        manager.note_advertised(["L", "M"], fanout=39)
        manager.note_release("L", "W", now=2.0)
        assert manager.advert_fanout("L") is None
        assert manager.advert_fanout("M") == 39  # Still held.
        manager.note_grant("L", "W", now=3.0)
        manager.note_advertised(["L"], fanout=1)
        assert manager.advert_fanout("L") == 1
        restored = SessionManager(0)
        restored.restore(manager.export())
        assert restored.advert_fanout("L") == 1
        manager.expire_all()
        assert manager.advert_fanout("M") is None


class TestReclaimer:
    def _manager_with_holds(self, advertised: bool) -> SessionManager:
        manager = SessionManager(0)
        manager.note_grant("L", "R", now=5.0)
        manager.note_grant("L", "R", now=5.0)
        if advertised:
            manager.note_advertised(["L"])
        return manager

    def test_advertised_holds_are_reclaimable_exactly_once_each(self):
        manager = self._manager_with_holds(advertised=True)
        reclaim, survivors = manager.reclaimer(now=6.0, ttl=TTL)
        assert [s.session_id for s in survivors] == ["s0"]
        assert reclaim("L", "R") is True
        assert reclaim("L", "R") is True
        assert reclaim("L", "R") is False  # Budget is exact, not sticky.

    def test_unadvertised_holds_are_disowned(self):
        # The gate: a hold granted after the last pre-crash heartbeat
        # pinned nothing out there — survivors may have regenerated and
        # granted over it, so re-asserting it is forbidden.
        manager = self._manager_with_holds(advertised=False)
        reclaim, survivors = manager.reclaimer(now=6.0, ttl=TTL)
        assert survivors  # The session survives; its holds do not.
        assert reclaim("L", "R") is False

    def test_partially_advertised_budget(self):
        manager = self._manager_with_holds(advertised=True)
        # A third hold granted after the advertisement is not covered.
        manager.note_grant("L", "R", now=5.5)
        reclaim, _ = manager.reclaimer(now=6.0, ttl=TTL)
        assert reclaim("L", "R") and reclaim("L", "R")
        assert reclaim("L", "R") is False

    def test_session_past_the_reclaim_window_is_expired(self):
        manager = self._manager_with_holds(advertised=True)
        reclaim, survivors = manager.reclaimer(now=5.0 + TTL + 0.1, ttl=TTL)
        assert survivors == []
        assert reclaim("L", "R") is False
        assert manager.default_session().state == EXPIRED
        assert manager.expired_count == 1

    def test_unknown_holds_answer_false(self):
        manager = self._manager_with_holds(advertised=True)
        reclaim, _ = manager.reclaimer(now=6.0, ttl=TTL)
        assert reclaim("M", "W") is False
        assert reclaim("L", "W") is False

    def test_reclaimer_state_survives_journal_roundtrip(self):
        # The whole point: the advertisement gate must ride the WAL.
        manager = self._manager_with_holds(advertised=True)
        restored = SessionManager(0)
        restored.restore(manager.export())
        reclaim, survivors = restored.reclaimer(now=6.0, ttl=TTL)
        assert [s.session_id for s in survivors] == ["s0"]
        assert reclaim("L", "R") is True
        assert restored.default_session().state == ACTIVE
