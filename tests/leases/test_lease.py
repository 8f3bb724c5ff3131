"""Lease table semantics: deadlines, fencing tokens, hostile clocks.

The lease layer never reads a clock — every mutator takes an explicit
``now`` — so these tests drive it with deliberately broken timelines
(frozen clocks, skewed clocks, time travelling backwards) and check the
two properties revocation safety rests on: deadlines are monotonic
(renewal never shortens a lease) and fencing tokens are strictly
ordered (a later epoch dominates every earlier token).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leases import (
    Lease,
    LeaseConfig,
    LeaseTable,
    fencing_epoch,
    mint_fencing_token,
)

CFG = LeaseConfig(duration=6.0, revoke_margin=1.5)


class TestFencingTokens:
    def test_tokens_strictly_increase_within_an_epoch(self):
        tokens = [mint_fencing_token(0) for _ in range(5)]
        assert tokens == sorted(tokens)
        assert len(set(tokens)) == 5

    def test_later_epoch_dominates_every_earlier_token(self):
        # Mint many epoch-0 tokens first: the serial counter alone must
        # never climb past a single later-epoch token.
        old = [mint_fencing_token(0) for _ in range(100)]
        newer = mint_fencing_token(1)
        assert all(newer > token for token in old)

    def test_epoch_recoverable_from_token(self):
        for epoch in (0, 1, 7, 123):
            assert fencing_epoch(mint_fencing_token(epoch)) == epoch

    def test_zero_is_never_minted(self):
        # 0 is the "unfenced" sentinel in messages; a real token must
        # always clear it.
        assert mint_fencing_token(0) > 0


class TestLeaseConfig:
    def test_session_ttl_spans_duration_plus_margin(self):
        assert CFG.session_ttl == pytest.approx(7.5)

    def test_lease_active_until_deadline_expired_after_margin(self):
        lease = Lease(lock="L", mode="W", holder=1, token=5, deadline=10.0)
        assert lease.active(9.999)
        assert not lease.active(10.0)
        assert not lease.expired(10.0, margin=1.5)
        assert lease.expired(11.5, margin=1.5)


class TestRenewalMonotonicity:
    def test_renew_extends_the_deadline(self):
        table = LeaseTable(CFG)
        lease = table.grant("L", "W", holder=1, token=7, now=0.0)
        assert lease.deadline == pytest.approx(6.0)
        table.renew("L", holder=1, now=4.0)
        assert lease.deadline == pytest.approx(10.0)

    def test_frozen_clock_renewal_is_a_noop(self):
        # A holder whose clock stopped keeps renewing with the same
        # stamp; the deadline must stay put, never regress.
        table = LeaseTable(CFG)
        lease = table.grant("L", "W", holder=1, token=7, now=5.0)
        deadline = lease.deadline
        for _ in range(10):
            table.renew("L", holder=1, now=5.0)
        assert lease.deadline == deadline

    def test_backwards_clock_renewal_never_shrinks_the_lease(self):
        table = LeaseTable(CFG)
        lease = table.grant("L", "W", holder=1, token=7, now=10.0)
        table.renew("L", holder=1, now=12.0)
        extended = lease.deadline
        # Skewed stamp from the past: must not pull the deadline back.
        table.renew("L", holder=1, now=3.0)
        assert lease.deadline == extended

    def test_renew_unknown_lease_returns_none(self):
        table = LeaseTable(CFG)
        assert table.renew("L", holder=9, now=0.0) is None

    def test_regrant_keeps_newest_token_and_latest_deadline(self):
        table = LeaseTable(CFG)
        first = table.grant("L", "R", holder=1, token=10, now=10.0)
        again = table.grant("L", "W", holder=1, token=8, now=2.0)
        assert again is first
        assert first.token == 10  # An older token never replaces a newer.
        assert first.deadline == pytest.approx(16.0)  # Never backwards.
        assert first.mode == "W"


class TestObserveMirrors:
    def test_observe_grants_then_renews(self):
        table = LeaseTable(CFG)
        row = ["L", "W", 1, 42]
        assert table.observe(1, [row], now=0.0) == 1
        lease = table.get("L", 1)
        assert lease is not None and lease.token == 42
        table.observe(1, [row], now=3.0)
        assert lease.deadline == pytest.approx(9.0)

    def test_unadvertised_leases_are_dropped(self):
        # A released hold disappearing from the heartbeat must not
        # linger and later fire a spurious revocation against a
        # re-acquired hold.
        table = LeaseTable(CFG)
        table.observe(1, [["A", "W", 1, 5], ["B", "R", 1, 6]], now=0.0)
        assert len(table) == 2
        table.observe(1, [["B", "R", 1, 6]], now=1.0)
        assert table.get("A", 1) is None
        assert table.get("B", 1) is not None

    def test_observe_only_touches_that_holder(self):
        table = LeaseTable(CFG)
        table.observe(1, [["A", "W", 1, 5]], now=0.0)
        table.observe(2, [["B", "R", 2, 6]], now=0.0)
        table.observe(1, [], now=1.0)  # Holder 1 released everything.
        assert table.get("A", 1) is None
        assert table.get("B", 2) is not None


class TestExpiryAndRevocation:
    def test_holder_active_spans_the_revoke_margin(self):
        # Until deadline + margin the holder may still be self-fencing;
        # its hold must keep pinning the copyset.
        table = LeaseTable(CFG)
        table.grant("L", "W", holder=1, token=7, now=0.0)
        assert table.holder_active("L", 1, now=6.5)
        assert table.holder_active("L", 1, now=7.4)
        assert not table.holder_active("L", 1, now=7.5)

    def test_expired_listing_respects_the_margin(self):
        table = LeaseTable(CFG)
        table.grant("L", "W", holder=1, token=7, now=0.0)
        table.grant("M", "R", holder=2, token=8, now=3.0)
        assert table.expired(now=7.4) == []
        ripe = table.expired(now=7.5)
        assert [lease.lock for lease in ripe] == ["L"]

    def test_drop_holder_clears_all_their_leases(self):
        table = LeaseTable(CFG)
        table.grant("A", "W", holder=1, token=5, now=0.0)
        table.grant("B", "R", holder=1, token=6, now=0.0)
        table.grant("A", "R", holder=2, token=7, now=0.0)
        dropped = table.drop_holder(1)
        assert sorted(lease.lock for lease in dropped) == ["A", "B"]
        assert len(table) == 1

    def test_export_roundtrips_through_observe(self):
        table = LeaseTable(CFG)
        table.grant("A", "W", holder=1, token=5, now=0.0)
        table.grant("B", "IR", holder=1, token=6, now=0.0)
        mirror = LeaseTable(CFG)
        mirror.observe(1, table.export(), now=0.0)
        assert [l.to_payload() for l in mirror.leases()] == [
            l.to_payload() for l in table.leases()
        ]


class ScanningTable(LeaseTable):
    """The reference: every per-holder question answered by scanning
    every lease, with no holder index."""

    def mirrors(self, holder):
        return any(key[1] == holder for key in self._leases)

    def observe(self, holder, advertised, now):
        seen = set()
        applied = 0
        for lock, mode, _holder, token in advertised:
            lock = str(lock)
            seen.add(lock)
            existing = self._leases.get((lock, holder))
            if existing is None:
                self.grant(lock, str(mode), holder, int(token), now)
            else:
                existing.mode = str(mode)
                existing.token = max(existing.token, int(token))
                self.renew(lock, holder, now)
            applied += 1
        stale = [
            key
            for key in self._leases
            if key[1] == holder and key[0] not in seen
        ]
        for key in stale:
            del self._leases[key]
        return applied

    def drop(self, lock, holder):
        return self._leases.pop((lock, holder), None)

    def drop_holder(self, holder):
        keys = [key for key in self._leases if key[1] == holder]
        return [self._leases.pop(key) for key in keys]

    def clear(self):
        self._leases.clear()


HOLDERS = (0, 1, 2)
_lock = st.sampled_from("ABC")
_holder = st.sampled_from(HOLDERS)
_now = st.integers(0, 40).map(lambda tick: tick / 2)
_mode, _token = st.sampled_from(("R", "W", "IR")), st.integers(1, 9)
_OPS = st.one_of(
    st.tuples(st.just("grant"), _lock, _mode, _holder, _token, _now),
    st.tuples(
        st.just("observe"),
        _holder,
        st.lists(st.tuples(_lock, _mode, _holder, _token), max_size=3),
        _now,
    ),
    st.tuples(st.just("renew"), _lock, _holder, _now),
    st.tuples(st.just("drop"), _lock, _holder),
    st.tuples(st.just("drop_holder"), _holder),
    st.tuples(st.just("clear")),
)


class TestHolderIndexModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, max_size=30))
    def test_indexed_table_matches_the_scanning_reference(self, ops):
        table, reference = LeaseTable(CFG), ScanningTable(CFG)
        for name, *args in ops:
            got = getattr(table, name)(*args)
            want = getattr(reference, name)(*args)
            if name == "drop_holder":  # Lock order, not grant order.
                want = sorted(want, key=lambda lease: lease.lock)
            assert got == want
            assert table.leases() == reference.leases()
            assert table.export() == reference.export()
            for now in (0.0, 7.0, 14.0, 30.0):
                assert table.active(now) == reference.active(now)
                assert table.expired(now) == reference.expired(now)
            for holder in HOLDERS:
                assert table.mirrors(holder) == reference.mirrors(holder)
            assert table.renewals == reference.renewals
