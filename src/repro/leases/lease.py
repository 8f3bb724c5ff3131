"""Leases and fencing tokens for granted lock holds.

A :class:`Lease` binds one node's hold on one lock to a deadline and a
fencing token.  Fencing tokens are minted from the lock's token epoch
(the recovery layer's incarnation counter) shifted past a process-local
serial, so they are strictly monotonic within an epoch and any token
minted under a later epoch dominates every earlier one — the property
fencing needs: a revoked holder's token is always below the floor the
revoker installs.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Fencing tokens are ``((epoch + 1) << SHIFT) | serial``: the token
#: epoch occupies the high bits so a regeneration trumps every token of
#: the previous incarnation, and the low-bit serial keeps tokens of the
#: same epoch strictly increasing.
FENCING_EPOCH_SHIFT = 32

_fence_serial = itertools.count(1)


def mint_fencing_token(epoch: int) -> int:
    """Mint a fresh fencing token under token incarnation *epoch*."""

    return ((int(epoch) + 1) << FENCING_EPOCH_SHIFT) | next(_fence_serial)


def fencing_epoch(token: int) -> int:
    """Recover the token epoch a fencing token was minted under."""

    return (int(token) >> FENCING_EPOCH_SHIFT) - 1


@dataclasses.dataclass(frozen=True)
class LeaseConfig:
    """Timing policy for leases.

    ``duration`` is how long a lease lives past its last renewal; a
    holder that cannot reach a quorum for ``duration`` must consider its
    own leases void (self-fencing).  Peers wait an extra
    ``revoke_margin`` before revoking, so the holder always fences itself
    strictly before anyone revokes on its behalf — that ordering is what
    keeps the forced release Rule-1 safe without synchronized clocks.
    """

    duration: float = 6.0
    revoke_margin: float = 1.5

    @property
    def session_ttl(self) -> float:
        """How long a session survives without activity (reclaim window)."""

        return self.duration + self.revoke_margin


@dataclasses.dataclass
class Lease:
    """One node's leased hold on one lock."""

    lock: str
    mode: str
    holder: int
    token: int
    deadline: float
    renewals: int = 0
    grants: int = 0

    def active(self, now: float) -> bool:
        """True while the deadline has not passed."""

        return now < self.deadline

    def expired(self, now: float, margin: float = 0.0) -> bool:
        """True once *now* is past the deadline plus *margin*."""

        return now >= self.deadline + margin

    def to_payload(self) -> List[object]:
        """JSON-safe representation (heartbeats, WAL, health snapshots)."""

        return [self.lock, self.mode, int(self.holder), int(self.token)]


class LeaseTable:
    """Leases keyed by ``(lock, holder)``.

    One table instance tracks either a node's *own* leases (holder ==
    the node, renewed implicitly while it can reach a quorum) or its
    mirror of *remote* leases learned from peer heartbeats.  All
    mutators take an explicit ``now``; nothing here reads a clock.
    """

    def __init__(self, config: Optional[LeaseConfig] = None) -> None:
        self.config = config or LeaseConfig()
        self._leases: Dict[Tuple[str, int], Lease] = {}
        #: Index of :attr:`_leases` by holder: the locks each holder has a
        #: lease on, never empty.  ``_leases`` stays the one store (and so
        #: sets every iteration order); this only spares a heartbeat's
        #: mirror from scanning every holder's leases.
        self._by_holder: Dict[int, Set[str]] = {}
        self.renewals = 0
        self.revoked = 0

    def __len__(self) -> int:
        return len(self._leases)

    def get(self, lock: str, holder: int) -> Optional[Lease]:
        """Return the lease *holder* has on *lock*, if any."""

        return self._leases.get((lock, holder))

    def mirrors(self, holder: int) -> bool:
        """Whether the table has any lease of *holder*."""

        return holder in self._by_holder

    def grant(
        self, lock: str, mode: str, holder: int, token: int, now: float
    ) -> Lease:
        """Record a (re-)granted hold; refreshes an existing lease.

        A repeat grant on an already-leased lock keeps the strongest
        claim alive under the *newest* fencing token and pushes the
        deadline forward (never backwards).
        """

        key = (lock, holder)
        existing = self._leases.get(key)
        deadline = now + self.config.duration
        if existing is not None:
            existing.mode = mode
            existing.token = max(existing.token, int(token))
            existing.deadline = max(existing.deadline, deadline)
            existing.grants += 1
            return existing
        lease = Lease(
            lock=lock,
            mode=mode,
            holder=holder,
            token=int(token),
            deadline=deadline,
            grants=1,
        )
        self._leases[key] = lease
        self._by_holder.setdefault(holder, set()).add(lock)
        return lease

    def renew(self, lock: str, holder: int, now: float) -> Optional[Lease]:
        """Extend a lease to ``now + duration`` (monotonic: never shrinks).

        A renewal stamped with an *earlier* clock (skew, frozen clock)
        therefore cannot shorten the lease; it is simply a no-op.
        """

        lease = self._leases.get((lock, holder))
        if lease is None:
            return None
        deadline = now + self.config.duration
        if deadline > lease.deadline:
            lease.deadline = deadline
        lease.renewals += 1
        self.renewals += 1
        return lease

    def observe(
        self, holder: int, advertised: Iterable[Iterable[object]], now: float
    ) -> int:
        """Mirror *holder*'s advertised lease set (heartbeat piggyback).

        Advertised entries are ``[lock, mode, holder, token]`` payloads.
        Entries the holder no longer advertises are dropped — a released
        hold must not linger and later trigger a spurious revocation of a
        *re-acquired* hold.  Returns the number of renewals applied.
        """

        seen = set()
        applied = 0
        for entry in advertised:
            lock, mode, _holder, token = entry
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
        # Every lock in *seen* now has a lease of *holder*; the rest of
        # what the index lists for it was withdrawn.
        for lock in self._by_holder.pop(holder, set()) - seen:
            del self._leases[(lock, holder)]
        if seen:
            self._by_holder[holder] = seen
        return applied

    def drop(self, lock: str, holder: int) -> Optional[Lease]:
        """Remove and return the lease *holder* had on *lock*."""

        lease = self._leases.pop((lock, holder), None)
        if lease is not None:
            locks = self._by_holder[holder]
            locks.discard(lock)
            if not locks:
                del self._by_holder[holder]
        return lease

    def drop_holder(self, holder: int) -> List[Lease]:
        """Remove every lease of *holder* (restart, fence), in lock order."""

        return [
            self._leases.pop((lock, holder))
            for lock in sorted(self._by_holder.pop(holder, ()))
        ]

    def clear(self) -> None:
        """Forget every lease (self-fence)."""

        self._leases.clear()
        self._by_holder.clear()

    def leases(self) -> List[Lease]:
        """Every lease, expired or not, in deterministic key order."""

        return [lease for _, lease in sorted(self._leases.items())]

    def active(self, now: float) -> List[Lease]:
        """Every lease whose deadline has not passed."""

        return [l for l in self._leases.values() if l.active(now)]

    def holder_active(self, lock: str, holder: int, now: float) -> bool:
        """True iff *holder* has an unexpired lease on *lock*.

        "Unexpired" includes the revoke margin: until the margin passes
        the holder's forced self-fence may still be pending, so its hold
        must keep pinning the copyset.
        """

        lease = self._leases.get((lock, holder))
        return lease is not None and not lease.expired(
            now, self.config.revoke_margin
        )

    def expired(self, now: float) -> List[Lease]:
        """Leases past deadline + revoke margin (ripe for revocation)."""

        return [
            l
            for l in self._leases.values()
            if l.expired(now, self.config.revoke_margin)
        ]

    def export(self) -> Tuple[Tuple[object, ...], ...]:
        """JSON-safe payload of every lease (deterministic order)."""

        return tuple(
            tuple(lease.to_payload())
            for _, lease in sorted(self._leases.items())
        )
