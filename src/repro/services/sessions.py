"""Application sessions: hold ownership that survives the process.

The CORBA concurrency service hands out locks to *clients*, not to
transport endpoints; a client that reconnects (or a node that restarts
with its journal) is the same application session and keeps its holds.
This module supplies that identity layer for the reproduction: a
:class:`SessionManager` per node records which session owns which holds,
rides the durability journal across crashes (under the reserved
``"@sessions"`` journal key), and implements the ``reclaim`` callback of
``Custody.rejoin_from_journal`` — a *surviving* session
re-asserts its holds under a fresh lease instead of being disowned,
while an *expired* session's holds are released and the session is
garbage-collected by the lease layer.

A session survives a restart iff the downtime stayed within the lease
reclaim window (``LeaseConfig.session_ttl``): past that, peers may
already have revoked the session's leases and granted conflicting
modes, so reclaiming would risk a Rule-1 violation — the session is
expired instead.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

#: Reserved journal key the session payload is recorded under; popped
#: out of the recovered state before per-lock rejoin.
SESSIONS_JOURNAL_KEY = "@sessions"

ACTIVE = "active"
EXPIRED = "expired"


@dataclasses.dataclass
class Session:
    """One application session and the holds it owns."""

    session_id: str
    node: int
    state: str = ACTIVE
    #: Multiset of owned holds: ``(lock, mode-str) -> count``.
    holds: Dict[Tuple[str, str], int] = dataclasses.field(default_factory=dict)
    #: Of :attr:`holds`, how many were covered by at least one heartbeat
    #: lease advertisement.  Only advertised holds are reclaimable after
    #: a restart: a hold whose lease no peer ever saw pins nothing out
    #: there — peers may have evicted and re-granted over it, so
    #: re-asserting it would risk a Rule-1 violation.
    advertised: Dict[Tuple[str, str], int] = dataclasses.field(
        default_factory=dict
    )
    last_active: float = 0.0

    @property
    def hold_count(self) -> int:
        return sum(self.holds.values())

    def note_grant(self, lock: str, mode: str, now: float) -> None:
        key = (lock, str(mode))
        self.holds[key] = self.holds.get(key, 0) + 1
        self.last_active = max(self.last_active, now)

    def note_release(self, lock: str, mode: str, now: float) -> None:
        key = (lock, str(mode))
        count = self.holds.get(key, 0)
        if count <= 1:
            self.holds.pop(key, None)
        else:
            self.holds[key] = count - 1
        remaining = self.holds.get(key, 0)
        if self.advertised.get(key, 0) > remaining:
            if remaining:
                self.advertised[key] = remaining
            else:
                self.advertised.pop(key, None)
        self.last_active = max(self.last_active, now)

    def note_advertised(self, lock: str) -> bool:
        """A heartbeat carried *lock*'s lease: its holds are now pinned
        by peers until expiry.  Returns True when anything changed (the
        caller re-journals the session payload only then)."""

        changed = False
        for (held_lock, mode), count in self.holds.items():
            if held_lock != lock:
                continue
            key = (held_lock, mode)
            if self.advertised.get(key, 0) != count:
                self.advertised[key] = count
                changed = True
        return changed

    def expire(self) -> None:
        self.state = EXPIRED
        self.holds.clear()
        self.advertised.clear()

    def surviving(self, now: float, ttl: float) -> bool:
        """True iff the session may still reclaim its holds at *now*."""

        return self.state == ACTIVE and (now - self.last_active) <= ttl

    def to_payload(self) -> Dict[str, object]:
        return {
            "id": self.session_id,
            "node": int(self.node),
            "state": self.state,
            "holds": sorted(
                [lock, mode, int(count)]
                for (lock, mode), count in self.holds.items()
            ),
            "advertised": sorted(
                [lock, mode, int(count)]
                for (lock, mode), count in self.advertised.items()
            ),
            "last_active": float(self.last_active),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Session":
        session = cls(
            session_id=str(payload.get("id", "")),
            node=int(payload.get("node", 0)),
            state=str(payload.get("state", ACTIVE)),
            last_active=float(payload.get("last_active", 0.0)),
        )
        for lock, mode, count in payload.get("holds", ()):
            session.holds[(str(lock), str(mode))] = int(count)
        for lock, mode, count in payload.get("advertised", ()):
            session.advertised[(str(lock), str(mode))] = int(count)
        return session


class SessionManager:
    """All application sessions hosted by one node.

    The chaos workload runs one implicit session per node (id
    ``s<node>``), but the layer supports many; ids are stable across
    restarts — that stability is what makes reclaim meaningful.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._sessions: Dict[str, Session] = {}
        #: Best peer fanout any advertisement of each lock's lease ever
        #: reached (``lock -> live peer count at heartbeat time``).  Rides
        #: the journal: after a crash-restart it tells the rejoin path
        #: whether the pre-crash advertisement reached a quorum, or only
        #: a minority that may itself be gone (see
        #: ``Custody.rejoin_from_journal``, PROTOCOL.md §14).
        self._advert_fanout: Dict[str, int] = {}
        self.gc_count = 0
        self.expired_count = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def default_session(self, now: float = 0.0) -> Session:
        """The node's implicit workload session (created on first use)."""

        return self.open(f"s{self.node_id}", now)

    def open(self, session_id: str, now: float = 0.0) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            session = Session(
                session_id=session_id, node=self.node_id, last_active=now
            )
            self._sessions[session_id] = session
        return session

    def get(self, session_id: str) -> Optional[Session]:
        return self._sessions.get(session_id)

    def sessions(self) -> List[Session]:
        return [self._sessions[k] for k in sorted(self._sessions)]

    def note_grant(self, lock: str, mode: str, now: float) -> None:
        self.default_session(now).note_grant(lock, mode, now)

    def note_release(self, lock: str, mode: str, now: float) -> None:
        self.default_session(now).note_release(lock, mode, now)

    def note_advertised(self, locks, fanout: Optional[int] = None) -> bool:
        """Mark holds on *locks* lease-advertised; True if any changed.

        *fanout* is how many live peers the carrying heartbeat fanned out
        to; the per-lock maximum is kept (and journaled) so a restart can
        judge whether its pre-crash advertisement reached a quorum.
        """

        changed = False
        for session in self._sessions.values():
            if session.state != ACTIVE:
                continue
            for lock in locks:
                changed |= session.note_advertised(str(lock))
        if fanout is not None:
            for lock in locks:
                key = str(lock)
                if fanout > self._advert_fanout.get(key, -1):
                    self._advert_fanout[key] = int(fanout)
                    changed = True
        return changed

    def advert_fanout(self, lock: str) -> Optional[int]:
        """Best advertisement fanout recorded for *lock* (None if never
        recorded — e.g. a pre-upgrade journal payload)."""

        return self._advert_fanout.get(str(lock))

    def expire_all(self) -> int:
        """Expire every active session (self-fence); returns the count."""

        expired = 0
        for session in self._sessions.values():
            if session.state == ACTIVE:
                session.expire()
                expired += 1
        self.expired_count += expired
        return expired

    def gc(self, now: float, ttl: float) -> int:
        """Drop expired sessions and age out silent ones; returns removed.

        An ACTIVE session with no holds that has been silent past *ttl*
        is expired first (its client is gone), then every EXPIRED
        session is removed.  Sessions still owning holds are never
        collected — their holds must be released or reclaimed first.
        """

        for session in self._sessions.values():
            if (
                session.state == ACTIVE
                and not session.holds
                and session.last_active > 0.0
                and (now - session.last_active) > ttl
            ):
                session.expire()
                self.expired_count += 1
        dead = [
            sid
            for sid, session in self._sessions.items()
            if session.state == EXPIRED and not session.holds
        ]
        for sid in dead:
            del self._sessions[sid]
        self.gc_count += len(dead)
        return len(dead)

    # -- durability ----------------------------------------------------

    def export(self) -> Dict[str, object]:
        """JSON-safe payload for the durability journal."""

        return {
            "v": 1,
            "node": int(self.node_id),
            "sessions": [s.to_payload() for s in self.sessions()],
            "advert_fanout": sorted(
                [lock, int(fanout)]
                for lock, fanout in self._advert_fanout.items()
            ),
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Replace the session set with a journaled *payload*."""

        self._sessions.clear()
        for entry in payload.get("sessions", ()):
            session = Session.from_payload(entry)
            self._sessions[session.session_id] = session
        self._advert_fanout = {
            str(lock): int(fanout)
            for lock, fanout in payload.get("advert_fanout", ())
        }

    def reclaimer(
        self, now: float, ttl: float
    ) -> Tuple[Callable[[str, object], bool], List[Session]]:
        """Build the ``reclaim`` callback for ``rejoin_from_journal``.

        Returns ``(reclaim, survivors)``.  The callback answers True for
        each restored ``(lock, mode)`` hold owned by a surviving session
        (consuming one unit of the session's multiset so counts stay
        exact); holds of expired sessions — or holds no session claims —
        answer False and are released by the rejoin path.  Sessions past
        the reclaim window are expired as a side effect.

        Only *advertised* holds are reclaimable: a lease at least one
        heartbeat carried is mirrored by peers, who then provably defer
        eviction and token regeneration until it expires — so a restart
        inside the reclaim window re-asserts into an unchanged cluster.
        A hold granted after the last pre-crash heartbeat pinned
        nothing; survivors may already have regenerated and granted a
        conflicting mode over it, so it is disowned like any other.
        """

        survivors: List[Session] = []
        budget: Dict[Tuple[str, str], int] = {}
        for session in self.sessions():
            if session.state != ACTIVE:
                continue
            if not session.surviving(now, ttl):
                session.expire()
                self.expired_count += 1
                continue
            survivors.append(session)
            for key, count in session.holds.items():
                usable = min(count, session.advertised.get(key, 0))
                if usable:
                    budget[key] = budget.get(key, 0) + usable

        def reclaim(lock: str, mode: object) -> bool:
            key = (str(lock), str(mode))
            remaining = budget.get(key, 0)
            if remaining <= 0:
                return False
            budget[key] = remaining - 1
            return True

        return reclaim, survivors
