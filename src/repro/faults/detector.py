"""Heartbeat-based failure detection.

A node beats each peer at least once every few ``heartbeat_interval``
ticks — every tick to a peer that depends on it — and each beat
*declares its gap*: how many ticks until the sender's next beat to this
receiver.  A peer silent for ``suspect_timeout`` plus ``gap - 1``
intervals, the gap the recovery manager holds it to, becomes
*suspected*, so every gap keeps the margin a beat per tick had.  The
detector is timeout-based and therefore only eventually accurate: a
slow or partitioned peer can be suspected while alive (the classic
trade-off; see docs/FAULTS.md for what the recovery layer does — and
refuses to do — about that).

The detector itself is a passive table: the recovery manager feeds it
``beat()`` on *any* inbound traffic from a peer (heartbeats merely
guarantee a minimum rate), ``promise()`` with the gap each peer is
held to, and polls ``check()`` from its periodic timer.
Suspicion is reversible — traffic from a suspected peer un-suspects it,
which is what lets a falsely-accused node rejoin quietly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..core.messages import NodeId


class HeartbeatDetector:
    """Tracks last-heard times for a peer set.

    The set is fixed between membership changes; view installs call
    :meth:`add_peer` / :meth:`forget` to keep it aligned with the
    current view (see :mod:`repro.membership`).
    """

    def __init__(
        self,
        peers: Iterable[NodeId],
        timeout: float,
        now: float = 0.0,
        interval: float = 0.0,
        gap: int = 1,
    ) -> None:
        #: Initializing ``last_seen`` to creation time grants every peer
        #: one full timeout of grace before it can be suspected.
        self._last_seen: Dict[NodeId, float] = {p: now for p in peers}
        self._timeout = timeout
        #: The beat period a declared gap counts in.
        self._interval = interval
        #: The gap assumed of a peer until it promises another.
        self._gap = gap
        #: The gap each peer is held to, where not the one assumed.
        self._gaps: Dict[NodeId, int] = {}
        self._suspected: Set[NodeId] = set()

    def beat(self, peer: NodeId, now: float) -> bool:
        """Record life from *peer* at *now*; returns True iff it was
        un-suspected.  A later time already recorded stands: a kept
        heartbeat may be folded after newer traffic was noted."""

        seen = self._last_seen.get(peer)
        if seen is None:
            return False  # Not a tracked peer (e.g. ourselves).
        if now > seen:
            self._last_seen[peer] = now
        if peer in self._suspected:
            self._suspected.discard(peer)
            return True
        return False

    def promise(self, peer: NodeId, gap: int) -> None:
        """Hold *peer* to a next beat within *gap* heartbeat intervals:
        tolerate that much more silence."""

        if gap == self._gap:
            self._gaps.pop(peer, None)
        else:
            self._gaps[peer] = gap

    def gap(self, peer: NodeId) -> int:
        """The gap *peer* is held to (the assumed one until promised)."""

        return self._gaps.get(peer, self._gap)

    def tolerance(self, peer: NodeId) -> float:
        """The silence after which *peer* becomes suspected."""

        return self._timeout + (self.gap(peer) - 1) * self._interval

    def add_peer(self, peer: NodeId, now: float) -> None:
        """Start tracking *peer* (a view join), with a fresh grace window.

        Idempotent: re-adding a tracked peer neither resets its last-seen
        time nor clears a standing suspicion.
        """

        if peer not in self._last_seen:
            self._last_seen[peer] = now

    def forget(self, peer: NodeId) -> None:
        """Stop tracking *peer* (a view removal).  Idempotent."""

        self._last_seen.pop(peer, None)
        self._gaps.pop(peer, None)
        self._suspected.discard(peer)

    def check(self, now: float) -> List[NodeId]:
        """Advance to *now*; returns peers that just became suspected."""

        fresh, timeout = [], self._timeout
        for peer, seen in self._last_seen.items():
            if now - seen >= timeout and peer not in self._suspected:
                if now - seen >= self.tolerance(peer):
                    fresh.append(peer)
        self._suspected.update(fresh)
        return sorted(fresh)

    def is_suspected(self, peer: NodeId) -> bool:
        """Current verdict for *peer*."""

        return peer in self._suspected

    @property
    def suspected(self) -> Set[NodeId]:
        """Snapshot of all currently suspected peers."""

        return set(self._suspected)

    def live_peers(self) -> List[NodeId]:
        """Tracked peers not currently suspected, ascending."""

        return sorted(p for p in self._last_seen if p not in self._suspected)

    def last_seen(self, peer: NodeId) -> float:
        """When *peer* was last heard from (creation time if never).

        Used by the lease layer's quorum-contact check: a node that has
        heard from no majority for a full lease duration must assume its
        own leases expired and self-fence (see docs/FAULTS.md §4).
        """

        return self._last_seen.get(peer, 0.0)
