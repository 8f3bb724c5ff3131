"""Runtime safety monitors for the locking protocols.

These monitors observe grant/release events as they happen (they plug into
the simulated and threaded clusters) and raise
:class:`~repro.errors.InvariantViolation` the instant a safety property
breaks — the ground truth behind the paper's correctness argument:

* :class:`CompatibilityMonitor` — at every instant, the multiset of modes
  held across all nodes on one lock is pairwise compatible (the
  generalized mutual exclusion property of Rule 1-4).  It also checks
  the single-token baselines: their clusters report every grant as
  ``W``, which conflicts with every hold, the same node's included.
* :class:`FifoObserver` — records grant order vs. request order so tests
  can quantify FIFO fairness (and demonstrate starvation when freezing is
  disabled in the ablation).
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from typing import Dict, List, Mapping, Tuple

from ..core.messages import LockId, NodeId
from ..core.modes import LockMode, compatible
from ..errors import InvariantViolation


class Monitor:
    """Interface implemented by every grant/release observer."""

    def on_request(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        """A node just issued a request for *lock_id* in *mode*."""

    def on_grant(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        """A node just acquired *lock_id* in *mode*."""

    def on_release(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        """A node just released one hold of *mode* on *lock_id*."""

    def on_crash(self, time: float, node: NodeId) -> None:
        """*node* crashed (fault injection): its holds vanish with it.

        Crash-induced hold disappearance is not a protocol violation, so
        monitors must forget the node's state rather than flag the holds
        as leaked at end of run.
        """

    def on_forced_release(
        self, time: float, node: NodeId, lock_id: LockId
    ) -> None:
        """*node*'s holds on *lock_id* were revoked by the lease layer.

        A lease expiry (self-fence on the holder, revocation on its
        peers) force-releases holds without the application calling
        ``release``.  Several peers revoke the same lease independently,
        and the holder may have released just before its peers revoked,
        so — unlike :meth:`on_release` — this must be idempotent: forget
        whatever holds remain, raise on nothing.
        """


class CompatibilityMonitor(Monitor):
    """Asserts pairwise compatibility of all concurrent holds per lock."""

    def __init__(self) -> None:
        self._holds: Dict[LockId, Counter] = defaultdict(Counter)
        self.max_concurrency: Dict[LockId, int] = defaultdict(int)
        self.grants = 0

    def on_grant(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        holds = self._holds[lock_id]
        for (held_node, held_mode), count in holds.items():
            if count <= 0:
                continue
            if not compatible(held_mode, mode):
                raise InvariantViolation(
                    f"t={time:.3f}: node {node} granted {mode} on "
                    f"{lock_id!r} while node {held_node} holds "
                    f"incompatible {held_mode}"
                )
        holds[(node, mode)] += 1
        self.grants += 1
        concurrency = sum(holds.values())
        if concurrency > self.max_concurrency[lock_id]:
            self.max_concurrency[lock_id] = concurrency

    def on_release(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        holds = self._holds[lock_id]
        if holds[(node, mode)] <= 0:
            raise InvariantViolation(
                f"t={time:.3f}: node {node} released {mode} on {lock_id!r} "
                "without holding it"
            )
        holds[(node, mode)] -= 1
        if holds[(node, mode)] == 0:
            del holds[(node, mode)]

    def on_crash(self, time: float, node: NodeId) -> None:
        for holds in self._holds.values():
            for key in [k for k in holds if k[0] == node]:
                del holds[key]

    def on_forced_release(
        self, time: float, node: NodeId, lock_id: LockId
    ) -> None:
        holds = self._holds[lock_id]
        for key in [k for k in holds if k[0] == node]:
            del holds[key]

    def current_holds(self, lock_id: LockId) -> List[Tuple[NodeId, LockMode]]:
        """Return the live (node, mode) holds of *lock_id*."""

        return [key for key, count in self._holds[lock_id].items() if count > 0]

    def assert_all_released(self) -> None:
        """Raise unless every hold has been released (end-of-run check)."""

        for lock_id, holds in self._holds.items():
            live = [key for key, count in holds.items() if count > 0]
            if live:
                raise InvariantViolation(
                    f"run ended with live holds on {lock_id!r}: {live}"
                )


@dataclasses.dataclass(frozen=True)
class GrantEvent:
    """One observed grant, used for fairness analysis."""

    time: float
    node: NodeId
    lock_id: LockId
    mode: LockMode


class FifoObserver(Monitor):
    """Records the grant sequence per lock for fairness analysis.

    The protocol's FIFO guarantee (Rules 4-6) is about *incompatible*
    requests: a request never waits forever behind a stream of later,
    compatible requests.  Tests use :meth:`longest_wait` and the grant log
    to quantify this, and the freezing ablation uses it to demonstrate
    starvation once Rule 6 is disabled.
    """

    def __init__(self) -> None:
        self.grant_log: Dict[LockId, List[GrantEvent]] = defaultdict(list)

    def on_grant(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        self.grant_log[lock_id].append(
            GrantEvent(time=time, node=node, lock_id=lock_id, mode=mode)
        )

    def grants_for(self, lock_id: LockId) -> List[GrantEvent]:
        """Return the grant sequence observed on *lock_id*."""

        return list(self.grant_log[lock_id])


class MonitorSet(Monitor):
    """Fans grant/release events out to several monitors."""

    def __init__(self, monitors: List[Monitor]) -> None:
        self.monitors = list(monitors)

    def on_request(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        for monitor in self.monitors:
            monitor.on_request(time, node, lock_id, mode)

    def on_grant(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        for monitor in self.monitors:
            monitor.on_grant(time, node, lock_id, mode)

    def on_release(
        self, time: float, node: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        for monitor in self.monitors:
            monitor.on_release(time, node, lock_id, mode)

    def on_crash(self, time: float, node: NodeId) -> None:
        for monitor in self.monitors:
            monitor.on_crash(time, node)

    def on_forced_release(
        self, time: float, node: NodeId, lock_id: LockId
    ) -> None:
        for monitor in self.monitors:
            monitor.on_forced_release(time, node, lock_id)


# ---------------------------------------------------------------------------
# Quiescent invariants: what must hold of one lock once the network has
# drained.  One body per protocol family; the simulated clusters'
# ``assert_quiescent_invariants()`` and the exhaustive explorer's terminal
# check both call these.
# ---------------------------------------------------------------------------


def quiescent_hierarchical(
    lock_id: LockId, automata: Mapping[NodeId, object]
) -> None:
    """Raise unless *automata* — every node's automaton of *lock_id* —
    form a settled copyset tree.

    Exactly one token node; no pending request and no queued entry
    anywhere; parent/child records mutually consistent, each recorded
    child mode equal to the child's actual owned mode; no copyset entry
    left once nothing is held anywhere; and nothing frozen at the token
    node, whose frozen set is a function of its (empty) queue.

    A frozen set elsewhere is *not* checked.  Freezes travel down the
    copyset tree only, so a node that detached while a mode was frozen is
    never told of the unfreeze: it keeps a stale set while it owns
    nothing, which is harmless — it can grant nothing without a copy, and
    its next grant or token carries the set then in force, which
    overwrites the stale one.
    """

    tokens = [n for n, a in automata.items() if a.has_token]
    if len(tokens) != 1:
        raise InvariantViolation(
            f"lock {lock_id!r}: {len(tokens)} token nodes ({tokens})"
        )
    frozen = automata[tokens[0]].frozen_modes
    if frozen:
        raise InvariantViolation(
            f"lock {lock_id!r}: token node {tokens[0]} still freezes "
            f"{sorted(map(str, frozen))} at quiescence"
        )
    held = any(a.held_modes for a in automata.values())
    for node_id, automaton in automata.items():
        if automaton.pending_mode is not LockMode.NONE:
            raise InvariantViolation(
                f"lock {lock_id!r}: node {node_id} still pending "
                f"{automaton.pending_mode} at quiescence"
            )
        if automaton.queue_length:
            raise InvariantViolation(
                f"lock {lock_id!r}: node {node_id} still queues "
                f"{automaton.queue_length} requests at quiescence"
            )
        children = automaton.children
        if children and not held:
            raise InvariantViolation(
                f"lock {lock_id!r}: node {node_id} keeps copyset "
                f"{sorted(children)} although nothing is held anywhere"
            )
        for child, recorded in children.items():
            actual = automata[child].owned_mode()
            if actual is not recorded:
                raise InvariantViolation(
                    f"lock {lock_id!r}: node {node_id} records child "
                    f"{child} as {recorded} but it owns {actual}"
                )
            if automata[child].parent != node_id:
                raise InvariantViolation(
                    f"lock {lock_id!r}: child {child} of {node_id} "
                    f"points at parent {automata[child].parent}"
                )


def quiescent_exclusive(
    lock_id: LockId, automata: Mapping[NodeId, object], token: str = "token"
) -> None:
    """Raise unless exactly one of *automata* holds the *token* (what the
    protocol calls it: ``has_<token>``) and every one of them is idle."""

    holders = [n for n, a in automata.items() if getattr(a, f"has_{token}")]
    if len(holders) != 1:
        raise InvariantViolation(
            f"lock {lock_id!r}: {len(holders)} {token} holders ({holders})"
        )
    stuck = [n for n, a in automata.items() if not a.is_idle()]
    if stuck:
        raise InvariantViolation(
            f"lock {lock_id!r}: nodes {stuck} not idle at quiescence"
        )
