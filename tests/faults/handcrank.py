"""A hand-cranked scheduler and an on-demand fabric, for driving
:class:`~repro.faults.recovery.RecoveryManager` objects directly.

No simulator, no latency model, no randomness: time moves only when a
test calls :meth:`HandScheduler.advance`, and a message moves only when
it calls :meth:`Fabric.deliver` — so a test can stand at any instant
between two timers and hold any message back.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.automaton import ProtocolOptions
from repro.core.lockspace import LockSpace
from repro.core.messages import Envelope, Message, NodeId
from repro.faults.messages import ReparentMessage
from repro.faults.recovery import RecoveryConfig, RecoveryManager


class HandScheduler:
    """``now``/``call_later`` over a heap the test drains itself."""

    def __init__(self) -> None:
        self.time = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self.time

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (self.time + delay, next(self._seq), fn))

    def advance(self, until: float) -> None:
        """Run every callback due by *until*, in order, then stand there."""

        while self._heap and self._heap[0][0] <= until:
            self.time, _seq, fn = heapq.heappop(self._heap)
            fn()
        self.time = until


class Fabric:
    """Node id → manager, with every sent message parked until asked for."""

    def __init__(self) -> None:
        self.managers: Dict[NodeId, RecoveryManager] = {}
        #: ``(sender, dest, message)`` in send order, not yet delivered.
        self.parked: List[Tuple[NodeId, NodeId, Message]] = []
        #: Everything ever sent, delivered or not.
        self.log: List[Tuple[NodeId, NodeId, Message]] = []

    def sender(self, node: NodeId) -> Callable[[List[Envelope]], None]:
        """The fabric's ``send`` with *node* bound as the sender."""

        def send(envelopes: List[Envelope]) -> None:
            for envelope in envelopes:
                entry = (node, envelope.dest, envelope.message)
                self.parked.append(entry)
                self.log.append(entry)

        return send

    def sent(
        self, kind: type, sender: Optional[NodeId] = None
    ) -> List[Message]:
        """Logged messages of *kind* (from *sender*), in send order."""

        return [
            message
            for origin, _dest, message in self.log
            if isinstance(message, kind)
            and (sender is None or origin == sender)
        ]

    def dests(self, kind: type) -> List[NodeId]:
        """Where every logged message of *kind* was sent, sorted."""

        return sorted(d for _s, d, m in self.log if isinstance(m, kind))

    def claims(self, node: NodeId) -> set:
        """Epochs *node* has announced the token at itself under."""

        return {
            m.epoch
            for m in self.sent(ReparentMessage, sender=node)
            if m.parent == node
        }

    @staticmethod
    def _match(kinds, only_to, only_from):
        return lambda entry: (
            (not kinds or isinstance(entry[2], kinds))
            and (only_to is None or entry[1] == only_to)
            and (only_from is None or entry[0] == only_from)
        )

    def deliver(
        self,
        *kinds: type,
        only_to: Optional[NodeId] = None,
        only_from: Optional[NodeId] = None,
    ) -> int:
        """Deliver the parked messages that match until none is left,
        replies included; everything else stays parked."""

        match = self._match(kinds, only_to, only_from)
        return self.deliver_all(lambda entry: not match(entry))

    def deliver_all(
        self, hold: Callable[[Tuple[NodeId, NodeId, Message]], bool]
    ) -> int:
        """Deliver every parked ``(sender, dest, message)`` that *hold*
        does not keep back, replies included."""

        delivered = 0
        while True:
            batch = [entry for entry in self.parked if not hold(entry)]
            if not batch:
                return delivered
            for entry in batch:
                self.parked.remove(entry)
                if entry[1] in self.managers:
                    self.managers[entry[1]].handle(entry[2])
                    delivered += 1

    def drop(
        self,
        *kinds: type,
        only_to: Optional[NodeId] = None,
        only_from: Optional[NodeId] = None,
    ) -> None:
        """Lose the parked messages that match."""

        match = self._match(kinds, only_to, only_from)
        self.parked = [entry for entry in self.parked if not match(entry)]


def build(
    nodes: int,
    config: RecoveryConfig = RecoveryConfig(),
    grants: Optional[list] = None,
    leased: bool = False,
) -> Tuple[HandScheduler, Fabric]:
    """*nodes* started managers (token home: node 0) on one fabric."""

    scheduler, fabric = HandScheduler(), Fabric()
    for node in range(nodes):
        add_manager(
            scheduler, fabric, node, list(range(nodes)), config, grants, leased
        )
    return scheduler, fabric


def add_manager(
    scheduler: HandScheduler,
    fabric: Fabric,
    node: NodeId,
    members: List[NodeId],
    config: RecoveryConfig = RecoveryConfig(),
    grants: Optional[list] = None,
    leased: bool = False,
    boot: int = 0,
    start: bool = True,
) -> RecoveryManager:
    """Boot *node* the way a host does; with *leased*, every grant is
    leased (what the simulator binding's grant listener does)."""

    def listener(lock_id, mode, ctx) -> None:
        if grants is not None:
            grants.append((node, lock_id, mode))
        if leased:
            fabric.managers[node].leases.note_grant(lock_id, mode)

    lockspace = LockSpace(
        node_id=node,
        token_home=lambda lock_id: 0,
        listener=listener,
        options=ProtocolOptions(recovery=True),
    )
    manager = RecoveryManager(
        node, lockspace, members, scheduler, fabric.sender(node), config,
        boot=boot,
    )
    fabric.managers[node] = manager
    if start:
        manager.start()
    return manager
