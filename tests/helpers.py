"""Shared test utilities: a synchronous message pump for automata.

The pump drives a set of transport-agnostic automata with instant,
per-pair-FIFO delivery — protocol unit tests exercise exact message
exchanges without the simulator, and can also hold messages back to build
specific race interleavings.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.automaton import (
    FULL_PROTOCOL,
    HierarchicalLockAutomaton,
    ProtocolOptions,
)
from repro.core.clock import LamportClock
from repro.core.messages import Envelope, NodeId
from repro.core.modes import LockMode

LOCK = "L"


class Pump:
    """Synchronous delivery fabric for a set of hierarchical automata."""

    def __init__(
        self,
        num_nodes: int,
        token_node: NodeId = 0,
        options: ProtocolOptions = FULL_PROTOCOL,
        lock_id: str = LOCK,
        parents: Optional[Dict[NodeId, NodeId]] = None,
    ) -> None:
        self.lock_id = lock_id
        self.grants: List[Tuple[NodeId, LockMode, object]] = []
        self.automata: Dict[NodeId, HierarchicalLockAutomaton] = {}
        self.queue: Deque[Tuple[NodeId, Envelope]] = deque()
        parents = parents or {}
        for node in range(num_nodes):
            parent = parents.get(node, token_node)
            self.automata[node] = HierarchicalLockAutomaton(
                node_id=node,
                lock_id=lock_id,
                clock=LamportClock(),
                parent=None if node == token_node else parent,
                has_token=node == token_node,
                listener=self._listener(node),
                options=options,
            )

    def _listener(self, node: NodeId):
        def listener(lock_id, mode, ctx):
            self.grants.append((node, mode, ctx))

        return listener

    # -- driving ----------------------------------------------------------

    def request(self, node: NodeId, mode: LockMode, ctx: object = None) -> None:
        """Issue a request and deliver all resulting traffic."""

        self.send(node, self.automata[node].request(mode, ctx))
        self.drain()

    def release(self, node: NodeId, mode: LockMode) -> None:
        """Release a hold and deliver all resulting traffic."""

        self.send(node, self.automata[node].release(mode))
        self.drain()

    def upgrade(self, node: NodeId, ctx: object = None) -> None:
        """Issue a U→W upgrade and deliver all resulting traffic."""

        self.send(node, self.automata[node].upgrade(ctx))
        self.drain()

    def send(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Enqueue envelopes without delivering them yet."""

        for envelope in envelopes:
            self.queue.append((sender, envelope))

    def step(self) -> bool:
        """Deliver exactly one message; False when nothing is queued."""

        if not self.queue:
            return False
        sender, envelope = self.queue.popleft()
        replies = self.automata[envelope.dest].handle(envelope.message)
        self.send(envelope.dest, replies)
        return True

    def drain(self, limit: int = 10_000) -> None:
        """Deliver until quiescent (bounded, to catch livelock)."""

        steps = 0
        while self.step():
            steps += 1
            assert steps < limit, "message livelock in pump"

    # -- assertions --------------------------------------------------------

    def granted_modes(self, node: NodeId) -> List[LockMode]:
        """Modes granted to *node*, in grant order."""

        return [mode for n, mode, _ctx in self.grants if n == node]

    def token_holder(self) -> NodeId:
        """The unique token node (asserts uniqueness)."""

        holders = [n for n, a in self.automata.items() if a.has_token]
        assert len(holders) == 1, f"token holders: {holders}"
        return holders[0]

    def assert_quiescent_tree(self) -> None:
        """Nothing in flight, and the lock's quiescent invariants hold."""

        # Imported here: the census (tests/verification/census.py) loads
        # this module against older trees, which lack the function.
        from repro.verification.invariants import quiescent_hierarchical

        assert not self.queue
        quiescent_hierarchical(self.lock_id, self.automata)
