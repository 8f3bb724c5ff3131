"""Per-node multiplexer for many named locks.

A distributed system shares many lock objects (in the paper's evaluation:
one lock per table entry plus one for the whole table).  Each node hosts a
:class:`LockSpace` that owns one :class:`HierarchicalLockAutomaton` per
lock, a single shared Lamport clock, and routes incoming messages to the
right automaton by ``lock_id``.

Lock automata are created lazily and deterministically: for every lock,
node ``token_home(lock_id)`` starts as the token node and every other node
starts with its parent pointing straight at it (a star, the paper's
"initially the root is the token owner" configuration).  The token home
placement is configurable so experiments can co-locate or spread locks.
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import ConfigurationError
from .automaton import (
    FULL_PROTOCOL,
    GrantListener,
    HierarchicalLockAutomaton,
    ProtocolOptions,
)
from .contract import AutomatonSpace, noop_listener
from .messages import Envelope, LockId, NodeId
from .modes import LockMode

#: Maps a lock id to the node that initially holds its token.
TokenHomeFn = Callable[[LockId], NodeId]


def default_token_home(lock_id: LockId) -> NodeId:
    """Default placement: every token starts at node 0."""

    return 0


def hashed_token_home(num_nodes: int) -> TokenHomeFn:
    """Placement that spreads initial tokens across nodes by lock name.

    Uses a deterministic (non-salted) string hash so that runs are
    reproducible across processes.
    """

    if num_nodes <= 0:
        raise ConfigurationError("num_nodes must be positive")

    def _home(lock_id: LockId) -> NodeId:
        digest = 0
        for char in lock_id:
            digest = (digest * 131 + ord(char)) % 1_000_000_007
        return digest % num_nodes

    return _home


class LockSpace(AutomatonSpace):
    """All hierarchical-lock automata hosted by one node.

    Parameters
    ----------
    node_id:
        This node's identity.
    token_home:
        Function from lock id to the node initially holding that lock's
        token.
    listener:
        Grant listener shared by every automaton of this node.
    """

    def __init__(
        self,
        node_id: NodeId,
        token_home: TokenHomeFn = default_token_home,
        listener: GrantListener = noop_listener,
        options: ProtocolOptions = FULL_PROTOCOL,
    ) -> None:
        super().__init__(node_id, listener)
        self._token_home = token_home
        self._options = options

    def _new_automaton(self, lock_id: LockId) -> HierarchicalLockAutomaton:
        home = self._token_home(lock_id)
        return HierarchicalLockAutomaton(
            node_id=self._node_id,
            lock_id=lock_id,
            clock=self._clock,
            parent=None if home == self._node_id else home,
            has_token=home == self._node_id,
            listener=self._listener,
            options=self._options,
        )

    # ------------------------------------------------------------------
    # Application API (thin pass-throughs keyed by lock id).
    # ------------------------------------------------------------------

    def request(
        self,
        lock_id: LockId,
        mode: LockMode,
        ctx: object = None,
        priority: int = 0,
    ) -> List[Envelope]:
        """Request *lock_id* in *mode*; returns messages to transmit."""

        return self.automaton(lock_id).request(mode, ctx, priority)

    def release(self, lock_id: LockId, mode: LockMode) -> List[Envelope]:
        """Release one hold of *mode* on *lock_id*."""

        return self.automaton(lock_id).release(mode)

    def upgrade(self, lock_id: LockId, ctx: object = None) -> List[Envelope]:
        """Upgrade a held ``U`` lock on *lock_id* to ``W``."""

        return self.automaton(lock_id).upgrade(ctx)
