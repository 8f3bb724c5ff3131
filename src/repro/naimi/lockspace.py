"""Per-node multiplexer for many Naimi-Tréhel locks.

The *same-work* comparison in the paper's evaluation runs one Naimi token
per table entry, so a node participates in many independent instances of
the protocol.  ``NaimiLockSpace`` mirrors
:class:`repro.core.lockspace.LockSpace` for the baseline.
"""

from __future__ import annotations

from ..core.contract import AutomatonSpace, noop_listener
from ..core.lockspace import TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId
from .automaton import NaimiAutomaton, NaimiGrantListener


class NaimiLockSpace(AutomatonSpace):
    """All Naimi automata hosted by one node, keyed by lock id."""

    def __init__(
        self,
        node_id: NodeId,
        token_home: TokenHomeFn = default_token_home,
        listener: NaimiGrantListener = noop_listener,
    ) -> None:
        super().__init__(node_id, listener)
        self._token_home = token_home

    def _new_automaton(self, lock_id: LockId) -> NaimiAutomaton:
        home = self._token_home(lock_id)
        return NaimiAutomaton(
            node_id=self._node_id,
            lock_id=lock_id,
            last=None if home == self._node_id else home,
            listener=self._listener,
        )
