"""Per-node multiplexer for Raymond locks over a static tree."""

from __future__ import annotations

from ..core.contract import AutomatonSpace, noop_listener
from ..core.messages import LockId, NodeId
from ..errors import ConfigurationError
from .automaton import RaymondAutomaton, RaymondGrantListener
from .topology import Topology


class RaymondLockSpace(AutomatonSpace):
    """All Raymond automata hosted by one node (one shared topology)."""

    def __init__(
        self,
        node_id: NodeId,
        topology: Topology,
        listener: RaymondGrantListener = noop_listener,
    ) -> None:
        if node_id not in topology:
            raise ConfigurationError(f"node {node_id} missing from topology")
        super().__init__(node_id, listener)
        self._topology = topology

    def _new_automaton(self, lock_id: LockId) -> RaymondAutomaton:
        return RaymondAutomaton(
            node_id=self._node_id,
            lock_id=lock_id,
            holder=self._topology[self._node_id],
            listener=self._listener,
        )
