"""Threaded in-process cluster: the protocol under real concurrency.

While :mod:`repro.sim` answers the paper's *performance* questions
deterministically, this runtime deploys the very same automata under real
threads and blocking client calls — the functional "is this actually a
usable lock service?" deployment that examples and the services layer
build on.

Every node consists of a :class:`~repro.core.lockspace.LockSpace`, a
mutex serializing all access to it, and a transport dispatcher thread.  Clients block on
:class:`threading.Event` objects that the grant listener sets.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..core.automaton import FULL_PROTOCOL, ProtocolOptions
from ..core.lockspace import LockSpace, TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..errors import ConfigurationError, LockUsageError
from ..sim.cluster import _NodeClient
from ..sim.rng import Distribution
from ..verification.invariants import Monitor
from .transport import ThreadedTransport


class _Waiter:
    """Grant context used by the blocking client."""

    __slots__ = ("event", "mode", "is_upgrade")

    def __init__(self, is_upgrade: bool = False) -> None:
        self.event = threading.Event()
        self.mode: Optional[LockMode] = None
        self.is_upgrade = is_upgrade


class BlockingLockClient(_NodeClient):
    """Blocking per-node client of the hierarchical protocol."""

    def acquire(
        self, lock_id: LockId, mode: LockMode, timeout: Optional[float] = None
    ) -> None:
        """Acquire *lock_id* in *mode*, blocking until granted.

        The protocol allows one outstanding request per (node, lock); a
        per-lock gate serializes concurrent same-lock acquisitions from
        different threads of this node, FIFO, so multi-threaded clients
        compose naturally.

        Raises :class:`TimeoutError` if *timeout* (seconds) elapses first.
        NOTE: on timeout the request is still outstanding — the protocol
        has no request cancellation — so the lock will eventually be
        granted and must then be released; callers treating a timeout as a
        fatal condition should tear the cluster down.
        """

        with self._cluster._request_gate(self._node_id, lock_id):
            waiter = _Waiter()
            self._cluster._submit_request(self._node_id, lock_id, mode, waiter)
            if not waiter.event.wait(timeout):
                raise TimeoutError(
                    f"node {self._node_id}: {mode} on {lock_id!r} not "
                    f"granted within {timeout}s"
                )

    def attempt(self, lock_id: LockId, mode: LockMode) -> bool:
        """CORBA-style try-lock: succeed only if grantable locally, now.

        Never sends a message: returns ``True`` and takes the lock iff the
        node's owned mode already covers *mode* (Rule 2's local path);
        otherwise returns ``False`` leaving no pending state behind.
        """

        return self._cluster._attempt_local(self._node_id, lock_id, mode)

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        self._cluster._submit_release(self._node_id, lock_id, mode)

    def upgrade(self, lock_id: LockId, timeout: Optional[float] = None) -> None:
        """Upgrade a held ``U`` to ``W`` (Rule 7), blocking until done."""

        with self._cluster._request_gate(self._node_id, lock_id):
            waiter = _Waiter(is_upgrade=True)
            self._cluster._submit_upgrade(self._node_id, lock_id, waiter)
            if not waiter.event.wait(timeout):
                raise TimeoutError(
                    f"node {self._node_id}: upgrade on {lock_id!r} not "
                    f"granted within {timeout}s"
                )

    def downgrade(
        self, lock_id: LockId, held: LockMode, to: LockMode
    ) -> None:
        """Atomically weaken a held mode (extension; see automaton docs)."""

        self._cluster._submit_downgrade(self._node_id, lock_id, held, to)


class ThreadedHierarchicalCluster:
    """N threaded nodes running the hierarchical protocol."""

    def __init__(
        self,
        num_nodes: int,
        token_home: TokenHomeFn = default_token_home,
        delay: Optional[Distribution] = None,
        seed: int = 0,
        monitor: Optional[Monitor] = None,
        options: ProtocolOptions = FULL_PROTOCOL,
        transport=None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.monitor = monitor
        self._monitor_lock = threading.Lock()
        self._gates: Dict[tuple, threading.Lock] = {}
        self._gates_guard = threading.Lock()
        self._clock = _WallClock()
        # Any object with register/start/stop/send works as the fabric:
        # the in-memory queue transport (default) or the TCP transport.
        self.transport = (
            transport
            if transport is not None
            else ThreadedTransport(delay=delay, seed=seed)
        )
        self._locks: Dict[NodeId, threading.RLock] = {}
        self.lockspaces: Dict[NodeId, LockSpace] = {}
        for node_id in range(num_nodes):
            self._locks[node_id] = threading.RLock()
            lockspace = LockSpace(
                node_id=node_id,
                token_home=token_home,
                listener=self._make_listener(node_id),
                options=options,
            )
            self.lockspaces[node_id] = lockspace
            self.transport.register(
                node_id, self._make_handler(node_id, lockspace)
            )
        self.clients = [
            BlockingLockClient(self, n) for n in range(num_nodes)
        ]
        self.transport.start()

    def client(self, node_id: NodeId) -> BlockingLockClient:
        """Return the blocking client of *node_id*."""

        return self.clients[node_id]

    def cluster_view(self):
        """Capture a :class:`repro.obs.live.ClusterView` of all nodes.

        Each node is snapshotted under its own mutex, so every
        :class:`~repro.obs.live.NodeSnapshot` is internally consistent;
        nodes are captured one after another, which is why the online
        audit treats cross-node disagreements as warnings while traffic
        is in flight.
        """

        from ..obs.live import ClusterView, snapshot_node

        nodes = []
        for node_id in sorted(self.lockspaces):
            with self._locks[node_id]:
                nodes.append(snapshot_node(node_id, self.lockspaces[node_id]))
        return ClusterView(
            protocol="hierarchical",
            captured_at=self._clock.now(),
            nodes=tuple(nodes),
        )

    def shutdown(self) -> None:
        """Stop the transport threads."""

        self.transport.stop()

    def __enter__(self) -> "ThreadedHierarchicalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Internal plumbing (all lockspace access under the node mutex).
    # ------------------------------------------------------------------

    def _request_gate(self, node_id: NodeId, lock_id: LockId) -> threading.Lock:
        """Per-(node, lock) mutex serializing same-lock acquisitions."""

        key = (node_id, lock_id)
        with self._gates_guard:
            gate = self._gates.get(key)
            if gate is None:
                gate = threading.Lock()
                self._gates[key] = gate
            return gate

    def _make_handler(self, node_id: NodeId, lockspace: LockSpace):
        def handler(message):
            with self._locks[node_id]:
                return lockspace.handle(message)

        return handler

    def _make_listener(self, node_id: NodeId):
        def listener(lock_id: LockId, mode: LockMode, ctx: object) -> None:
            if isinstance(ctx, _Waiter):
                if ctx.is_upgrade:
                    self._notify_release(node_id, lock_id, LockMode.U)
                self._notify_grant(node_id, lock_id, mode)
                ctx.mode = mode
                ctx.event.set()
            else:
                self._notify_grant(node_id, lock_id, mode)

        return listener

    def _notify_request(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_request(self._clock.now(), node, lock_id, mode)

    def _notify_grant(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_grant(self._clock.now(), node, lock_id, mode)

    def _notify_release(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_release(self._clock.now(), node, lock_id, mode)

    def _submit_request(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode, waiter: _Waiter
    ) -> None:
        self._notify_request(node_id, lock_id, mode)
        with self._locks[node_id]:
            out = self.lockspaces[node_id].request(lock_id, mode, waiter)
        self.transport.send(node_id, out)

    def _attempt_local(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> bool:
        from ..core.modes import child_can_grant, token_can_grant

        with self._locks[node_id]:
            automaton = self.lockspaces[node_id].automaton(lock_id)
            owned = automaton.owned_mode()
            if automaton.has_token:
                grantable = token_can_grant(owned, mode)
            else:
                grantable = child_can_grant(owned, mode)
            if not grantable or mode in automaton.frozen_modes:
                return False
            waiter = _Waiter()
            out = automaton.request(mode, waiter)
        self.transport.send(node_id, out)
        if not waiter.event.wait(timeout=0.0):
            raise LockUsageError("local attempt unexpectedly went remote")
        return True

    def _submit_release(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        self._notify_release(node_id, lock_id, mode)
        with self._locks[node_id]:
            out = self.lockspaces[node_id].release(lock_id, mode)
        self.transport.send(node_id, out)

    def _submit_upgrade(
        self, node_id: NodeId, lock_id: LockId, waiter: _Waiter
    ) -> None:
        with self._locks[node_id]:
            out = self.lockspaces[node_id].upgrade(lock_id, waiter)
        self.transport.send(node_id, out)

    def _submit_downgrade(
        self, node_id: NodeId, lock_id: LockId, held: LockMode, to: LockMode
    ) -> None:
        with self._locks[node_id]:
            automaton = self.lockspaces[node_id].automaton(lock_id)
            out = automaton.downgrade(held, to)
        self._notify_release(node_id, lock_id, held)
        self._notify_grant(node_id, lock_id, to)
        self.transport.send(node_id, out)


class _WallClock:
    """Monotonic wall-clock adapter matching the simulator's ``now``."""

    def __init__(self) -> None:
        import time

        self._time = time
        self._start = time.monotonic()

    def now(self) -> float:
        return self._time.monotonic() - self._start
