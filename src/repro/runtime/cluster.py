"""Threaded in-process cluster: the protocol under real concurrency.

While :mod:`repro.sim` answers the paper's *performance* questions
deterministically, this runtime deploys the very same automata under real
threads and blocking client calls — the functional "is this actually a
usable lock service?" deployment that examples and the services layer
build on.

:class:`ThreadedHierarchicalCluster` is the thread binding of the bare
hierarchical host (:mod:`repro.sim.cluster`, whose simulator binding is
:class:`~repro.sim.cluster.SimHierarchicalCluster`): the host's
membership, splices, monitor plumbing, client call path,
``cluster_view`` and quiescent audit over a transport and the monotonic
wall clock.  All it adds is a mutex per node, held by each entry point
of its :class:`~repro.core.lockspace.LockSpace` and by the host's reads,
serializing every access against the transport's dispatcher threads;
the two calls only its client makes (``attempt``, ``downgrade``); and a
lifetime.  :class:`BlockingLockClient` blocks on a
:class:`threading.Event` the grant listener sets; it is the threaded
client of both families (the resilient one is
:class:`~repro.faults.runtime.ResilientThreadedCluster`).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..core.automaton import FULL_PROTOCOL, ProtocolOptions
from ..core.lockspace import LockSpace, TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..sim.cluster import _GrantCtx, _HierarchicalCluster, _NodeClient
from ..sim.rng import Distribution
from ..verification.invariants import Monitor
from .transport import ThreadedTransport


class _Wakeup(threading.Event):
    """A blocked thread's grant event: the listener ``trigger``\\s it."""

    def trigger(self, mode: Optional[LockMode] = None) -> None:
        self.set()


class BlockingLockClient(_NodeClient):
    """Blocking per-node client of the hierarchical protocol, on a bare
    or a resilient threaded host alike: each call is one host method."""

    def __init__(self, cluster, node_id: NodeId) -> None:
        super().__init__(cluster, node_id)
        self._gates: Dict[LockId, threading.Lock] = {}
        self._gates_guard = threading.Lock()

    def _gate(self, lock_id: LockId) -> threading.Lock:
        """The mutex serializing this node's acquisitions of *lock_id*."""

        with self._gates_guard:
            gate = self._gates.get(lock_id)
            if gate is None:
                gate = self._gates[lock_id] = threading.Lock()
            return gate

    def _wait(
        self, ctx: _GrantCtx, timeout: Optional[float], what: str
    ) -> None:
        if not ctx.event.wait(timeout):
            raise TimeoutError(
                f"node {self._node_id}: {what} not granted within {timeout}s"
            )

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

        with self._gate(lock_id):
            ctx = _GrantCtx(_Wakeup())
            self._cluster._submit_request(self._node_id, lock_id, mode, ctx)
            self._wait(ctx, timeout, f"{mode} on {lock_id!r}")

    def attempt(self, lock_id: LockId, mode: LockMode) -> bool:
        """CORBA-style try-lock: succeed only if grantable locally, now
        (bare hosts only).

        Never sends a message: returns ``True`` and takes the lock iff
        ``request`` would grant *mode* on Rule 2's local path
        (:meth:`~repro.core.automaton.HierarchicalLockAutomaton.grantable_locally`:
        owned mode, frozen set, fencing and the ``local_reentry`` switch
        all decide); otherwise returns ``False`` leaving no pending state
        behind.
        """

        return self._cluster._attempt_local(self._node_id, lock_id, mode)

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        self._cluster._submit_release(self._node_id, lock_id, mode)

    def upgrade(self, lock_id: LockId, timeout: Optional[float] = None) -> None:
        """Upgrade a held ``U`` to ``W`` (Rule 7), blocking until done
        (bare hosts only)."""

        with self._gate(lock_id):
            ctx = _GrantCtx(_Wakeup(), is_upgrade=True)
            self._cluster._submit_upgrade(self._node_id, lock_id, ctx)
            self._wait(ctx, timeout, f"upgrade on {lock_id!r}")

    def downgrade(
        self, lock_id: LockId, held: LockMode, to: LockMode
    ) -> None:
        """Atomically weaken a held mode (extension; see automaton docs;
        bare hosts only)."""

        self._cluster._submit_downgrade(self._node_id, lock_id, held, to)


class _GuardedLockSpace(LockSpace):
    """A node's lockspace on threads: each entry point holds the node's
    mutex, so client threads and the transport's dispatcher threads
    serialize on it."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.mutex = threading.RLock()

    def handle(self, message):
        with self.mutex:
            return super().handle(message)

    def request(self, *args):
        with self.mutex:
            return super().request(*args)

    def release(self, *args):
        with self.mutex:
            return super().release(*args)

    def upgrade(self, *args):
        with self.mutex:
            return super().upgrade(*args)


class ThreadedHierarchicalCluster(_HierarchicalCluster):
    """N threaded nodes running the hierarchical protocol.

    Membership splices (``add_node`` / ``remove_node``) and
    :meth:`assert_quiescent_invariants` are valid at quiescence only, as
    on the simulator: ``transport.drain()`` first.  ``add_node`` needs a
    transport that registers nodes after ``start()``: the in-memory one
    does, the TCP one refuses.
    """

    CLIENT = BlockingLockClient
    LOCKSPACE = _GuardedLockSpace

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
        self._options = options
        # Any object with register/start/stop/send works as the fabric:
        # the in-memory queue transport (default) or the TCP transport.
        self.transport = (
            transport
            if transport is not None
            else ThreadedTransport(delay=delay, seed=seed)
        )
        epoch = time.monotonic()
        super().__init__(
            num_nodes, self.transport, lambda: time.monotonic() - epoch,
            monitor=monitor, token_home=token_home,
        )
        self.transport.start()

    def shutdown(self) -> None:
        """Stop the transport threads."""

        self.transport.stop()

    def __enter__(self) -> "ThreadedHierarchicalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- the binding: all lockspace access under the node mutex ---------

    def _snapshot(self, node_id: NodeId):
        with self.lockspaces[node_id].mutex:
            return super()._snapshot(node_id)

    def _attempt_local(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> bool:
        self._check_departed(node_id)
        with self.lockspaces[node_id].mutex:
            automaton = self.lockspaces[node_id].automaton(lock_id)
            if not automaton.grantable_locally(mode):
                return False
            # Rule 2's local path: granted synchronously, nothing to send.
            automaton.request(mode)
        return True

    def _submit_downgrade(
        self, node_id: NodeId, lock_id: LockId, held: LockMode, to: LockMode
    ) -> None:
        self._check_departed(node_id)
        with self.lockspaces[node_id].mutex:
            automaton = self.lockspaces[node_id].automaton(lock_id)
            out = automaton.downgrade(held, to)
        self._record_release(node_id, lock_id, held)
        self._record_grant(node_id, lock_id, to)
        self.transport.send(node_id, out)
