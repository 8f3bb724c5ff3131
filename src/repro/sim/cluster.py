"""The bare cluster family, and the host base both families share.

:class:`_Host` is what hosting one automaton per (node, lock) is in
either family: node, member and client bookkeeping, monitor plumbing,
the membership log and the :meth:`~_Host.cluster_view` loop.  A family
says what one node is (``_boot_node``) and how it is read
(``_snapshot``); :class:`~repro.faults.host.ResilientHost` is the other
family's host.

:class:`_BaseCluster` is the whole bare host — splice-aware token
homes, membership splices and the quiescent audit — written against a
**fabric** speaking ``register(node, handler)`` and ``send(sender,
envelopes)`` and a **clock** ``now()``, never against an engine.  Two
protocol halves add a lockspace factory, a grant listener, the client
call path (check, record, the lockspace call, send), a ``remove_node``
splice and their quiescent invariants:

* :class:`_HierarchicalCluster` — every node runs a
  :class:`~repro.core.lockspace.LockSpace` (the paper's protocol),
* :class:`_ExclusiveCluster` — every node runs a
  :class:`~repro.naimi.lockspace.NaimiLockSpace` (the baseline) or a
  :class:`~repro.raymond.lockspace.RaymondLockSpace` (static tree).

An engine is a binding: it builds its fabric and clock.
:class:`SimHierarchicalCluster`, :class:`SimNaimiCluster` and
:class:`SimRaymondCluster` run on the simulator and network
:func:`sim_engine` builds; :class:`~repro.runtime.cluster.ThreadedHierarchicalCluster`
is the hierarchical host's thread binding, whose lockspaces each hold a
mutex.

Each engine has one hierarchical client, whichever family hosts it:
:class:`HierClient` here (``acquire`` returns a
:class:`~repro.sim.engine.SimEvent` to ``yield`` on; ``release`` is
synchronous), :class:`~repro.runtime.cluster.BlockingLockClient` on
threads.  Grants and releases are reported to an optional
:class:`~repro.verification.invariants.Monitor`; the cluster's
:class:`~repro.sim.network.Network` counts every wire message — the
measurement points for all reproduced figures.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..core.automaton import FULL_PROTOCOL, ProtocolOptions
from ..core.lockspace import LockSpace, TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..errors import ConfigurationError
from ..obs.sink import ObsSink
from ..naimi.lockspace import NaimiLockSpace
from ..raymond.lockspace import RaymondLockSpace
from ..raymond.topology import Topology, balanced_binary_tree, validate
from ..verification.invariants import (
    Monitor,
    quiescent_exclusive,
    quiescent_hierarchical,
)
from .engine import SimEvent, Simulator
from .network import Network
from .rng import Distribution

def sim_engine(
    sim: Optional[Simulator],
    latency: Optional[Distribution],
    seed: int,
    obs: Optional[ObsSink],
    faults=None,
) -> Tuple[Simulator, Network]:
    """The simulator and network a simulated cluster runs on.

    *sim* defaults to a fresh one, ticking into *obs*; the network's
    latency stream (150 ms exponential by default) is seeded from *seed*
    and it applies the fault plan *faults*, if any.
    """

    sim = sim if sim is not None else Simulator()
    if obs is not None:
        sim.tick_hook = obs.engine_tick
    network = Network(
        sim,
        latency=latency,
        rng=random.Random(seed ^ 0x5EED),
        faults=faults,
        obs=obs,
    )
    return sim, network


@dataclasses.dataclass
class _GrantCtx:
    """Listener context: what wakes the waiting client — anything with
    ``trigger(mode)`` — and whether the grant completes an upgrade."""

    event: object
    is_upgrade: bool = False


class _Host:
    """What hosting one automaton per (node, lock) is, in either family.

    The node, member and client bookkeeping, the monitor plumbing, the
    membership log and the :meth:`cluster_view` loop.  A host supplies
    :meth:`_boot_node` (what one node is) and :meth:`_snapshot` (how one
    node is read), ``PROTOCOL`` and ``CLIENT``; its engine binding
    supplies the fabric and the clock ``now()``.
    """

    #: Protocol tag stamped into cluster views.
    PROTOCOL = "hierarchical"
    #: Per-node client class (``CLIENT(cluster, node_id)``).
    CLIENT: type

    def __init__(
        self,
        num_nodes: int,
        fabric,
        now: Callable[[], float],
        monitor: Optional[Monitor],
        obs: Optional[ObsSink],
    ) -> None:
        self.num_nodes = num_nodes
        #: Current member node ids: grows on a join, shrinks when a node
        #: leaves for good.
        self.members: List[NodeId] = list(range(num_nodes))
        #: Nodes that have left for good.
        self._departed: set = set()
        #: One entry per membership event, in order.
        self.membership_log: List[Dict[str, object]] = []
        self._fabric = fabric
        self._now = now
        self.monitor = monitor
        # Monitors are not thread-safe; uncontended on the simulator.
        self._monitor_lock = threading.Lock()
        #: Observability sink shared by every automaton (None = not
        #: collecting); the binding hands it to its engine.
        self.obs = obs
        self.lockspaces: Dict[NodeId, object] = {}
        for node_id in range(num_nodes):
            self._boot_node(node_id)
        self.clients = [self.CLIENT(self, n) for n in range(num_nodes)]

    def _boot_node(self, node_id: NodeId) -> None:  # per host
        raise NotImplementedError

    def _snapshot(self, node_id: NodeId):  # per host: a NodeSnapshot
        raise NotImplementedError

    def client(self, node_id: NodeId):
        """Return the client object of *node_id*."""

        return self.clients[node_id]

    def _record_request(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_request(self._now(), node, lock_id, mode)

    def _record_grant(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_grant(self._now(), node, lock_id, mode)

    def _record_release(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_release(self._now(), node, lock_id, mode)

    def _log_membership(self, event: str, node: NodeId, **extra) -> None:
        self.membership_log.append(
            {"at": round(self._now(), 6), "event": event, "node": node, **extra}
        )
        if self.obs is not None:
            self.obs.fault(event, node)

    def cluster_view(self):
        """Capture a :class:`repro.obs.live.ClusterView` of all members.

        A pure read, one :meth:`_snapshot` per member.  On the simulator
        that is an exact instant in simulated time; on threads every
        :class:`~repro.obs.live.NodeSnapshot` is internally consistent
        but nodes are captured one after another, which is why the
        online audit treats cross-node disagreements as warnings while
        traffic is in flight.
        """

        from ..obs.live import ClusterView

        nodes = tuple(self._snapshot(node_id) for node_id in sorted(self.members))
        return ClusterView(
            protocol=self.PROTOCOL, captured_at=self._now(), nodes=nodes
        )


class _BaseCluster(_Host):
    """The bare host every bare cluster binds.

    A protocol half supplies ``PROTOCOL``, a lockspace factory
    (:meth:`_new_lockspace`), a grant listener (:meth:`_make_listener`),
    the ``_submit_*`` calls its client makes, its ``remove_node`` splice
    and its family's ``QUIESCENT`` check; an engine binding supplies the
    fabric and clock, ``CLIENT`` and, where nodes run concurrently, a
    guarded ``LOCKSPACE`` and :meth:`_snapshot`.
    """

    #: The family's per-lock quiescent check, ``(lock_id, automata)``.
    QUIESCENT: Callable

    def __init__(
        self,
        num_nodes: int,
        fabric,
        now: Callable[[], float],
        monitor: Optional[Monitor] = None,
        obs: Optional[ObsSink] = None,
        token_home: TokenHomeFn = default_token_home,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        self._next_node_id = num_nodes
        # Spliced-out lockspaces, kept referenced so their (still
        # registered) fabric handlers stay valid: any stray message to a
        # ghost raises loudly instead of vanishing.
        self._ghosts: Dict[NodeId, object] = {}
        self._base_token_home = token_home
        # Membership splices re-route token homes: per-lock pins for
        # locks instantiated before a removal, per-node redirects for
        # locks whose home node left before anyone touched them.
        self._home_override: Dict[LockId, NodeId] = {}
        self._node_redirect: Dict[NodeId, NodeId] = {}
        super().__init__(num_nodes, fabric, now, monitor, obs)

    def _resolve_home(self, lock_id: LockId) -> NodeId:
        """Token-home fn handed to every lockspace, splice-aware."""

        override = self._home_override.get(lock_id)
        if override is not None:
            return override
        home = self._base_token_home(lock_id)
        seen = set()
        while home in self._node_redirect and home not in seen:
            seen.add(home)
            home = self._node_redirect[home]
        return home

    def _existing(self, member: NodeId, lock_id: LockId):
        """*member*'s automaton for *lock_id*, or ``None`` if it never
        touched the lock (a splice must not instantiate it)."""

        return self.lockspaces[member].existing(lock_id)

    def _touched_locks(self, nodes) -> List[LockId]:
        """Every lock id any of *nodes* has touched, in splice order."""

        return sorted(
            {lock for node in nodes for lock in self.lockspaces[node].lock_ids}
        )

    def _pin_home(
        self, lock_id: LockId, leaver: NodeId, replacement: NodeId
    ) -> None:
        """Re-home fresh automata before *leaver* retires: a lock whose
        home still resolves to it pins to its current token node (a
        later fresh automaton there returns the existing, token-holding
        instance — never a duplicate), else to *replacement*."""

        if self._resolve_home(lock_id) != leaver:
            return
        home = replacement
        for member in self.members:
            if member == leaver:
                continue
            automaton = self._existing(member, lock_id)
            if automaton is not None and automaton.has_token:
                home = member
                break
        self._home_override[lock_id] = home

    def _new_lockspace(self, node_id: NodeId, listener):  # per protocol
        raise NotImplementedError

    def _boot_node(self, node_id: NodeId) -> None:
        lockspace = self._new_lockspace(node_id, self._make_listener(node_id))
        lockspace.obs = self.obs
        # Register first: a fabric that refuses the node leaves no trace.
        self._fabric.register(node_id, lockspace.handle)
        self.lockspaces[node_id] = lockspace

    def _snapshot(self, node_id: NodeId):
        from ..obs.live import snapshot_node

        return snapshot_node(node_id, self.lockspaces[node_id])

    # -- membership (splices are valid at quiescence only) ----------------

    def add_node(self, **placement) -> NodeId:
        """Join a fresh node; returns its id.

        Nothing to transplant: the joiner's automata are created lazily,
        pointed at the (splice-aware) token home — the paper's normal
        lazy-attach path.  *placement* is whatever the protocol's
        :meth:`_place` accepts (``attach_to=`` on Raymond's static tree,
        nothing elsewhere).
        """

        node_id = self._next_node_id
        placed = self._place(node_id, **placement)
        self._next_node_id += 1
        self._boot_node(node_id)
        self.members.append(node_id)
        self.clients.append(self.CLIENT(self, node_id))
        self._log_membership("join", node_id, **placed)
        return node_id

    def _place(self, node_id: NodeId) -> Dict[str, object]:
        """Fit *node_id* into the protocol's static structure, if it has
        one; returns extra fields for the membership log entry."""

        return {}

    def _check_departed(self, node_id: NodeId) -> None:
        if node_id in self._departed:
            raise ConfigurationError(
                f"node {node_id} has left the cluster"
            )

    def _pick_successor(
        self, leaving: NodeId, successor: Optional[NodeId]
    ) -> NodeId:
        if len(self.members) < 2:
            raise ConfigurationError(
                "cannot remove the last member of the cluster"
            )
        if successor is None:
            return min(m for m in self.members if m != leaving)
        if successor == leaving or successor not in self.members:
            raise ConfigurationError(
                f"successor {successor} is not another live member"
            )
        return successor

    def _require_removable(self, node_id: NodeId) -> None:
        if node_id not in self.members:
            raise ConfigurationError(f"node {node_id} is not a member")

    def _retire_member(self, node_id: NodeId) -> None:
        self.members.remove(node_id)
        self._departed.add(node_id)
        self._ghosts[node_id] = self.lockspaces.pop(node_id)

    # -- structural checks (valid at quiescence only) --------------------

    def assert_quiescent_invariants(self) -> None:
        """Verify every touched lock's structure after the network has
        drained: the protocol family's ``QUIESCENT`` check (see
        :mod:`repro.verification.invariants`) over every member's state
        of the lock.

        A pure read.  A member that never touched the lock is still in
        its birth state, so it is checked as a throwaway birth instance
        from its lockspace's factory, which is never registered: the
        audit creates no automaton and records no birth.
        """

        for lock_id in self._touched_locks(self.lockspaces):
            automata = {}
            for node_id, space in self.lockspaces.items():
                automaton = space.existing(lock_id)
                if automaton is None:
                    automaton = space._new_automaton(lock_id)
                automata[node_id] = automaton
            self.QUIESCENT(lock_id, automata)


class _NodeClient:
    """What every per-node client is: a (cluster, node id) pair."""

    def __init__(self, cluster, node_id: NodeId) -> None:
        self._cluster = cluster
        self._node_id = node_id

    @property
    def node_id(self) -> NodeId:
        """This client's node."""

        return self._node_id


class _HierarchicalCluster(_BaseCluster):
    """The hierarchical half of the bare host, whatever engine binds it."""

    QUIESCENT = staticmethod(quiescent_hierarchical)
    #: The lockspace class every node runs (a binding may guard it).
    LOCKSPACE = LockSpace
    #: The protocol switches every node runs with (set by the binding).
    _options: ProtocolOptions

    def _new_lockspace(self, node_id: NodeId, listener) -> LockSpace:
        return self.LOCKSPACE(
            node_id=node_id,
            token_home=self._resolve_home,
            listener=listener,
            options=self._options,
        )

    def _make_listener(self, node_id: NodeId):
        def listener(lock_id: LockId, mode: LockMode, ctx: object) -> None:
            if isinstance(ctx, _GrantCtx):
                if ctx.is_upgrade:
                    self._record_release(node_id, lock_id, LockMode.U)
                self._record_grant(node_id, lock_id, mode)
                ctx.event.trigger(mode)
            else:
                self._record_grant(node_id, lock_id, mode)

        return listener

    def _submit_request(
        self,
        node_id: NodeId,
        lock_id: LockId,
        mode: LockMode,
        ctx: _GrantCtx,
        priority: int = 0,
    ) -> None:
        self._check_departed(node_id)
        self._record_request(node_id, lock_id, mode)
        out = self.lockspaces[node_id].request(lock_id, mode, ctx, priority)
        self._fabric.send(node_id, out)

    def _submit_release(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        self._check_departed(node_id)
        self._record_release(node_id, lock_id, mode)
        out = self.lockspaces[node_id].release(lock_id, mode)
        self._fabric.send(node_id, out)

    def _submit_upgrade(
        self, node_id: NodeId, lock_id: LockId, ctx: _GrantCtx
    ) -> None:
        self._check_departed(node_id)
        out = self.lockspaces[node_id].upgrade(lock_id, ctx)
        self._fabric.send(node_id, out)

    def remove_node(
        self, node_id: NodeId, successor: Optional[NodeId] = None
    ) -> NodeId:
        """Splice *node_id* out of every copyset tree at quiescence.

        The node must have released all holds first (drained).  Per
        lock: a token held there transplants to one of its copyset
        children (falling back to *successor*), which adopts the
        remaining children; a non-token node's children migrate to its
        parent.  Stale lazy parent pointers anywhere re-point to the
        replacement, and future automaton creation is re-homed so no
        fresh automaton ever points at (or claims a token for) the
        removed node.  Returns the fallback successor used.
        """

        self._require_removable(node_id)
        space = self.lockspaces[node_id]
        for automaton in space.automata():
            if (
                automaton.held_modes
                or automaton.pending_mode is not LockMode.NONE
                or automaton.queue_length
            ):
                raise ConfigurationError(
                    f"node {node_id} is still active on "
                    f"{automaton.lock_id!r}; drain before removal"
                )
        fallback = self._pick_successor(node_id, successor)
        for lock_id in self._touched_locks(self.members):
            leaver = self._existing(node_id, lock_id)
            if leaver is not None and leaver.has_token:
                kids = {
                    child: mode
                    for child, mode in leaver.children.items()
                    if child in self.members
                }
                succ = min(kids) if kids else fallback
                root = self.lockspaces[succ].automaton(lock_id)
                root.splice_token(frozen=leaver.frozen_modes)
                for child, mode in kids.items():
                    if child == succ:
                        continue
                    root.splice_adopt_child(
                        child, mode, leaver.child_attachment_seq(child)
                    )
                replacement = succ
            elif leaver is not None:
                parent = leaver.parent
                adopter = self.lockspaces[parent].automaton(lock_id)
                for child, mode in leaver.children.items():
                    if child == parent or child not in self.members:
                        continue
                    adopter.splice_adopt_child(
                        child, mode, leaver.child_attachment_seq(child)
                    )
                self._fabric.send(parent, adopter.splice_drop_child(node_id))
                replacement = parent
            else:
                replacement = fallback
            self._pin_home(lock_id, node_id, replacement)
            for member in self.members:
                if member == node_id:
                    continue
                automaton = self._existing(member, lock_id)
                if automaton is not None and automaton.parent == node_id:
                    automaton.splice_parent(replacement)
            if leaver is not None:
                leaver.splice_retire(replacement)
        # Virgin locks whose home was the leaver re-home to the fallback.
        self._node_redirect[node_id] = fallback
        self._retire_member(node_id)
        self._log_membership("removed", node_id, successor=fallback)
        return fallback


class HierClient(_NodeClient):
    """Per-node client of the hierarchical protocol on the simulator
    (coroutine style), on a bare or a resilient host alike: each call is
    one host method."""

    def acquire(
        self, lock_id: LockId, mode: LockMode, priority: int = 0
    ) -> SimEvent:
        """Request *lock_id* in *mode*; yield the returned event to wait.

        *priority* participates in arbitration only when the cluster runs
        with ``ProtocolOptions.priority_scheduling``.
        """

        event = SimEvent(self._cluster.sim)
        self._cluster._submit_request(
            self._node_id, lock_id, mode, _GrantCtx(event), priority
        )
        return event

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        self._cluster._submit_release(self._node_id, lock_id, mode)

    def upgrade(self, lock_id: LockId) -> SimEvent:
        """Upgrade a held ``U`` on *lock_id* to ``W``; yields like acquire
        (bare hosts only)."""

        event = SimEvent(self._cluster.sim)
        self._cluster._submit_upgrade(
            self._node_id, lock_id, _GrantCtx(event, is_upgrade=True)
        )
        return event


class SimHierarchicalCluster(_HierarchicalCluster):
    """A simulated cluster running the paper's hierarchical protocol.

    A fault *plan*'s rules and partitions act on its network; nothing
    recovers from them (the plan's crashes need a resilient cluster).
    """

    CLIENT = HierClient

    def __init__(
        self,
        num_nodes: int,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        token_home: TokenHomeFn = default_token_home,
        monitor: Optional[Monitor] = None,
        options: ProtocolOptions = FULL_PROTOCOL,
        obs: Optional[ObsSink] = None,
        plan=None,
    ) -> None:
        self._options = options
        self.sim, self.network = sim_engine(sim, latency, seed, obs, plan)
        super().__init__(
            num_nodes, self.network, lambda: self.sim.now,
            monitor=monitor, obs=obs, token_home=token_home,
        )


class ExclusiveClient(_NodeClient):
    """Per-node client of an exclusive-lock baseline — Naimi-Tréhel or
    Raymond — in coroutine style."""

    def acquire(self, lock_id: LockId) -> SimEvent:
        """Request the (exclusive) lock; yield the event to wait."""

        event = SimEvent(self._cluster.sim)
        self._cluster._submit_request(self._node_id, lock_id, event)
        return event

    def release(self, lock_id: LockId) -> None:
        """Leave the critical section of *lock_id*."""

        self._cluster._submit_release(self._node_id, lock_id)


#: The names the two baselines' clients are imported under.
NaimiClient = RaymondClient = ExclusiveClient


class _ExclusiveCluster(_BaseCluster):
    """What the two exclusive-lock baselines share beyond the base."""

    CLIENT = ExclusiveClient
    QUIESCENT = staticmethod(quiescent_exclusive)

    def _make_listener(self, node_id: NodeId):
        def listener(lock_id: LockId, ctx: object) -> None:
            # Exclusive grants are recorded as W for monitors.
            self._record_grant(node_id, lock_id, LockMode.W)
            if isinstance(ctx, SimEvent):
                ctx.trigger(None)

        return listener

    def _submit_request(self, node_id: NodeId, lock_id: LockId, ctx) -> None:
        self._check_departed(node_id)
        self._record_request(node_id, lock_id, LockMode.W)
        out = self.lockspaces[node_id].request(lock_id, ctx)
        self._fabric.send(node_id, out)

    def _submit_release(self, node_id: NodeId, lock_id: LockId) -> None:
        self._check_departed(node_id)
        self._record_release(node_id, lock_id, LockMode.W)
        out = self.lockspaces[node_id].release(lock_id)
        self._fabric.send(node_id, out)

    def _begin_removal(self, node_id: NodeId):
        """Splice preamble: check the leaver is a member and idle;
        return every lock id any member has touched, in splice order."""

        self._require_removable(node_id)
        for automaton in self.lockspaces[node_id].automata():
            if not automaton.is_idle():
                raise ConfigurationError(
                    f"node {node_id} is still active on "
                    f"{automaton.lock_id!r}; drain before removal"
                )
        return self._touched_locks(self.members)


class SimNaimiCluster(_ExclusiveCluster):
    """A simulated cluster running the Naimi-Tréhel baseline."""

    PROTOCOL = "naimi"

    def __init__(
        self,
        num_nodes: int,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        token_home: TokenHomeFn = default_token_home,
        monitor: Optional[Monitor] = None,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self.sim, self.network = sim_engine(sim, latency, seed, obs)
        super().__init__(
            num_nodes, self.network, lambda: self.sim.now,
            monitor=monitor, obs=obs, token_home=token_home,
        )

    def _new_lockspace(self, node_id: NodeId, listener) -> NaimiLockSpace:
        return NaimiLockSpace(
            node_id=node_id, token_home=self._resolve_home, listener=listener
        )

    def remove_node(
        self, node_id: NodeId, successor: Optional[NodeId] = None
    ) -> NodeId:
        """Splice *node_id* out of every last-pointer forest at quiescence.

        The node must be idle on every lock.  A token resting there
        transplants to the successor; ``last`` hints pointing at the
        leaver re-route to the leaver's own hint (or the successor),
        and future automaton creation is re-homed away from the leaver.
        Returns the fallback successor used.
        """

        lock_ids = self._begin_removal(node_id)
        fallback = self._pick_successor(node_id, successor)
        for lock_id in lock_ids:
            leaver = self._existing(node_id, lock_id)
            if leaver is not None and leaver.has_token:
                self.lockspaces[fallback].automaton(lock_id).splice_take_token()
                replacement = fallback
            elif leaver is not None:
                replacement = leaver.last
                if replacement not in self.members:
                    replacement = fallback
            else:
                replacement = fallback
            self._pin_home(lock_id, node_id, replacement)
            for member in self.members:
                if member == node_id:
                    continue
                automaton = self._existing(member, lock_id)
                if automaton is not None and automaton.last == node_id:
                    target = replacement if replacement != member else fallback
                    if target == member:
                        raise ConfigurationError(
                            f"lock {lock_id!r}: no valid re-route for the "
                            f"probable-owner hint of node {member}"
                        )
                    automaton.splice_last(target)
            if leaver is not None:
                leaver.splice_retire(
                    replacement if replacement != node_id else fallback
                )
        self._node_redirect[node_id] = fallback
        self._retire_member(node_id)
        self._log_membership("removed", node_id, successor=fallback)
        return fallback


class SimRaymondCluster(_ExclusiveCluster):
    """A simulated cluster running Raymond's static-tree baseline."""

    PROTOCOL = "raymond"
    QUIESCENT = staticmethod(partial(quiescent_exclusive, token="privilege"))

    def __init__(
        self,
        num_nodes: int,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        topology: Optional[Topology] = None,
        monitor: Optional[Monitor] = None,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self.topology = (
            topology if topology is not None else balanced_binary_tree(num_nodes)
        )
        validate(self.topology)
        self.sim, self.network = sim_engine(sim, latency, seed, obs)
        super().__init__(
            num_nodes, self.network, lambda: self.sim.now,
            monitor=monitor, obs=obs,
        )

    def _new_lockspace(self, node_id: NodeId, listener) -> RaymondLockSpace:
        return RaymondLockSpace(
            node_id=node_id, topology=self.topology, listener=listener
        )

    def _place(
        self, node_id: NodeId, attach_to: Optional[NodeId] = None
    ) -> Dict[str, object]:
        """Hang the joiner as a new leaf under *attach_to* (lowest
        member by default).

        The shared topology dict is spliced in place, so every
        lockspace sees the new edge at once.  Fresh automata on the
        joiner default their ``holder`` toward the attachment point —
        correct, because the privilege can never be in a subtree it has
        never visited.
        """

        if attach_to is None:
            attach_to = min(self.members)
        elif attach_to not in self.members:
            raise ConfigurationError(
                f"attachment point {attach_to} is not a member"
            )
        self.topology[node_id] = attach_to
        validate(self.topology)
        return {"attached_to": attach_to}

    def remove_node(
        self, node_id: NodeId, successor: Optional[NodeId] = None
    ) -> NodeId:
        """Splice *node_id* out of the static tree at quiescence.

        The node must be idle on every lock.  Its tree children re-hang
        under its parent (or, when removing the root, under one promoted
        child); per lock, a privilege resting at the leaver moves out
        first — to the topology replacement — and every ``holder``
        pointer at the leaver re-routes toward the privilege's new
        position.  Returns the topology replacement.
        """

        lock_ids = self._begin_removal(node_id)
        self._pick_successor(node_id, successor)  # membership sanity
        parent = self.topology[node_id]
        children = sorted(
            n for n, p in self.topology.items() if p == node_id
        )
        if parent is not None:
            replacement = parent
            for child in children:
                self.topology[child] = parent
        else:
            if successor is not None and successor in children:
                replacement = successor
            else:
                replacement = children[0]
            self.topology[replacement] = None
            for child in children:
                if child != replacement:
                    self.topology[child] = replacement
        del self.topology[node_id]
        validate(self.topology)
        for lock_id in lock_ids:
            leaver = self._existing(node_id, lock_id)
            direction: Optional[NodeId] = None
            if leaver is not None and leaver.has_privilege:
                # Privilege out first: the replacement takes it.  Its
                # automaton may be created here under the *new* topology
                # (a fresh root is already privileged; a fresh non-root
                # is pointed up and corrected below).
                target = self.lockspaces[replacement].automaton(lock_id)
                target.splice_holder(None)
                leaver.splice_holder(replacement)
            elif leaver is not None:
                direction = leaver.holder
                if (
                    self.topology.get(replacement) is None
                    and direction != replacement
                    and self._existing(replacement, lock_id) is None
                ):
                    # Promoted root with no automaton yet, privilege in
                    # another ex-child's subtree: pre-create it pointed
                    # the right way, or a later lazy creation would
                    # claim a second privilege.
                    fresh = self.lockspaces[replacement].automaton(lock_id)
                    fresh.splice_holder(direction)
            for member in self.members:
                if member == node_id:
                    continue
                automaton = self._existing(member, lock_id)
                if automaton is None or automaton.holder != node_id:
                    continue
                if direction is not None and member == replacement:
                    automaton.splice_holder(direction)
                else:
                    automaton.splice_holder(replacement)
            if leaver is not None and not leaver.has_privilege:
                leaver.splice_holder(replacement)
        self._retire_member(node_id)
        self._log_membership("removed", node_id, successor=replacement)
        return replacement
