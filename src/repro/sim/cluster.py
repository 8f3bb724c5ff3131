"""Simulated clusters: N nodes, a network, and per-node lock clients.

The bare family: one implementation (:class:`_BaseCluster`), three
protocols that each add only what is theirs — a lockspace factory, a
grant listener, a ``remove_node`` splice and which family's quiescent
invariants apply:

* :class:`SimHierarchicalCluster` — every node runs a
  :class:`~repro.core.lockspace.LockSpace` (the paper's protocol),
* :class:`SimNaimiCluster` — every node runs a
  :class:`~repro.naimi.lockspace.NaimiLockSpace` (the baseline),
* :class:`SimRaymondCluster` — every node runs a
  :class:`~repro.raymond.lockspace.RaymondLockSpace` (static tree).

No recovery manager sits under these nodes, which is why they are not
folded into :class:`~repro.faults.host.ResilientHost`: that host would
have to branch on its caller.

Clients expose coroutine-friendly ``acquire`` (returns a
:class:`~repro.sim.engine.SimEvent` to ``yield`` on), plus synchronous
``release``.  Grants and releases are reported to an optional
:class:`~repro.verification.invariants.Monitor`, and every wire message to
an optional :class:`~repro.metrics.MetricsCollector` — the measurement
points for all reproduced figures.
"""

from __future__ import annotations

import dataclasses
import random
from functools import partial
from typing import Callable, Dict, List, Optional

from ..core.automaton import FULL_PROTOCOL, ProtocolOptions
from ..core.lockspace import LockSpace, TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId, message_type_label
from ..core.modes import LockMode
from ..errors import ConfigurationError
from ..metrics import MetricsCollector
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
from .rng import Distribution, Exponential


@dataclasses.dataclass
class _GrantCtx:
    """Listener context: the waiter event plus bookkeeping flags."""

    event: SimEvent
    is_upgrade: bool = False


class _BaseCluster:
    """Everything the three bare simulated clusters share.

    A subclass supplies only what is per-protocol: ``PROTOCOL`` and
    ``CLIENT``, a lockspace factory (:meth:`_new_lockspace`), a grant
    listener (:meth:`_make_listener`), its ``remove_node`` splice and its
    family's ``QUIESCENT`` check.
    """

    #: Protocol tag stamped into cluster views (set per subclass).
    PROTOCOL = "?"
    #: Per-node client class (``CLIENT(cluster, node_id)``).
    CLIENT: type
    #: The family's per-lock quiescent check, ``(lock_id, automata)``.
    QUIESCENT: Callable

    def __init__(
        self,
        num_nodes: int,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        monitor: Optional[Monitor] = None,
        metrics: Optional[MetricsCollector] = None,
        obs: Optional[ObsSink] = None,
        token_home: TokenHomeFn = default_token_home,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        #: Current membership (mutated by ``add_node``/``remove_node``).
        self.members = list(range(num_nodes))
        #: Chronological record of membership changes (``at`` is sim time).
        self.membership_log = []
        self._next_node_id = num_nodes
        self._departed: set = set()
        # Spliced-out lockspaces, kept referenced so their (still
        # registered) network handlers stay valid: any stray message to a
        # ghost raises loudly instead of vanishing.
        self._ghosts: Dict[NodeId, object] = {}
        self.sim = sim if sim is not None else Simulator()
        self.monitor = monitor
        self.metrics = metrics
        #: Observability sink shared by every automaton, the network
        #: observer and the engine tick hook (None = not collecting).
        self.obs = obs
        if obs is not None:
            self.sim.tick_hook = obs.engine_tick
        self._latency = latency if latency is not None else Exponential(0.150)
        self.network = Network(
            self.sim,
            latency=self._latency,
            rng=random.Random(seed ^ 0x5EED),
            observer=self._observe_message,
            tracer=getattr(obs, "tracer", None) if obs is not None else None,
        )
        self._base_token_home = token_home
        # Membership splices re-route token homes: per-lock pins for
        # locks instantiated before a removal, per-node redirects for
        # locks whose home node left before anyone touched them.
        self._home_override: Dict[LockId, NodeId] = {}
        self._node_redirect: Dict[NodeId, NodeId] = {}
        self.lockspaces: Dict[NodeId, object] = {}
        for node_id in range(num_nodes):
            self._add_lockspace(node_id)
        self.clients = [self.CLIENT(self, n) for n in range(num_nodes)]

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

        for automaton in self.lockspaces[member].automata():
            if automaton.lock_id == lock_id:
                return automaton
        return None

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

    def _add_lockspace(self, node_id: NodeId):
        lockspace = self._new_lockspace(node_id, self._make_listener(node_id))
        lockspace.obs = self.obs
        self.lockspaces[node_id] = lockspace
        self.network.register(node_id, lockspace.handle)
        return lockspace

    def client(self, node_id: NodeId):
        """Return the client object of *node_id*."""

        return self.clients[node_id]

    @property
    def mean_latency(self) -> float:
        """Mean point-to-point latency (the Figure 6 normalizer)."""

        return self._latency.mean

    def _observe_message(self, sender: NodeId, dest: NodeId, message) -> None:
        if self.metrics is not None:
            self.metrics.count_message(message_type_label(message))
        if self.obs is not None:
            # Same observation point and same label as the metrics
            # counter, so per-type totals in traces match
            # MetricsCollector.message_overhead_by_type exactly.
            self.obs.message(sender, dest, message_type_label(message))

    def _record_request(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            self.monitor.on_request(self.sim.now, node, lock_id, mode)

    def _record_grant(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            self.monitor.on_grant(self.sim.now, node, lock_id, mode)

    def _record_release(self, node: NodeId, lock_id: LockId, mode: LockMode) -> None:
        if self.monitor is not None:
            self.monitor.on_release(self.sim.now, node, lock_id, mode)

    def cluster_view(self):
        """Capture a :class:`repro.obs.live.ClusterView` of all members.

        A pure read over every member's lock state — the simulator is
        single-threaded, so no locking is needed and the capture is an
        exact instant in simulated time.  Spliced-out ghosts are
        excluded.
        """

        from ..obs.live import ClusterView, snapshot_node

        return ClusterView(
            protocol=self.PROTOCOL,
            captured_at=self.sim.now,
            nodes=tuple(
                snapshot_node(node_id, self.lockspaces[node_id])
                for node_id in sorted(self.members)
            ),
        )

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
        self._add_lockspace(node_id)
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

    def _log_membership(self, event: str, node: NodeId, **extra) -> None:
        entry = {"event": event, "node": node, "at": self.sim.now}
        entry.update(extra)
        self.membership_log.append(entry)
        if self.obs is not None:
            self.obs.fault(event, node)

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
        :mod:`repro.verification.invariants`) over all nodes' automata."""

        for lock_id in self._touched_locks(self.lockspaces):
            self.QUIESCENT(
                lock_id,
                {
                    node_id: space.automaton(lock_id)
                    for node_id, space in self.lockspaces.items()
                },
            )


class _NodeClient:
    """What every per-node client is: a (cluster, node id) pair."""

    def __init__(self, cluster, node_id: NodeId) -> None:
        self._cluster = cluster
        self._node_id = node_id

    @property
    def node_id(self) -> NodeId:
        """This client's node."""

        return self._node_id


class HierClient(_NodeClient):
    """Per-node client of the hierarchical protocol (coroutine style)."""

    def acquire(
        self, lock_id: LockId, mode: LockMode, priority: int = 0
    ) -> SimEvent:
        """Request *lock_id* in *mode*; yield the returned event to wait.

        *priority* participates in arbitration only when the cluster runs
        with ``ProtocolOptions.priority_scheduling``.
        """

        cluster = self._cluster
        cluster._check_departed(self._node_id)
        cluster._record_request(self._node_id, lock_id, mode)
        event = SimEvent(cluster.sim)
        ctx = _GrantCtx(event=event)
        out = cluster.lockspaces[self._node_id].request(
            lock_id, mode, ctx, priority
        )
        cluster.network.send(self._node_id, out)
        return event

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        cluster = self._cluster
        cluster._check_departed(self._node_id)
        cluster._record_release(self._node_id, lock_id, mode)
        out = cluster.lockspaces[self._node_id].release(lock_id, mode)
        cluster.network.send(self._node_id, out)

    def upgrade(self, lock_id: LockId) -> SimEvent:
        """Upgrade a held ``U`` on *lock_id* to ``W``; yields like acquire."""

        cluster = self._cluster
        cluster._check_departed(self._node_id)
        event = SimEvent(cluster.sim)
        ctx = _GrantCtx(event=event, is_upgrade=True)
        out = cluster.lockspaces[self._node_id].upgrade(lock_id, ctx)
        cluster.network.send(self._node_id, out)
        return event


class SimHierarchicalCluster(_BaseCluster):
    """A simulated cluster running the paper's hierarchical protocol."""

    PROTOCOL = "hierarchical"
    CLIENT = HierClient
    QUIESCENT = staticmethod(quiescent_hierarchical)

    def __init__(
        self,
        num_nodes: int,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        token_home: TokenHomeFn = default_token_home,
        monitor: Optional[Monitor] = None,
        metrics: Optional[MetricsCollector] = None,
        options: ProtocolOptions = FULL_PROTOCOL,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self._options = options
        super().__init__(
            num_nodes, sim=sim, latency=latency, seed=seed,
            monitor=monitor, metrics=metrics, obs=obs, token_home=token_home,
        )

    def _new_lockspace(self, node_id: NodeId, listener) -> LockSpace:
        return LockSpace(
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
                self.network.send(parent, adopter.splice_drop_child(node_id))
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


class ExclusiveClient(_NodeClient):
    """Per-node client of an exclusive-lock baseline — Naimi-Tréhel or
    Raymond — in coroutine style."""

    def acquire(self, lock_id: LockId) -> SimEvent:
        """Request the (exclusive) lock; yield the event to wait."""

        cluster = self._cluster
        cluster._check_departed(self._node_id)
        cluster._record_request(self._node_id, lock_id, LockMode.W)
        event = SimEvent(cluster.sim)
        out = cluster.lockspaces[self._node_id].request(lock_id, event)
        cluster.network.send(self._node_id, out)
        return event

    def release(self, lock_id: LockId) -> None:
        """Leave the critical section of *lock_id*."""

        cluster = self._cluster
        cluster._check_departed(self._node_id)
        cluster._record_release(self._node_id, lock_id, LockMode.W)
        out = cluster.lockspaces[self._node_id].release(lock_id)
        cluster.network.send(self._node_id, out)


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
        metrics: Optional[MetricsCollector] = None,
        obs: Optional[ObsSink] = None,
    ) -> None:
        super().__init__(
            num_nodes, sim=sim, latency=latency, seed=seed,
            monitor=monitor, metrics=metrics, obs=obs, token_home=token_home,
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
        metrics: Optional[MetricsCollector] = None,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self.topology = (
            topology if topology is not None else balanced_binary_tree(num_nodes)
        )
        validate(self.topology)
        super().__init__(
            num_nodes, sim=sim, latency=latency, seed=seed,
            monitor=monitor, metrics=metrics, obs=obs,
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
