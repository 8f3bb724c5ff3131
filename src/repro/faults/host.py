"""The one host of the resilient cluster family.

The paper's protocol is one automaton per (node, lock) that does not
care what delivers its messages; :class:`ResilientHost` is the code
hosting it, and does not care either.  Beyond the host base both
families share (:class:`~repro.sim.cluster._Host`) it owns everything
about a fault-tolerant cluster that is not engine-specific — node
boot (lock space + :class:`~repro.faults.recovery.RecoveryManager` +
journal + flight recorder), crash/restart including WAL rejoin and
session reclaim, join/drain/decommission, the crash and durability
logs, the clients' call path (admit, record, then the node's recovery
manager), the grant listener that leases every grant, the lease layer's
forced-release report, a node's snapshot and
:meth:`~ResilientHost.recovery_stats` — written against three small
vocabularies its engine binding supplies:

* a **fabric** speaking ``register(node, handler)``, ``crash(node)``,
  ``restart(node, handler)`` and ``send(sender, envelopes)``
  (:class:`~repro.sim.network.Network`,
  :class:`~repro.faults.runtime.FaultyTransport`);
* a **scheduler** speaking ``now()`` and ``call_later(delay, fn)``
  (:mod:`repro.faults.scheduler`);
* a **waiter**, :meth:`~ResilientHost._wait`: how the engine waits for
  a condition on cluster state (poll in virtual time / block a thread).

:class:`~repro.faults.simcluster.ResilientSimCluster` and
:class:`~repro.faults.runtime.ResilientThreadedCluster` are the two
bindings, and both run the same recovery stack, leases and sessions
included: they differ only in engine, waiter, client and lifetime.  A
third engine (a schedule explorer, say) is a third binding, not a third
copy of this file.  Each hands out its engine's one
hierarchical client (:class:`~repro.sim.cluster.HierClient`,
:class:`~repro.runtime.cluster.BlockingLockClient`), the bare family's;
its ``upgrade``, ``attempt`` and ``downgrade`` are bare-only, and raise
:class:`~repro.errors.ConfigurationError` naming the call.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from ..core.automaton import ProtocolOptions
from ..core.lockspace import LockSpace, TokenHomeFn
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..errors import ConfigurationError, SimulationError
from ..obs.sink import ObsSink
from ..sim.cluster import _GrantCtx, _Host
from ..verification.invariants import Monitor
from .plan import FaultPlan
from .recovery import RecoveryConfig, RecoveryManager

#: Protocol options every resilient node runs with.
RESILIENT_OPTIONS = ProtocolOptions(recovery=True)


def _bare_only(call: str):
    """A bare host's client call, refused: a recovery manager takes
    requests and releases only."""

    def refuse(self, node_id: NodeId, *args) -> None:
        raise ConfigurationError(
            f"{call}() is a bare-host call; node {node_id} is resilient"
        )

    return refuse


class ResilientHost(_Host):
    """N nodes with recovery managers over some fabric and scheduler."""

    def __init__(
        self,
        num_nodes: int,
        fabric,
        scheduler,
        plan: Optional[FaultPlan],
        config: RecoveryConfig,
        token_home: TokenHomeFn,
        monitor: Optional[Monitor],
        obs: Optional[ObsSink],
        persistence,
        flight,
        reclaim: bool = False,
    ) -> None:
        if num_nodes < 2:
            raise ConfigurationError(
                "a resilient cluster needs at least two nodes (someone "
                "must survive to regenerate the token)"
            )
        self.plan = plan
        self.config = config
        self._token_home = token_home
        self.scheduler = scheduler
        self.managers: Dict[NodeId, RecoveryManager] = {}
        #: Per-node durability backend (see :mod:`repro.persist`);
        #: ``None`` keeps the cluster volatile.
        self.persistence = persistence
        #: Whether a durable restart re-asserts the surviving sessions'
        #: holds (lease reclaim) instead of disowning them.
        self.reclaim = reclaim
        self.journals: Dict[NodeId, object] = {}
        #: Per-node flight recorders (see :mod:`repro.obs.flightrec`),
        #: shared with the harness that passed the dict; a node without
        #: one gets one at boot.  ``None`` (default) records nothing.
        self.flight = flight
        #: One rejoin report per durable restart, in restart order.
        self.durability_log: List[Dict[str, object]] = []
        self._crashed: set = set()
        self.crash_log: List[Dict[str, object]] = []
        # ``members`` mirrors the installed membership view; a node
        # leaves it when its drain or decommission completes.
        super().__init__(num_nodes, fabric, scheduler.now, monitor, obs)

    # -- what a binding supplies -------------------------------------------

    def _wait(self, predicate, then, what: str, **wait) -> None:
        """Run *then* (if any) once *predicate* holds, the engine's way.

        *wait* is whatever the binding's membership calls accept beyond
        the host's own arguments (``timeout=`` on threads, nothing on
        the simulator); *what* names the wait in a timeout message.
        """

        raise NotImplementedError

    # -- the client's call path (one host method per client call) ----------

    def _submit_request(
        self,
        node_id: NodeId,
        lock_id: LockId,
        mode: LockMode,
        ctx: _GrantCtx,
        priority: int = 0,
    ) -> None:
        self._admit(node_id)
        self._record_request(node_id, lock_id, mode)
        self.managers[node_id].request(lock_id, mode, ctx, priority)

    def _submit_release(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        if not self._admit(node_id, releasing=True):
            return
        self._record_release(node_id, lock_id, mode)
        self.managers[node_id].release(lock_id, mode)

    _attempt_local = _bare_only("attempt")
    _submit_upgrade = _bare_only("upgrade")
    _submit_downgrade = _bare_only("downgrade")

    def _make_listener(self, node_id: NodeId):
        """The grant listener of *node_id*: record the grant, lease it,
        wake the waiting client."""

        def listener(lock_id: LockId, mode: LockMode, ctx: object) -> None:
            self._record_grant(node_id, lock_id, mode)
            # Looked up at call time so the current incarnation's manager
            # leases its own grants.
            self.managers[node_id].leases.note_grant(lock_id, mode)
            if isinstance(ctx, _GrantCtx):
                ctx.event.trigger(mode)

        return listener

    # -- node lifecycle ----------------------------------------------------

    def _boot_node(
        self,
        node_id: NodeId,
        boot: int = 0,
        fresh: bool = True,
        membership: Optional[List[NodeId]] = None,
    ) -> None:
        lockspace = LockSpace(
            node_id=node_id,
            token_home=self._token_home,
            listener=self._make_listener(node_id),
            options=RESILIENT_OPTIONS,
        )
        lockspace.obs = self.obs
        if self.flight is not None:
            recorder = self.flight.get(node_id)
            if recorder is None:
                from ..obs.flightrec import FlightRecorder

                recorder = self.flight[node_id] = FlightRecorder(
                    node_id,
                    protocol="hierarchical",
                    clock=self._now,
                )
            if not fresh:
                recorder.record_restart()
            recorder.attach(lockspace)
        manager = RecoveryManager(
            node_id=node_id,
            lockspace=lockspace,
            membership=(
                membership if membership is not None else list(self.members)
            ),
            scheduler=self.scheduler,
            transport_send=functools.partial(self._fabric.send, node_id),
            config=self.config,
            obs=self.obs,
            boot=boot,
        )
        self.lockspaces[node_id] = lockspace
        self.managers[node_id] = manager
        journal = None
        if self.persistence is not None:
            from ..persist import NodeJournal

            journal = NodeJournal(
                self.persistence.store_for(node_id),
                node_id,
                boot=boot,
                obs=self.obs,
            )
            journal.attach(lockspace)
            journal.view_source = manager.membership.journal_payload
            self.journals[node_id] = journal
            manager.journal = journal
            journal.session_source = manager.leases.sessions.export
        manager.leases.forced_release = self._forced_release
        attach = getattr(self._fabric, "attach_absorber", None)
        if attach is not None:
            # A simulated fabric keeps quiet heartbeats off its heap.
            manager.fabric = self._fabric
            attach(node_id, manager.absorb)
        if fresh:
            # A restarted node's handler goes in with ``fabric.restart``.
            self._fabric.register(node_id, manager.handle)

    def _silence(self, node_id: NodeId) -> None:
        self._fabric.crash(node_id)
        self.managers[node_id].stop()
        journal = self.journals.pop(node_id, None)
        if journal is not None:
            # The store survives (it is the durable medium); only the
            # in-process journal handle dies with the node.
            journal.close()

    def crash(self, node_id: NodeId) -> None:
        """Kill *node_id*: volatile state gone, fabric silenced."""

        if node_id in self._crashed:
            return
        self._crashed.add(node_id)
        if self.flight is not None:
            self.flight[node_id].record_crash()
        self.crash_log.append({"at": self._now(), "node": node_id})
        self._silence(node_id)
        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_crash(self._now(), node_id)
        if self.obs is not None:
            self.obs.fault("crash", node_id)

    def restart(self, node_id: NodeId) -> None:
        """Bring *node_id* back under a bumped boot incarnation.

        Without persistence the node rejoins blank; with it, the node
        replays its snapshot + WAL and rejoins with its pre-crash locks
        (token custody fenced until the epoch handshake settles — see
        :meth:`~repro.faults.tokens.TokenLayer.rejoin_from_journal`).
        """

        if node_id not in self._crashed:
            return
        if node_id in self._departed:
            return  # Decommissioned while down: it no longer exists.
        self._crashed.discard(node_id)
        boot = self.managers[node_id].boot + 1
        self._boot_node(node_id, boot=boot, fresh=False)
        manager = self.managers[node_id]
        # Fabric first: rejoin replay dispatches messages immediately.
        self._fabric.restart(node_id, manager.handle)
        reclaimed: List = []
        if self.persistence is not None:
            from ..persist import VIEW_JOURNAL_KEY, recover_node_state
            from ..services.sessions import SESSIONS_JOURNAL_KEY

            state, recover_report = recover_node_state(
                self.persistence.store_for(node_id)
            )
            # The journalled view first: quorum sizes and the departed
            # set of everything below derive from it.
            view_payload = state.pop(VIEW_JOURNAL_KEY, None)
            if view_payload is not None:
                manager.membership.adopt_view(view_payload)
            # Sessions ride the same WAL under a reserved key; they are
            # not a lock and must never reach the per-lock rejoin.
            sessions_payload = state.pop(SESSIONS_JOURNAL_KEY, None)
            if sessions_payload is not None:
                manager.leases.sessions.restore(sessions_payload)
            reclaim_cb = None
            if self.reclaim and sessions_payload is not None:
                base, survivors = manager.leases.sessions.reclaimer(
                    self._now(), manager.leases.config.session_ttl
                )

                def reclaim_cb(lock_id, mode):
                    if not base(lock_id, str(mode)):
                        return False
                    # Fresh lease under the restored epoch; the session
                    # already carries the hold count, so no note_grant.
                    manager.leases.mint(lock_id, mode)
                    self._record_grant(node_id, lock_id, mode)
                    reclaimed.append((lock_id, mode))
                    return True

            rejoin_report = manager.tokens.rejoin_from_journal(
                state, reclaim=reclaim_cb
            )
            self.durability_log.append(
                {
                    "at": round(self._now(), 6),
                    "node": node_id,
                    "boot": boot,
                    "recovered": recover_report,
                    "rejoin": rejoin_report,
                }
            )
            # Re-seed the snapshot under the new boot so the next crash
            # replays from here instead of the whole pre-crash log.
            self.journals[node_id].compact()
        manager.start()
        # The restarted workload won't re-release holds it never
        # knowingly re-acquired: hand each reclaimed hold back after a
        # short grace so waiters eventually progress.
        for i, (lock_id, mode) in enumerate(reclaimed):
            self.scheduler.call_later(
                0.5 + 0.25 * i,
                lambda l=lock_id, m=mode: (
                    self._release_reclaimed(node_id, l, m)
                ),
            )
        if self.obs is not None:
            self.obs.fault("restart", node_id)

    def _release_reclaimed(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        if node_id in self._crashed or self.managers[node_id].leases.fenced:
            return
        self._record_release(node_id, lock_id, mode)
        self.managers[node_id].release(lock_id, mode)

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether *node_id* is currently down."""

        return node_id in self._crashed

    def _admit(self, node_id: NodeId, releasing: bool = False) -> bool:
        """Whether *node_id*'s client may go ahead with a call.

        A crashed node raises :class:`SimulationError`; so does a leaving
        or lease-fenced one, unless it is *releasing*: its holds were all
        force-released and the monitor told (``leases.forced_release``),
        so a late release is dropped (``False``), not counted twice.
        """

        if node_id in self._crashed:
            raise SimulationError(f"node {node_id} is crashed")
        manager = self.managers[node_id]
        if node_id in self._departed or manager.membership.departing:
            state = "leaving the cluster"
        elif manager.leases.fenced:
            state = "lease-fenced"
        else:
            return True
        if releasing:
            return False
        raise SimulationError(f"node {node_id} is {state}")

    def live_nodes(self) -> List[NodeId]:
        """Current members that are up, ascending."""

        return [n for n in self.members if n not in self._crashed]

    # -- dynamic membership (see repro.membership / docs/MEMBERSHIP.md) ----

    def _view_converged(self, node_id: NodeId, member: bool) -> bool:
        """Whether every live member's view has (lost) *node_id*."""

        return all(
            (node_id in self.managers[n].membership.view.members) == member
            for n in self.live_nodes()
        )

    def join_node(self, **wait) -> NodeId:
        """Admit a brand-new node into the running cluster.

        Allocates the next node id, boots it with the full recovery
        stack, and has it ask the lowest live member for admission; the
        sponsor drives the quorum-gated view change and sends the state
        transfer.  On the simulator the call returns at once and the
        returned id's client is usable immediately (its first requests
        simply route while the view converges); on threads it blocks
        (``timeout=`` seconds) until every live member, the joiner
        included, has installed the admission view.
        """

        live = self.live_nodes()
        if not live:
            raise SimulationError("no live member can sponsor a join")
        sponsor = min(live)
        node_id = self.num_nodes
        self.num_nodes += 1
        # The joiner boots believing the view is (sponsor's view | self):
        # an over-approximation, so every quorum it counts before the
        # real install arrives is at least as large as the true one.
        bootstrap = sorted(
            set(self.managers[sponsor].membership.view.members) | {node_id}
        )
        self.members.append(node_id)
        self._boot_node(node_id, boot=0, fresh=True, membership=bootstrap)
        manager = self.managers[node_id]
        manager.start()
        manager.membership.request_join(sponsor)
        self.clients.append(self.CLIENT(self, node_id))
        self._log_membership("join", node_id, sponsor=sponsor)
        # The bootstrap list (epoch 0) is not an installed view.
        self._wait(
            lambda: manager.membership.view.epoch > 0
            and self._view_converged(node_id, True),
            None,
            f"join of node {node_id}",
            **wait,
        )
        return node_id

    def drain_node(
        self, node_id: NodeId, successor: Optional[NodeId] = None, **wait
    ) -> NodeId:
        """Gracefully remove *node_id*: drain its holds, hand off any
        token custody to *successor* (lowest live member by default),
        migrate its copyset children, then install a view without it.

        Returns the successor.  The node's fabric is silenced once its
        own removal view is installed (see :attr:`membership_log`) —
        asynchronously on the simulator; on threads the call blocks
        (``timeout=`` seconds) for that and then until every live
        member has installed the removal.
        """

        if node_id in self._crashed:
            raise SimulationError(
                f"node {node_id} is crashed; decommission it instead"
            )
        if (
            node_id in self._departed
            or self.managers[node_id].membership.departing
        ):
            raise SimulationError(f"node {node_id} is already leaving")
        chosen = self.managers[node_id].membership.begin_leave(successor)
        self._log_membership("drain-begin", node_id, successor=chosen)

        def drained() -> None:
            if node_id not in self._crashed:  # else: decommission it
                self._finalize_departure(node_id, "drained")

        self._wait(
            lambda: node_id in self._crashed
            or node_id not in self.managers[node_id].membership.view.members,
            drained,
            f"drain of node {node_id}",
            **wait,
        )
        self._wait(
            lambda: self._view_converged(node_id, False),
            None,
            f"removal of drained node {node_id}",
            **wait,
        )
        return chosen

    def decommission_node(self, node_id: NodeId, **wait) -> NodeId:
        """Force-remove a crashed *node_id* from the view for good.

        The lowest live member coordinates the view change; the install
        fences the dead node's leases and evicts its copyset entries
        everywhere.  Returns the coordinator.  Finalized once every
        live member has installed the removal (asynchronously on the
        simulator, blocking for ``timeout=`` seconds on threads).  A
        decommissioned node can never :meth:`restart`.
        """

        if node_id not in self._crashed:
            raise SimulationError(
                f"node {node_id} is alive; drain it instead"
            )
        if node_id in self._departed:
            raise SimulationError(f"node {node_id} already decommissioned")
        live = self.live_nodes()
        if not live:
            raise SimulationError("no live member can coordinate")
        coordinator = min(live)
        self.managers[coordinator].membership.decommission(node_id)
        self._log_membership(
            "decommission-begin", node_id, coordinator=coordinator
        )
        self._wait(
            lambda: self._view_converged(node_id, False),
            lambda: self._finalize_departure(node_id, "decommissioned"),
            f"decommission of node {node_id}",
            **wait,
        )
        return coordinator

    def _finalize_departure(self, node_id: NodeId, event: str) -> None:
        if node_id in self._departed:
            return
        self._departed.add(node_id)
        if node_id in self.members:
            self.members.remove(node_id)
        if node_id not in self._crashed:
            # A drained node: silence its fabric and stop its timers now
            # that its removal view is installed cluster-wide enough for
            # anti-entropy to finish the spread without it.
            self._silence(node_id)
        self._log_membership(event, node_id)

    # -- monitor plumbing --------------------------------------------------

    def _forced_release(self, holder: NodeId, lock_id: LockId) -> None:
        """The lease layer revoked *holder*'s holds on *lock_id*."""

        if self.monitor is not None:
            with self._monitor_lock:
                self.monitor.on_forced_release(self._now(), holder, lock_id)

    # -- aggregates --------------------------------------------------------

    def _snapshot(self, node_id: NodeId):
        """Dead if *node_id* is crashed (its volatile state is gone),
        else taken under its recovery manager's mutex, with the manager's
        :class:`~repro.obs.live.RecoveryHealth`."""

        from ..obs.live import NodeSnapshot, snapshot_node

        if node_id in self._crashed:
            return NodeSnapshot(node=node_id, alive=False)
        manager = self.managers[node_id]
        with manager.mutex:
            return snapshot_node(
                node_id,
                self.lockspaces[node_id],
                recovery=manager.health_snapshot(),
            )

    def recovery_stats(self) -> Dict[str, object]:
        """Aggregate recovery counters across managers."""

        managers = self.managers
        suspects = sorted(
            {
                (round(t, 6), peer)
                for manager in managers.values()
                for (t, peer) in manager.suspect_log
            }
        )
        return {
            "suspect_events": len(suspects),
            "suspected_nodes": sorted({peer for _, peer in suspects}),
            "regenerations": [
                regen
                for manager in managers.values()
                for regen in manager.tokens.regenerations
            ],
            "app_retransmits": sum(
                m.app_retransmits for m in managers.values()
            ),
            "channel_retransmits": sum(
                m.channel.retransmits for m in managers.values()
            ),
            "duplicates_dropped": sum(
                m.channel.duplicates_dropped for m in managers.values()
            ),
            "leases_revoked": sum(
                m.events["lease-revoke"] for m in managers.values()
            ),
            "fenced_nodes": sorted(
                n for n, m in managers.items() if m.leases.fenced
            ),
        }
